# Tier-1 gate: `make check` is the bar every change must clear.
# It chains vet, build, the full test suite under the race detector,
# the engine-equivalence + parse-amortization guards, the benchmark
# module's self-test, and a short native-fuzz smoke over the hardened
# entry points.

GO ?= go
FUZZTIME ?= 10s
BENCHCOUNT ?= 5

BENCHJSON ?= BENCH_pr3.json
PROFILEDIR ?= .profile

.PHONY: all check fmt vet build test race soak equivalence goldens fuzz-smoke serve-smoke loadtest loadtest-smoke gauntlet gauntlet-smoke perfbench-selftest bench-compare bench-json profile clean

all: check

# check is the tier-1 gate.
check: fmt vet build race soak equivalence serve-smoke loadtest-smoke gauntlet-smoke perfbench-selftest fuzz-smoke

# fmt fails (and lists the offenders) when any file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# test is the plain (non-race) suite, kept for quick iteration.
test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# soak runs the slow hostile-input variants that are opt-in (-soak test
# flag) so the default `go test ./...` stays fast. They still gate
# `make check`: the full coverage is not lost, just moved here.
soak:
	$(GO) test ./internal/pipeline -run TestOversizeHostileTextSoak -soak -count=1 -timeout 10m

# equivalence re-runs the refactor guards explicitly (they are also in
# the plain suite): byte-identical output against the frozen goldens of
# both language frontends, and the parses-per-run budget on the fixed
# 3-layer script.
equivalence:
	$(GO) test ./internal/core -run TestEquivalenceGolden -count=1
	$(GO) test ./internal/psfront -run TestParseCount -count=1
	$(GO) test ./internal/jsfront -run TestJSGolden -count=1

# goldens deliberately regenerates both frontends' golden suites from
# the current engine output. Run it only when an intentional behaviour
# change has been reviewed, and commit the diff.
goldens:
	$(GO) test ./internal/core -run TestEquivalenceGolden -update-golden -count=1
	$(GO) test ./internal/jsfront -run TestJSGolden -update-golden -count=1

# fuzz-smoke gives each native fuzz target a short budget. Any panic or
# envelope violation found within the budget fails the gate.
fuzz-smoke:
	$(GO) test ./internal/psfront -run '^$$' -fuzz FuzzTokenize -fuzztime $(FUZZTIME)
	$(GO) test ./internal/psfront -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzDeobfuscate$$ -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzDeobfuscateEnvelope -fuzztime $(FUZZTIME)
	$(GO) test ./internal/psinterp -run '^$$' -fuzz FuzzEvalSnippet -fuzztime $(FUZZTIME)

# serve-smoke is the end-to-end binary check for the HTTP service:
# build deobserver, bind an ephemeral port, round-trip a script via
# curl, check /healthz and /statsz, then SIGTERM and verify a graceful
# drain.
serve-smoke:
	sh scripts/serve_smoke.sh

# loadtest floods a deliberately small local deobserver (1 worker,
# quotas on, aggressive shedding) with the full hostile traffic mix via
# cmd/loadgen and asserts that light traffic survives: success rate,
# p99 SLO, zero light 5xx. The JSON report is written to BENCH_pr6.json
# (override with BENCHJSON=...). loadtest-smoke is the seconds-scale
# variant gating `make check`: light traffic against a default-config
# server, full success required.
loadtest:
	sh scripts/loadtest.sh

loadtest-smoke:
	sh scripts/loadtest.sh smoke

# gauntlet runs the full profile-based obfuscation arms race: every
# sample of the deterministic 24-sample corpus x every profile x every
# wrapper depth up to 3, each cell obfuscated, deobfuscated, scored for
# residual obfuscation and executed in the sandbox for behavioral
# equivalence against the clean original. Writes the machine-readable
# gap report to GAUNTLET.json and exits non-zero when the run falls
# below the frozen baseline (pass-rate floor / residual-delta ceiling
# in internal/gauntlet/report.go). gauntlet-smoke is the seconds-scale
# variant gating `make check` (and CI): a smaller grid, same gate,
# report discarded.
gauntlet:
	$(GO) run ./cmd/gauntlet -n 24 -max-depth 3 -o GAUNTLET.json

gauntlet-smoke:
	$(GO) run ./cmd/gauntlet -n 6 -max-depth 2 -q -o .gauntlet_smoke.json
	rm -f .gauntlet_smoke.json

# perfbench-selftest builds and self-tests the benchmark module
# (perfbench/, its own Go module, so `go test ./...` at the root does
# not reach it): every workload on a handful of inputs, every metric
# emitted with its unit, BENCHMARK.json in step with the metric
# tables. It compiles against the engine's exported stats and server
# config, so this is the gate that keeps the benchmark building. About
# 15 s, offline. `bash perfbench/run.sh` runs the benchmark itself.
perfbench-selftest:
	cd perfbench && $(GO) test ./...

# bench-compare measures the single-script engine benchmark and the
# batch driver at 1/2/4 workers, writing bench.new. When a bench.old
# baseline exists and benchstat is installed the two are compared;
# otherwise copy bench.new to bench.old to set the baseline.
bench-compare:
	$(GO) test -run '^$$' -bench 'BenchmarkDeobfuscate$$|BenchmarkDeobfuscateBatch' \
		-count $(BENCHCOUNT) . | tee bench.new
	@if command -v benchstat >/dev/null 2>&1 && [ -f bench.old ]; then \
		benchstat bench.old bench.new; \
	elif [ -f bench.old ]; then \
		echo "benchstat not installed; compare bench.old and bench.new manually"; \
	else \
		echo "no baseline; run: cp bench.new bench.old"; \
	fi

# bench-json writes the machine-readable performance report (ns/op,
# allocs/op, parses/run, eval-cache hit rates and the PR 2 baseline
# deltas) consumed by the perf acceptance criteria.
bench-json:
	$(GO) run ./cmd/benchjson -o $(BENCHJSON)

# profile runs the CLI over the deterministic 24-sample corpus with CPU
# and allocation profiling enabled, leaving cpu.pprof / mem.pprof in
# $(PROFILEDIR) for `go tool pprof`.
profile:
	rm -rf $(PROFILEDIR)
	$(GO) run ./cmd/benchjson -emit-corpus $(PROFILEDIR)/corpus
	$(GO) run ./cmd/invoke-deobfuscation \
		-cpuprofile $(PROFILEDIR)/cpu.pprof -memprofile $(PROFILEDIR)/mem.pprof \
		$(PROFILEDIR)/corpus/*.ps1 > /dev/null
	@echo "profiles: $(PROFILEDIR)/cpu.pprof $(PROFILEDIR)/mem.pprof"

clean:
	$(GO) clean -testcache
	rm -f bench.new
	rm -rf $(PROFILEDIR)
