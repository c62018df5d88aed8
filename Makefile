# Tier-1 gate: `make check` is the bar every change must clear.
# It chains vet, build, the full test suite under the race detector,
# the engine-equivalence + parse-amortization guards, the benchmark
# module's self-test, and a short native-fuzz smoke over the hardened
# entry points.

GO ?= go
FUZZTIME ?= 10s

PROFILEDIR ?= .profile

.PHONY: all check fmt vet build test race equivalence goldens fuzz-smoke serve-smoke loadtest loadtest-smoke gauntlet gauntlet-smoke perfbench-selftest profile clean

all: check

# check is the tier-1 gate.
check: fmt vet build race equivalence serve-smoke loadtest-smoke gauntlet-smoke perfbench-selftest fuzz-smoke

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

# equivalence re-runs the refactor guards explicitly (they are also in
# the plain suite): byte-identical output against the frozen goldens of
# both language frontends, the parses-per-run budgets on the fixed
# 3-layer script and the 24-sample corpus, the lexes-per-run budget
# (one lex per distinct text) on both, the safety walk's visit budget
# on the corpus and its agreement with the full walk, the corpus's
# budget of interpreter steps executed (a piece replays the recorded
# value of a descendant instead of evaluating it again) with the steps
# charged unchanged, every piece run on its parsed subtree, replays
# included, against a run on a parse of its text, the interpreter's
# pinned output and step count for every level-3 decoder and
# ForEach-Object body shape, and its allocations-per-character bound
# on the hot decoders.
equivalence:
	$(GO) test ./internal/core -run TestEquivalenceGolden -count=1
	$(GO) test ./internal/psfront -run 'TestParseCount|TestLexCountBudget|TestSafeWalkMatchesFullWalk|TestEvalStepsCorpusBudget|TestPieceNodeEvalMatchesText' -count=1
	$(GO) test ./internal/jsfront -run TestJSGolden -count=1
	$(GO) test ./internal/psinterp -run 'TestDecoderStepsPinned|TestDecoderAllocations' -count=1

# goldens deliberately regenerates both frontends' golden suites from
# the current engine output. Run it only when an intentional behaviour
# change has been reviewed, and commit the diff.
goldens:
	$(GO) test ./internal/core -run TestEquivalenceGolden -update-golden -count=1
	$(GO) test ./internal/jsfront -run TestJSGolden -update-golden -count=1

# fuzz-smoke gives each native fuzz target a short budget. Any panic,
# envelope violation or differential mismatch (FuzzSplitOperator against
# the regex split, FuzzParseNumber against the full number grammar,
# FuzzPieceNodeEval's piece evaluations on the parsed subtree against
# a parse of their text, FuzzDetect's vote against the full regexp
# count) found within the budget fails the gate. FuzzPieceNodeEval's
# subtree runs include replays of recorded descendants, also under step
# and memory budgets small enough to trip inside one. -fuzzminimizetime 0
# keeps the budget for fuzzing: Go's default spends up to 60 s
# minimizing each new interesting input, which stalls a 10 s run. A
# failing input is still reported and written to testdata/fuzz, just
# not shrunk.
fuzz-smoke:
	$(GO) test ./internal/psfront -run '^$$' -fuzz FuzzTokenize -fuzztime $(FUZZTIME) -fuzzminimizetime 0
	$(GO) test ./internal/psfront -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) -fuzzminimizetime 0
	$(GO) test ./internal/psfront -run '^$$' -fuzz FuzzPieceNodeEval -fuzztime $(FUZZTIME) -fuzzminimizetime 0
	$(GO) test ./internal/frontend -run '^$$' -fuzz FuzzDetect -fuzztime $(FUZZTIME) -fuzzminimizetime 0
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzDeobfuscate$$ -fuzztime $(FUZZTIME) -fuzzminimizetime 0
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzDeobfuscateEnvelope -fuzztime $(FUZZTIME) -fuzzminimizetime 0
	$(GO) test ./internal/psinterp -run '^$$' -fuzz FuzzEvalSnippet -fuzztime $(FUZZTIME) -fuzzminimizetime 0
	$(GO) test ./internal/psinterp -run '^$$' -fuzz FuzzSplitOperator -fuzztime $(FUZZTIME) -fuzzminimizetime 0
	$(GO) test ./internal/psparser -run '^$$' -fuzz FuzzParseNumber -fuzztime $(FUZZTIME) -fuzzminimizetime 0
	$(GO) test ./internal/obfuscate -run '^$$' -fuzz FuzzProfileStack -fuzztime $(FUZZTIME) -fuzzminimizetime 0

# serve-smoke is the end-to-end binary check for the HTTP service:
# build deobserver, bind an ephemeral port, round-trip a script via
# curl, check /healthz, /statsz and /metrics, then SIGTERM and verify a
# graceful drain.
serve-smoke:
	sh scripts/serve_smoke.sh

# loadtest floods a deliberately small local deobserver (1 worker,
# quotas on, aggressive shedding) with the full hostile traffic mix via
# cmd/loadgen and asserts that light traffic survives: success rate,
# p99 SLO, zero light 5xx; then it holds six admission tokens with
# never-finished request bodies and requires a heavy script to be shed.
# The JSON report is written to BENCH_pr6.json (override with
# BENCHJSON=...). loadtest-smoke is the seconds-scale
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

# profile runs the jobs=1 batch benchmark (the 16-sample generated
# corpus through the library) with CPU and allocation profiling,
# leaving cpu.pprof, mem.pprof and the test binary they refer to in
# $(PROFILEDIR) for `go tool pprof`.
profile:
	rm -rf $(PROFILEDIR)
	mkdir -p $(PROFILEDIR)
	$(GO) test -run '^$$' -bench 'BenchmarkDeobfuscateBatch$$/jobs=1' \
		-o $(PROFILEDIR)/invokedeob.test -outputdir $(PROFILEDIR) \
		-cpuprofile cpu.pprof -memprofile mem.pprof .
	@echo "profiles: $(PROFILEDIR)/cpu.pprof $(PROFILEDIR)/mem.pprof"

clean:
	$(GO) clean -testcache
	rm -rf $(PROFILEDIR)
