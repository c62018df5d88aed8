package main

// metricDef describes one reported metric. The tables below are the
// benchmark's record: BENCHMARK.json lists the same names, units,
// directions and bounds (the self-test checks that they agree), and a
// later performance change cites a per-layer metric's prediction by
// name.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	Bound float64
	// Moves and On are a per-layer metric's prediction: the end-to-end
	// metric a change in this layer should move, on which workloads.
	Moves []string
	On    []string
}

const (
	wild    = "wild-distinct"
	deep    = "deep-layers"
	service = "service-open"
)

// workloadDef is one workload and why it is in the benchmark.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{wild, "200 distinct Table I-mix corpus scripts, closed loop, 1 client, caches per pass: the cold path (tokenize, parse, interpret, cache inserts)"},
	{deep, "200 corpus scripts under heavy/paranoid wrappers at depth 3 (64 KB cap), closed loop, fresh caches per script: large-string decoding, unwrap, splice, fixpoint"},
	{service, "in-process HTTP server, open loop at 400 req/s from a child process over 2 connections: 80% a warm hot set of 24 small scripts (2 JavaScript), 20% never-seen ones of at most 1 KB"},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// endToEnd are the metrics a user sees, reported under the same names
// on every workload from untraced runs.
var endToEnd = []metricDef{
	// Median over timed passes (closed loop) or completions over the
	// schedule (open loop). The first pass after warm-up runs slower, so
	// a median over passes, not a total, is reported.
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	// Closed loops time each call; the open loop times each request from
	// its due time, so a stall charges every request queued behind it.
	// The percentiles are over each script's median over passes, or each
	// schedule place's best over the open loop's rounds.
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	// Process user+sys CPU per completed script: on two cores the
	// garbage collector runs on the core wall time does not see. For
	// service-open it is the server's process; the load generator runs
	// in a process of its own.
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	// VmHWM over the timed phase only (reset after set-up).
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	// Mean ObfuscationScore of the outputs (paper §IV-B2); a faster
	// engine that folds less shows here.
	{Name: "residual_score_mean", Unit: "score", Better: "lower", Bound: 0.1},
	// Share of ground-truth URLs ExtractIOCs finds in the outputs
	// (paper Fig. 5).
	{Name: "ioc_recall", Unit: "ratio", Better: "higher", Bound: 0.05},
	// Share of attempted operations that succeeded: no error, envelope
	// violation or non-200, output parses, is identical across repeats
	// and behaves like the clean original in the sandbox. It is
	// 1 - fail_frac, reported this way round so it is never zero.
	{Name: "ok_frac", Unit: "ratio", Better: "higher", Bound: 0.01},
	// Engine or server construction plus the untimed warm-up that fills
	// caches and sizes the heap, excluding input generation; the median
	// of setupRepeats set-ups.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

var everyWorkload = []string{wild, deep, service}

// perLayer are the traced run's metrics, one group per module, each
// with the end-to-end metric it should move and on which workloads.
var perLayer = []metricDef{
	// core: the engine driver.
	{Name: "core.run_ms_p50", Unit: "ms", Better: "lower", Moves: []string{"latency_p50_ms"}, On: everyWorkload},
	{Name: "core.run_ms_mean", Unit: "ms", Better: "lower", Moves: []string{"throughput_per_s"}, On: everyWorkload},
	{Name: "core.iterations_per_op", Unit: "count", Better: "lower", Moves: []string{"latency_p50_ms"}, On: everyWorkload},
	// 1 - (sum of pass self time) / (sum of run time): time inside a run
	// that no pass accounts for.
	{Name: "core.unattributed_frac", Unit: "ratio", Better: "lower", Moves: []string{"latency_p95_ms"}, On: []string{deep}},
	// psfront: the PowerShell passes, from Result.PassTrace self time.
	// The token pass should not move service-open, whose scripts are
	// small and warm.
	{Name: "psfront.token.self_ms_per_op", Unit: "ms", Better: "lower", Moves: []string{"throughput_per_s"}, On: []string{wild}},
	{Name: "psfront.ast.self_ms_per_op", Unit: "ms", Better: "lower", Moves: []string{"throughput_per_s"}, On: []string{wild, deep}},
	{Name: "psfront.ast.reverts_per_op", Unit: "count", Better: "lower", Moves: []string{"throughput_per_s"}, On: []string{wild, deep}},
	{Name: "psfront.rename.self_ms_per_op", Unit: "ms", Better: "lower", Moves: []string{"throughput_per_s"}, On: []string{wild, deep}},
	{Name: "psfront.reformat.self_ms_per_op", Unit: "ms", Better: "lower", Moves: []string{"throughput_per_s"}, On: []string{wild, deep}},
	// pipeline: parse cache, eval cache and splicing.
	{Name: "pipeline.parse.misses_per_op", Unit: "count", Better: "lower", Moves: []string{"latency_p50_ms"}, On: []string{wild, deep}},
	{Name: "pipeline.parse.hit_ratio", Unit: "ratio", Better: "higher", Moves: []string{"latency_p50_ms"}, On: []string{service}},
	// Requests that waited on another request's in-flight parse instead
	// of parsing again.
	{Name: "pipeline.parse.coalesced_waits", Unit: "count", Better: "higher", Moves: []string{"latency_p50_ms"}, On: []string{service}},
	{Name: "pipeline.eval.hit_ratio", Unit: "ratio", Better: "higher", Moves: []string{"latency_p50_ms"}, On: []string{service, wild}},
	{Name: "pipeline.eval.misses_per_op", Unit: "count", Better: "lower", Moves: []string{"latency_p50_ms"}, On: []string{service, wild}},
	{Name: "pipeline.eval.evictions_per_op", Unit: "count", Better: "lower", Moves: []string{"latency_p50_ms"}, On: []string{service, wild}},
	{Name: "pipeline.splice.applied_per_op", Unit: "count", Better: "higher", Moves: []string{"throughput_per_s"}, On: []string{deep}},
	{Name: "pipeline.splice.fallback_ratio", Unit: "ratio", Better: "lower", Moves: []string{"throughput_per_s"}, On: []string{deep}},
	// pstoken and psparser: Tokenize and Parse over every input and
	// every unwrapped layer, timed from the benchmark.
	{Name: "pstoken.ns_per_byte", Unit: "ns/B", Better: "lower", Moves: []string{"latency_p50_ms"}, On: []string{wild, deep}},
	{Name: "psparser.ns_per_byte", Unit: "ns/B", Better: "lower", Moves: []string{"latency_p50_ms"}, On: []string{wild, deep}},
	// psinterp: the interpreter behind recoverable-piece evaluation.
	{Name: "psinterp.pieces_per_op", Unit: "count", Better: "lower", Moves: []string{"throughput_per_s"}, On: []string{deep, wild}},
	{Name: "psinterp.recover_ratio", Unit: "ratio", Better: "higher", Moves: []string{"residual_score_mean"}, On: everyWorkload},
	// The frontend's public Evaluate, timed on the recoverable pieces
	// found by walking the parsed inputs and layers.
	{Name: "psinterp.eval_us_per_piece", Unit: "us", Better: "lower", Moves: []string{"throughput_per_s"}, On: []string{deep}},
	// frontend: language auto-detection, once per script.
	{Name: "frontend.detect_us", Unit: "us", Better: "lower", Moves: []string{"latency_p50_ms"}, On: []string{service}},
	// server: client-observed time minus the engine's Stats.Duration.
	// It should move service-open latency and nothing elsewhere; the
	// closed-loop workloads measure it on a probe of their own inputs.
	{Name: "server.overhead_ms_p50", Unit: "ms", Better: "lower", Moves: []string{"latency_p50_ms"}, On: []string{service}},
	// How late the load generator issued requests: after the due time
	// (open loop) or after the previous completion (closed loop).
	{Name: "loadgen.late_p95_ms", Unit: "ms", Better: "lower", Moves: []string{"latency_p95_ms"}, On: []string{service}},
	// Go runtime counters, read from outside the engine over the timed
	// phase of the traced run (the server's process on service-open).
	{Name: "runtime.alloc_kb_per_op", Unit: "KiB", Better: "lower", Moves: []string{"cpu_ms_per_op"}, On: everyWorkload},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower", Moves: []string{"cpu_ms_per_op", "peak_rss_mb"}, On: []string{deep, wild}},
	// Traced against untraced median pass time (closed loop: every other
	// pass is traced) or p50 latency (open loop: every other request).
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Moves: []string{"latency_p50_ms"}, On: everyWorkload},
}

func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}
