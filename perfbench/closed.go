package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"github.com/invoke-deobfuscation/invokedeob/internal/core"
	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
)

// Nominal seconds one pass takes on a shared 2-core VM. They turn -seconds
// into a fixed pass count, so a run's work does not depend on how fast
// the code under test is.
const (
	wildPassSeconds = 2.4
	deepPassSeconds = 3.6
	// minPasses keeps each script's median over passes meaningful.
	minPasses = 3
	// warmStride picks every warmStride-th input for a set-up's warm-up
	// pass, so the three set-ups together cost about one pass.
	warmStride = 3
)

// closedLoop runs one client that sends the next script when the
// previous one returns.
type closedLoop struct {
	inputs []input
	// passScoped shares one parse and one eval cache among the scripts
	// of a pass, as a batch run does; otherwise every script gets fresh
	// caches, as a single library call does.
	passScoped bool
}

// scriptRun is one timed engine call.
type scriptRun struct {
	res *core.Result
	err error
	lat time.Duration
	// gap is the time from the previous call's return to this call,
	// the closed loop's own lateness.
	gap time.Duration
}

// pass deobfuscates every input once. A non-nil tracer records a span
// per call and tally collects the cache counters.
func (w *closedLoop) pass(eng *core.Deobfuscator, inputs []input, tr *tracer, tally *cacheTally) (time.Duration, []scriptRun) {
	runs := make([]scriptRun, len(inputs))
	var cache *pipeline.Cache
	var evalCache *pipeline.EvalCache
	start := time.Now()
	prev := start
	for i := range inputs {
		if cache == nil || !w.passScoped {
			tally.add(cache, evalCache)
			cache, evalCache = pipeline.NewCache(0, 0), core.NewEvalCache(0, 0)
		}
		in := &inputs[i]
		s := tr.begin(i, "core.Deobfuscate", -1)
		t0 := time.Now()
		res, err := eng.DeobfuscateSharedLang(context.Background(), in.src, in.lang, cache, evalCache)
		t1 := time.Now()
		tr.end(s)
		runs[i] = scriptRun{res: res, err: err, lat: t1.Sub(t0), gap: t0.Sub(prev)}
		prev = t1
	}
	elapsed := time.Since(start)
	tally.add(cache, evalCache)
	return elapsed, runs
}

// setup builds an engine and warms it on every warmStride-th input,
// returning the engine and the time it took.
func (w *closedLoop) setup() (*core.Deobfuscator, time.Duration) {
	t0 := time.Now()
	eng := core.New(core.Options{})
	var warm []input
	for i := 0; i < len(w.inputs); i += warmStride {
		warm = append(warm, w.inputs[i])
	}
	w.pass(eng, warm, nil, nil)
	return eng, time.Since(t0)
}

func runClosed(cfg config, log io.Writer) (*outcome, error) {
	plan, err := loadPlan()
	if err != nil {
		return nil, err
	}
	w := &closedLoop{}
	nominal := wildPassSeconds
	switch cfg.workload {
	case wild:
		w.inputs, err = wildInputs(plan, cfg.seed, cfg.size.wild)
		w.passScoped = true
	case deep:
		w.inputs, err = deepInputs(plan, cfg.seed, cfg.size.deep)
		nominal = deepPassSeconds
	}
	if err != nil {
		return nil, err
	}
	passes := max(minPasses, int(math.Round(float64(cfg.seconds)/nominal)))
	releaseMemory()

	var eng *core.Deobfuscator
	setups := make([]float64, setupRepeats)
	for r := range setups {
		var d time.Duration
		eng, d = w.setup()
		setups[r] = d.Seconds()
	}
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("resetting the peak RSS: %w", err)
	}

	// A traced run traces every other pass, so that the untraced passes
	// between them are the base for the tracing overhead.
	var tr *tracer
	var tally *cacheTally
	if cfg.trace {
		tr, tally = newTracer(), &cacheTally{}
	}
	var all [][]scriptRun
	var untracedTimes, tracedTimes []float64
	var tracedOps int
	cpu0, rt0 := cpuTime(), readRuntime()
	for p := 0; p < passes; p++ {
		if tr != nil && p%2 == 1 {
			d, runs := w.pass(eng, w.inputs, tr, tally)
			tracedTimes = append(tracedTimes, d.Seconds())
			tracedOps += len(runs)
			all = append(all, runs)
			fmt.Fprintf(log, "%s traced pass %d: %.3fs\n", cfg.workload, p, d.Seconds())
			continue
		}
		d, runs := w.pass(eng, w.inputs, nil, nil)
		untracedTimes = append(untracedTimes, d.Seconds())
		all = append(all, runs)
		fmt.Fprintf(log, "%s pass %d: %.3fs\n", cfg.workload, p, d.Seconds())
	}
	cpu, rt1 := cpuTime()-cpu0, readRuntime()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	out := &outcome{values: map[string]float64{}, samples: map[string]int{}}
	v := out.values
	firsts, failed := w.judge(all, log)
	out.attempted = len(all) * len(w.inputs)
	out.failed = failed
	v["ok_frac"] = 1 - ratio(float64(failed), float64(out.attempted))

	var q quality
	for i := range w.inputs {
		q.add(&w.inputs[i], firsts[i])
	}
	q.set(v)
	v["setup_s"] = median(setups)
	out.samples["setup_s"] = len(setups)

	// Each script's latency is its median over the untraced passes,
	// which filters the bursts in which a shared 2-core VM runs 15% slow;
	// throughput is that of a pass made of these medians.
	var lats []float64
	var passTime float64
	for i := range w.inputs {
		var mine []float64
		for p, runs := range all {
			if tr == nil || p%2 == 0 {
				mine = append(mine, ms(runs[i].lat))
			}
		}
		lats = append(lats, median(mine))
		passTime += median(mine) / 1e3
	}
	v["throughput_per_s"] = float64(len(w.inputs)) / passTime
	v["latency_p50_ms"] = quantile(lats, 0.5)
	v["latency_p95_ms"] = quantile(lats, 0.95)
	v["cpu_ms_per_op"] = ms(cpu) / float64(out.attempted)
	v["peak_rss_mb"] = rss
	for _, name := range []string{"throughput_per_s", "latency_p50_ms", "latency_p95_ms"} {
		out.samples[name] = len(lats)
	}
	out.samples["cpu_ms_per_op"] = out.attempted
	if !cfg.trace {
		return out, nil
	}

	setRuntimeMetrics(v, rt0, rt1, out.attempted)
	v["trace.overhead_frac"] = median(tracedTimes)/median(untracedTimes) - 1
	var engineRuns []engineRun
	var gaps []float64
	for _, runs := range all {
		for _, r := range runs {
			gaps = append(gaps, ms(r.gap))
			if r.res != nil {
				engineRuns = append(engineRuns, engineRun{Stats: r.res.Stats, PassTrace: r.res.PassTrace})
			}
		}
	}
	setEngineMetrics(v, engineRuns)
	tally.set(v, tracedOps)
	v["loadgen.late_p95_ms"] = quantile(gaps, 0.95)
	out.samples["loadgen.late_p95_ms"] = len(gaps)
	last := all[len(all)-1]
	texts := make([][]string, len(w.inputs))
	for i, r := range last {
		if r.res != nil {
			texts[i] = r.res.Layers
		}
	}
	if err := probeLayers(tr, w.inputs, texts, v); err != nil {
		return nil, err
	}
	if v["server.overhead_ms_p50"], err = probeServer(tr, w.inputs); err != nil {
		return nil, err
	}
	out.spans = tr.list()
	return out, nil
}

// judge checks every run against the first output of its script and
// the first output against the references. It returns the first
// outputs and the number of failed runs.
func (w *closedLoop) judge(all [][]scriptRun, log io.Writer) ([]string, int) {
	firsts := make([]string, len(w.inputs))
	wrong := make([]bool, len(w.inputs))
	for i := range w.inputs {
		r := all[0][i]
		if r.res == nil {
			wrong[i] = true
			continue
		}
		firsts[i] = r.res.Script
		if why := verdict(&w.inputs[i], r.res.Script); why != "" {
			wrong[i] = true
			fmt.Fprintf(log, "script %d (%s): output %s\n", i, w.inputs[i].id, why)
		}
	}
	failed := 0
	for _, runs := range all {
		for i, r := range runs {
			if wrong[i] || r.err != nil || r.res == nil || r.res.Stats.TimedOut || r.res.Script != firsts[i] {
				failed++
				fmt.Fprintf(log, "script %d failed: %v\n", i, r.err)
			}
		}
	}
	return firsts, failed
}
