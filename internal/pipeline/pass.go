package pipeline

import (
	"strings"
	"time"
)

// Pass is one composable phase of the deobfuscation pipeline. Its Run
// reads and rewrites the Document in the PassContext; it must leave the
// Document parseable (revert on regression), and "nothing to do" is a
// no-op.
type Pass struct {
	// Name identifies the pass in traces ("token", "ast", "rename",
	// "reformat", "jsdecode").
	Name string
	// Run executes the pass over pc.Doc.
	Run func(pc *PassContext)
}

// PassContext carries the mutable per-run state a pass operates on.
type PassContext struct {
	// Doc is the script being rewritten.
	Doc *Document
	// Reverts counts candidate rewrites that failed validation and were
	// rolled back (the paper's validOrRevert check, §IV-A), across all
	// passes of the run.
	Reverts int
	// Eval is the run's window onto the shared evaluation cache (nil
	// when evaluation memoization is disabled; EvalView methods accept
	// a nil receiver).
	Eval *EvalView

	// nestedDepth / nestedTime track wall-clock time spent inside nested
	// payload layers re-entered from within a pass (see BeginNested), so
	// Trace.Run can split a pass's cumulative duration into self time
	// vs nested-layer time instead of double-attributing the nested work.
	nestedDepth int
	nestedTime  time.Duration
}

// BeginNested marks entry into a nested payload layer whose pass work
// executes inside the currently running pass (the ast phase re-enters
// the token and ast phases for every unwrapped layer). It returns the
// matching end function, to be called — typically deferred — when the
// nested layer finishes. Only the outermost nesting level accrues time,
// so recursive layers are counted once, and Trace.Run subtracts the
// accrued time from the enclosing pass's SelfDuration while leaving its
// cumulative Duration intact.
func (pc *PassContext) BeginNested() func() {
	pc.nestedDepth++
	start := time.Now()
	return func() {
		pc.nestedDepth--
		if pc.nestedDepth == 0 {
			pc.nestedTime += time.Since(start)
		}
	}
}

// ValidOrRevert returns candidate when it parses under view's
// language, fallback otherwise (the paper's per-step syntax check,
// §IV-A). The validity parse goes through the run's cache — a
// candidate checked here and then kept is never re-parsed by the next
// pass — and reverts are counted into the pass trace.
func (pc *PassContext) ValidOrRevert(view *View, candidate, fallback string) string {
	if strings.TrimSpace(candidate) == "" {
		pc.Reverts++
		return fallback
	}
	if !view.Valid(candidate) {
		pc.Reverts++
		return fallback
	}
	return candidate
}

// PassStat is the aggregated trace of one pass across all its runs in
// a deobfuscation (a pass in the fixpoint loop runs once per
// iteration; its stats accumulate).
type PassStat struct {
	// Pass is the pass name.
	Pass string
	// Runs is how many times the pass executed.
	Runs int
	// Duration is total wall-clock time spent inside the pass,
	// including nested payload layers unwrapped from within it
	// (cumulative time).
	Duration time.Duration
	// SelfDuration is Duration minus the time spent inside nested
	// payload layers re-entered from within the pass (the layers'
	// token/ast work runs under the enclosing ast pass). Summing
	// SelfDuration across passes approximates the run's wall clock;
	// summing Duration double-counts every unwrapped layer.
	SelfDuration time.Duration
	// BytesIn is the document size when the pass first ran.
	BytesIn int
	// BytesOut is the document size after the pass's latest run.
	BytesOut int
	// Reverts counts candidate rewrites rolled back inside this pass.
	Reverts int
	// CacheHits / CacheMisses are this pass's parse-cache requests
	// (per-run view accounting: exact even when batch workers share a
	// cache).
	CacheHits   int64
	CacheMisses int64
	// EvalHits / EvalMisses / EvalSkips are this pass's evaluation-cache
	// outcomes: hits replayed a memoized pure result, misses evaluated
	// and cached, skips evaluated but were uncacheable (impure piece,
	// failed run, or uncopyable values).
	EvalHits   int64
	EvalMisses int64
	EvalSkips  int64
}

// Trace accumulates PassStats in first-run order. It is not safe for
// concurrent use: a run's trace is confined to the run's goroutine.
type Trace struct {
	order  []string
	byName map[string]*PassStat
}

// NewTrace returns an empty Trace.
func NewTrace() *Trace {
	return &Trace{byName: make(map[string]*PassStat)}
}

// Add folds st into the trace entry named st.Pass. Counts and
// durations sum; BytesIn keeps the first value and BytesOut the latest.
func (t *Trace) Add(st PassStat) {
	agg, ok := t.byName[st.Pass]
	if !ok {
		first := st // only a first-seen pass allocates
		t.byName[st.Pass] = &first
		t.order = append(t.order, st.Pass)
		return
	}
	agg.Runs += st.Runs
	agg.Duration += st.Duration
	agg.SelfDuration += st.SelfDuration
	agg.BytesOut = st.BytesOut
	agg.Reverts += st.Reverts
	agg.CacheHits += st.CacheHits
	agg.CacheMisses += st.CacheMisses
	agg.EvalHits += st.EvalHits
	agg.EvalMisses += st.EvalMisses
	agg.EvalSkips += st.EvalSkips
}

// Stats returns the accumulated per-pass statistics in first-run order.
func (t *Trace) Stats() []PassStat {
	out := make([]PassStat, 0, len(t.order))
	for _, name := range t.order {
		out = append(out, *t.byName[name])
	}
	return out
}

// Run executes one pass and adds the execution to the trace: duration,
// self time, bytes in/out, reverts, and parse- and eval-cache outcomes.
func (t *Trace) Run(p Pass, pc *PassContext) {
	view := pc.Doc.View()
	hits0, misses0 := view.Hits, view.Misses
	var eh0, em0, es0 int64
	if pc.Eval != nil {
		eh0, em0, es0 = pc.Eval.Hits, pc.Eval.Misses, pc.Eval.Skips
	}
	reverts0 := pc.Reverts
	bytesIn := pc.Doc.Len()
	nested0 := pc.nestedTime
	start := time.Now()
	p.Run(pc)
	total := time.Since(start)
	// Self time excludes the nested payload layers processed inside this
	// execution; their own pass work would otherwise be attributed twice.
	self := total - (pc.nestedTime - nested0)
	if self < 0 {
		self = 0
	}
	st := PassStat{
		Pass:         p.Name,
		Runs:         1,
		Duration:     total,
		SelfDuration: self,
		BytesIn:      bytesIn,
		BytesOut:     pc.Doc.Len(),
		Reverts:      pc.Reverts - reverts0,
		CacheHits:    view.Hits - hits0,
		CacheMisses:  view.Misses - misses0,
	}
	if pc.Eval != nil {
		st.EvalHits, st.EvalMisses, st.EvalSkips = pc.Eval.Hits-eh0, pc.Eval.Misses-em0, pc.Eval.Skips-es0
	}
	t.Add(st)
}
