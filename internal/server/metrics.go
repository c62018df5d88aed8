package server

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricsContentType is the Prometheus text exposition format version
// this handler emits.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// latencyBuckets are the upper bounds (seconds) of the per-pass latency
// histograms: exponential-ish from 100µs to 10s, wide enough for both a
// trivial token pass and a hostile multi-layer recovery run.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// latencyHist is a fixed-bucket cumulative histogram in the Prometheus
// shape (counts[i] covers observations ≤ latencyBuckets[i]; the +Inf
// bucket is the total count). Guarded by serverStats.mu.
type latencyHist struct {
	counts []int64
	sum    float64
	total  int64
}

func newLatencyHist() *latencyHist {
	return &latencyHist{counts: make([]int64, len(latencyBuckets))}
}

func (h *latencyHist) observe(seconds float64) {
	for i, ub := range latencyBuckets {
		if seconds <= ub {
			h.counts[i]++
		}
	}
	h.sum += seconds
	h.total++
}

// escapeLabelValue escapes a Prometheus label value: backslash, double
// quote and newline, per the text exposition format.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// metricsWriter accumulates exposition lines with per-family headers.
type metricsWriter struct {
	b strings.Builder
}

func (m *metricsWriter) header(name, help, typ string) {
	fmt.Fprintf(&m.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (m *metricsWriter) val(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(&m.b, "%s%s %s\n", name, labels, strconv.FormatFloat(v, 'g', -1, 64))
}

// labeledCounts emits one counter family from a label→count map in
// sorted label order (deterministic scrapes).
func (m *metricsWriter) labeledCounts(name, help, label string, counts map[string]int64) {
	m.header(name, help, "counter")
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m.val(name, label+`="`+escapeLabelValue(k)+`"`, float64(counts[k]))
	}
}

// handleMetrics renders the serving and engine counters in the
// Prometheus text exposition format: the same aggregates /statsz
// reports as JSON, plus per-pass latency histograms, shaped for
// scraping instead of inspection.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.stats
	m := &metricsWriter{}

	st.mu.Lock()
	uptime := time.Since(st.start).Seconds()
	m.header("invokedeob_uptime_seconds", "Seconds since the server started.", "gauge")
	m.val("invokedeob_uptime_seconds", "", uptime)
	m.header("invokedeob_in_flight_requests", "Requests currently being served.", "gauge")
	m.val("invokedeob_in_flight_requests", "", float64(st.inFlight))

	m.labeledCounts("invokedeob_requests_total", "Requests received, by endpoint.", "endpoint", st.requests)
	m.labeledCounts("invokedeob_completed_total", "Requests completed, by endpoint.", "endpoint", st.completed)
	m.labeledCounts("invokedeob_rejected_total", "Requests rejected before engine work, by reason.", "reason", st.rejected)
	m.labeledCounts("invokedeob_errors_total", "Engine runs ending in a classified error, by class.", "class", st.errors)
	m.labeledCounts("invokedeob_responses_total", "Responses sent, by HTTP status code.", "code", st.statuses)
	m.labeledCounts("invokedeob_request_classes_total", "Admitted work by predicted cost class.", "class", st.classes)
	m.labeledCounts("invokedeob_runs_total", "Engine runs, by resolved language frontend.", "lang", st.langs)

	a := st.agg
	engine := []struct {
		name, help string
		v          float64
	}{
		{"invokedeob_tokens_normalized_total", "Tokens normalized by the token phase.", float64(a.TokensNormalized)},
		{"invokedeob_pieces_attempted_total", "Recoverable pieces whose evaluation was attempted.", float64(a.PiecesAttempted)},
		{"invokedeob_pieces_recovered_total", "Recoverable pieces replaced by their literal value.", float64(a.PiecesRecovered)},
		{"invokedeob_variables_traced_total", "Variable assignments recorded by tracing.", float64(a.VariablesTraced)},
		{"invokedeob_variables_inlined_total", "Variable reads replaced by traced values.", float64(a.VariablesInlined)},
		{"invokedeob_layers_unwrapped_total", "Obfuscation layers unwrapped.", float64(a.LayersUnwrapped)},
		{"invokedeob_identifiers_renamed_total", "Identifiers renamed in the final passes.", float64(a.IdentifiersRenamed)},
		{"invokedeob_iterations_total", "Fixpoint iterations executed.", float64(a.Iterations)},
		{"invokedeob_pieces_timedout_total", "Piece evaluations cut off by deadline or cancelation.", float64(a.PiecesTimedOut)},
		{"invokedeob_pieces_panicked_total", "Piece evaluations stopped at an isolation barrier.", float64(a.PiecesPanicked)},
		{"invokedeob_pieces_overbudget_total", "Piece evaluations exceeding the memory budget.", float64(a.PiecesOverBudget)},
		{"invokedeob_eval_cache_hits_total", "Piece evaluations answered from the evaluation cache.", float64(a.EvalCacheHits)},
		{"invokedeob_eval_cache_misses_total", "Piece evaluations that ran and were inserted into the cache.", float64(a.EvalCacheMisses)},
		{"invokedeob_eval_cache_skips_total", "Piece evaluations that ran but were not cacheable.", float64(a.EvalCacheSkips)},
	}
	for _, e := range engine {
		m.header(e.name, e.help, "counter")
		m.val(e.name, "", e.v)
	}

	passes := st.passes.Stats()
	m.header("invokedeob_pass_runs_total", "Pass executions, by pass.", "counter")
	for _, p := range passes {
		m.val("invokedeob_pass_runs_total", `pass="`+escapeLabelValue(p.Pass)+`"`, float64(p.Runs))
	}
	m.header("invokedeob_pass_reverts_total", "Pass outputs reverted by validation, by pass.", "counter")
	for _, p := range passes {
		m.val("invokedeob_pass_reverts_total", `pass="`+escapeLabelValue(p.Pass)+`"`, float64(p.Reverts))
	}

	m.header("invokedeob_pass_duration_seconds",
		"Per-run cumulative time spent in each pass.", "histogram")
	for _, p := range passes {
		h, ok := st.passLat[p.Pass]
		if !ok {
			continue
		}
		lbl := `pass="` + escapeLabelValue(p.Pass) + `"`
		for i, ub := range latencyBuckets {
			m.val("invokedeob_pass_duration_seconds_bucket",
				lbl+`,le="`+strconv.FormatFloat(ub, 'g', -1, 64)+`"`, float64(h.counts[i]))
		}
		m.val("invokedeob_pass_duration_seconds_bucket", lbl+`,le="+Inf"`, float64(h.total))
		m.val("invokedeob_pass_duration_seconds_sum", lbl, h.sum)
		m.val("invokedeob_pass_duration_seconds_count", lbl, float64(h.total))
	}
	st.mu.Unlock()

	pc := s.cache.Stats()
	var eh, em, ev float64
	var een, eby float64
	hasEval := s.evalCache != nil
	if hasEval {
		ec := s.evalCache.Stats()
		eh, em, ev = float64(ec.Hits), float64(ec.Misses), float64(ec.Evictions)
		een, eby = float64(ec.Entries), float64(ec.Bytes)
	}
	cacheCounter := func(name, help string, parse, eval float64) {
		m.header(name, help, "counter")
		m.val(name, `cache="parse"`, parse)
		if hasEval {
			m.val(name, `cache="eval"`, eval)
		}
	}
	cacheCounter("invokedeob_cache_hits_total", "Shared cache hits.", float64(pc.Hits), eh)
	cacheCounter("invokedeob_cache_misses_total", "Shared cache misses.", float64(pc.Misses), em)
	cacheCounter("invokedeob_cache_evictions_total", "Shared cache evictions.", float64(pc.Evictions), ev)
	m.header("invokedeob_cache_entries", "Shared cache entries.", "gauge")
	m.val("invokedeob_cache_entries", `cache="parse"`, float64(pc.Entries))
	if hasEval {
		m.val("invokedeob_cache_entries", `cache="eval"`, een)
	}
	m.header("invokedeob_cache_bytes", "Shared cache resident bytes.", "gauge")
	m.val("invokedeob_cache_bytes", `cache="parse"`, float64(pc.Bytes))
	if hasEval {
		m.val("invokedeob_cache_bytes", `cache="eval"`, eby)
	}

	w.Header().Set("Content-Type", metricsContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(m.b.String()))
}
