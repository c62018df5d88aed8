package server

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/invoke-deobfuscation/invokedeob/internal/core"
	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
)

// Endpoint and rejection labels for the counters.
const (
	endpointDeobfuscate = "deobfuscate"
	endpointBatch       = "batch"

	rejectSaturated = "saturated"
	rejectDraining  = "draining"
	rejectQuota     = "quota"
	rejectShedHeavy = "shed-heavy"
)

// family is one labelled counter family. The table below names each
// family once: the /statsz field that reports it, and the name, help
// text and label /metrics renders it with.
type family struct {
	statsz            func(*statszBody) *map[string]int64
	name, help, label string
}

// The labelled counter families, in /metrics order.
var (
	famRequests = &family{func(b *statszBody) *map[string]int64 { return &b.Requests },
		"invokedeob_requests_total", "Requests received, by endpoint.", "endpoint"}
	famCompleted = &family{func(b *statszBody) *map[string]int64 { return &b.Completed },
		"invokedeob_completed_total", "Requests completed, by endpoint.", "endpoint"}
	famRejected = &family{func(b *statszBody) *map[string]int64 { return &b.Rejected },
		"invokedeob_rejected_total", "Requests rejected before engine work, by reason.", "reason"}
	famErrors = &family{func(b *statszBody) *map[string]int64 { return &b.Errors },
		"invokedeob_errors_total", "Engine runs ending in a classified error, by class.", "class"}
	famStatuses = &family{func(b *statszBody) *map[string]int64 { return &b.StatusCounts },
		"invokedeob_responses_total", "Responses sent, by HTTP status code.", "code"}
	famClasses = &family{func(b *statszBody) *map[string]int64 { return &b.Classes },
		"invokedeob_request_classes_total", "Admitted work by predicted cost class.", "class"}
	famRuns = &family{func(b *statszBody) *map[string]int64 { return &b.Langs },
		"invokedeob_runs_total", "Engine runs, by resolved language frontend.", "lang"}

	families = []*family{famRequests, famCompleted, famRejected, famErrors, famStatuses, famClasses, famRuns}
)

// familyLabel keys one counter: a family and one of its label values.
type familyLabel struct {
	f     *family
	label string
}

// serverStats aggregates per-request outcomes across the server's
// lifetime. One mutex is plenty: the critical sections are a few
// integer adds, dwarfed by the engine work between them.
type serverStats struct {
	mu    sync.Mutex
	start time.Time
	// counts holds every labelled family's counters.
	counts map[familyLabel]int64
	// agg sums every run's Stats (batch items included), so statsz
	// exposes fleet-level pieces/layers/cache counters, not just the
	// last request's. byLang sums them per resolved language: the
	// caches' by_lang slices are read from it.
	agg    core.Stats
	byLang map[string]core.Stats
	// passes folds every run's PassTrace by pass name, in first-seen
	// order, with BytesIn/BytesOut zeroed (per-run sizes do not sum).
	passes *pipeline.Trace
	// passLat holds per-pass latency histograms (one observation per
	// run and pass: that run's cumulative duration in the pass), the
	// scrape surface behind /metrics' *_bucket series.
	passLat map[string]*latencyHist
}

func newServerStats() *serverStats {
	return &serverStats{
		start:   time.Now(),
		counts:  make(map[familyLabel]int64),
		byLang:  make(map[string]core.Stats),
		passes:  pipeline.NewTrace(),
		passLat: make(map[string]*latencyHist),
	}
}

// count adds one to family f's counter for label.
func (st *serverStats) count(f *family, label string) {
	st.mu.Lock()
	st.counts[familyLabel{f, label}]++
	st.mu.Unlock()
}

// statusWriter records the status code a handler wrote (200 when the
// handler never called WriteHeader explicitly).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// countStatuses wraps next so every response increments the per-status
// counter, regardless of which rejection or error path produced it.
func (st *serverStats) countStatuses(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		st.count(famStatuses, strconv.Itoa(sw.status))
	})
}

// observeRun folds one run's Stats and PassTrace into the aggregates.
func (st *serverStats) observeRun(res *core.Result) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.agg.Add(res.Stats)
	sum := st.byLang[res.Lang]
	sum.Add(res.Stats)
	st.byLang[res.Lang] = sum
	for _, p := range res.PassTrace {
		h, ok := st.passLat[p.Pass]
		if !ok {
			h = newLatencyHist()
			st.passLat[p.Pass] = h
		}
		h.observe(p.Duration.Seconds())
		p.BytesIn, p.BytesOut = 0, 0
		st.passes.Add(p)
	}
}

// cacheStatsBody is the wire shape of one cache's counters.
type cacheStatsBody struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Skips     int64   `json:"skips,omitempty"`
	Evictions int64   `json:"evictions"`
	Entries   int     `json:"entries"`
	Bytes     int64   `json:"bytes"`
	HitRate   float64 `json:"hit_rate"`
	// ByLang attributes the cache's traffic to language frontends
	// (entries are namespaced per frontend), so a mixed-language fleet
	// can see each frontend's amortization payoff separately. It sums
	// the cache counters of the runs that returned a result, so a
	// request refused for invalid syntax counts in the totals only. A
	// language with no traffic in this cache has no slice.
	ByLang map[string]langCacheStatsBody `json:"by_lang,omitempty"`
}

// langCacheStatsBody is one frontend's slice of a cache's traffic.
type langCacheStatsBody struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	Skips   int64   `json:"skips,omitempty"`
	HitRate float64 `json:"hit_rate"`
}

// statszBody is the GET /statsz response.
type statszBody struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`
	// InFlight is the admission window's occupancy: requests admitted
	// and not yet finished, executing or queued.
	InFlight   int64            `json:"in_flight"`
	Workers    int              `json:"workers"`
	QueueDepth int              `json:"queue_depth"`
	Requests   map[string]int64 `json:"requests"`
	Completed  map[string]int64 `json:"completed"`
	Rejected   map[string]int64 `json:"rejected"`
	Errors     map[string]int64 `json:"errors"`
	// StatusCounts counts every response by HTTP status code — the
	// scrape surface the load harness uses for shed/429/503/504 rates.
	StatusCounts map[string]int64 `json:"status_counts"`
	// Classes counts admitted work by predicted cost class ("light",
	// "heavy") plus "heavy_shed" refusals under pressure.
	Classes map[string]int64 `json:"classes"`
	// Langs counts engine runs by resolved language frontend (batch
	// items included).
	Langs map[string]int64 `json:"langs"`
	// Quota reports the per-tenant limiter, when enabled.
	Quota *quotaStatsBody `json:"quota,omitempty"`
	// Stats is the engine work summed over every run the server
	// performed (same struct as the library's per-run Stats).
	Stats core.Stats `json:"stats"`
	// PassTrace is the per-pass aggregate across all runs (BytesIn/Out
	// zeroed: per-run sizes do not sum meaningfully).
	PassTrace []pipeline.PassStat `json:"pass_trace"`
	// ParseCache / EvalCache are the shared amortization pools — the
	// hit rates here are the serving payoff of sharing them across
	// request boundaries.
	ParseCache cacheStatsBody  `json:"parse_cache"`
	EvalCache  *cacheStatsBody `json:"eval_cache,omitempty"`
}

// quotaStatsBody is the wire shape of the per-tenant limiter's state.
type quotaStatsBody struct {
	RatePerSec float64 `json:"rate_per_sec"`
	Burst      float64 `json:"burst"`
	Buckets    int     `json:"buckets"`
	MaxBuckets int     `json:"max_buckets"`
	Allowed    int64   `json:"allowed"`
	Rejected   int64   `json:"rejected"`
	Evictions  int64   `json:"evictions"`
}

// healthzBody is the GET /healthz response.
type healthzBody struct {
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
	InFlight int64  `json:"in_flight"`
}

// handleHealthz reports liveness: 200 while serving, 503 once draining
// so load balancers stop routing here during shutdown.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	draining := s.Draining()
	body := healthzBody{Status: "ok", Draining: draining, InFlight: int64(len(s.admit))}
	status := http.StatusOK
	if draining {
		body.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

// snapshot is one read of every serving counter. /statsz renders body
// as JSON; /metrics renders body and passLat in the Prometheus text
// format.
type snapshot struct {
	body    statszBody
	passLat map[string]latencyHist
}

// snapshot reads the serving counters under the stats lock once, then
// the quota limiter and both caches.
func (s *Server) snapshot() snapshot {
	st := s.stats
	b := statszBody{
		Draining:   s.Draining(),
		InFlight:   int64(len(s.admit)),
		Workers:    s.cfg.Workers,
		QueueDepth: s.cfg.QueueDepth,
	}
	for _, f := range families {
		*f.statsz(&b) = make(map[string]int64)
	}
	st.mu.Lock()
	b.UptimeSeconds = time.Since(st.start).Seconds()
	for k, n := range st.counts {
		(*k.f.statsz(&b))[k.label] = n
	}
	b.Stats = st.agg
	b.PassTrace = st.passes.Stats()
	passLat := make(map[string]latencyHist, len(st.passLat))
	for name, h := range st.passLat {
		passLat[name] = h.clone()
	}
	parseByLang := make(map[string]pipeline.CacheStats, len(st.byLang))
	evalByLang := make(map[string]pipeline.CacheStats, len(st.byLang))
	for lang, sum := range st.byLang {
		parseByLang[lang] = pipeline.CacheStats{Hits: sum.ParseCacheHits, Misses: sum.ParseCacheMisses}
		evalByLang[lang] = pipeline.CacheStats{Hits: sum.EvalCacheHits, Misses: sum.EvalCacheMisses, Skips: sum.EvalCacheSkips}
	}
	st.mu.Unlock()
	if s.quota != nil {
		q := s.quota.Stats()
		b.Quota = &quotaStatsBody{
			RatePerSec: q.Rate, Burst: q.Burst,
			Buckets: q.Buckets, MaxBuckets: q.MaxBuckets,
			Allowed: q.Allowed, Rejected: q.Rejected, Evictions: q.Evictions,
		}
	}
	b.ParseCache = cacheBody(s.cache.Stats(), parseByLang)
	if s.evalCache != nil {
		ec := cacheBody(s.evalCache.Stats(), evalByLang)
		b.EvalCache = &ec
	}
	return snapshot{body: b, passLat: passLat}
}

// cacheBody is the wire shape of a cache snapshot, with a slice for
// each language that has traffic in byLang.
func cacheBody(cs pipeline.CacheStats, byLang map[string]pipeline.CacheStats) cacheStatsBody {
	body := cacheStatsBody{
		Hits: cs.Hits, Misses: cs.Misses, Skips: cs.Skips,
		Evictions: cs.Evictions, Entries: cs.Entries, Bytes: cs.Bytes,
		HitRate: cs.HitRate(),
	}
	for lang, ls := range byLang {
		if ls.Hits+ls.Misses+ls.Skips == 0 {
			continue
		}
		if body.ByLang == nil {
			body.ByLang = make(map[string]langCacheStatsBody)
		}
		body.ByLang[lang] = langCacheStatsBody{Hits: ls.Hits, Misses: ls.Misses, Skips: ls.Skips, HitRate: ls.HitRate()}
	}
	return body
}

// handleStatsz reports the serving counters as JSON.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshot().body)
}
