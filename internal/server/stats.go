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

// serverStats aggregates per-request engine outcomes across the
// server's lifetime. One mutex is plenty: the critical sections are a
// few integer adds, dwarfed by the engine work between them.
type serverStats struct {
	mu        sync.Mutex
	start     time.Time
	requests  map[string]int64
	completed map[string]int64
	rejected  map[string]int64
	errors    map[string]int64
	// statuses counts every response by HTTP status code (keyed by its
	// decimal string for direct JSON use), fed by the countStatuses
	// middleware: the scrape surface for shed/429/503/504 rates.
	statuses map[string]int64
	// classes counts cost classifications of admitted work ("light",
	// "heavy") plus "heavy_shed" for heavy requests refused under
	// pressure, so operators can see the degradation order acting.
	classes map[string]int64
	// langs counts engine runs by resolved language frontend (batch
	// items included), so mixed-language traffic is attributable.
	langs    map[string]int64
	inFlight int64
	// agg sums every run's Stats (batch items included), so statsz
	// exposes fleet-level pieces/layers/cache counters, not just the
	// last request's.
	agg core.Stats
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
		start:     time.Now(),
		requests:  make(map[string]int64),
		completed: make(map[string]int64),
		rejected:  make(map[string]int64),
		errors:    make(map[string]int64),
		statuses:  make(map[string]int64),
		classes:   make(map[string]int64),
		langs:     make(map[string]int64),
		passes:    pipeline.NewTrace(),
		passLat:   make(map[string]*latencyHist),
	}
}

func (st *serverStats) request(endpoint string) {
	st.mu.Lock()
	st.requests[endpoint]++
	st.inFlight++
	st.mu.Unlock()
}

func (st *serverStats) complete(endpoint string) {
	st.mu.Lock()
	st.completed[endpoint]++
	st.mu.Unlock()
}

func (st *serverStats) reject(reason string) {
	st.mu.Lock()
	st.rejected[reason]++
	st.mu.Unlock()
}

func (st *serverStats) observeError(name string) {
	st.mu.Lock()
	st.errors[name]++
	st.mu.Unlock()
}

func (st *serverStats) observeClass(class string) {
	st.mu.Lock()
	st.classes[class]++
	st.mu.Unlock()
}

func (st *serverStats) observeLang(lang string) {
	st.mu.Lock()
	st.langs[lang]++
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
		st.mu.Lock()
		st.statuses[strconv.Itoa(sw.status)]++
		st.mu.Unlock()
	})
}

// requestDone decrements the in-flight gauge; deferred by handlers
// alongside admission release.
func (st *serverStats) requestDone() {
	st.mu.Lock()
	st.inFlight--
	st.mu.Unlock()
}

// observeRun folds one run's Stats and PassTrace into the aggregates.
func (st *serverStats) observeRun(res *core.Result) {
	st.mu.Lock()
	defer st.mu.Unlock()
	a, s := &st.agg, res.Stats
	a.TokensNormalized += s.TokensNormalized
	a.PiecesAttempted += s.PiecesAttempted
	a.PiecesRecovered += s.PiecesRecovered
	a.VariablesTraced += s.VariablesTraced
	a.VariablesInlined += s.VariablesInlined
	a.LayersUnwrapped += s.LayersUnwrapped
	a.IdentifiersRenamed += s.IdentifiersRenamed
	a.Iterations += s.Iterations
	a.Duration += s.Duration
	a.PiecesTimedOut += s.PiecesTimedOut
	a.PiecesPanicked += s.PiecesPanicked
	a.PiecesOverBudget += s.PiecesOverBudget
	a.TimedOut = a.TimedOut || s.TimedOut
	a.EvalCacheHits += s.EvalCacheHits
	a.EvalCacheMisses += s.EvalCacheMisses
	a.EvalCacheSkips += s.EvalCacheSkips
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
	// can see each frontend's amortization payoff separately.
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
	UptimeSeconds float64          `json:"uptime_seconds"`
	Draining      bool             `json:"draining"`
	InFlight      int64            `json:"in_flight"`
	Workers       int              `json:"workers"`
	QueueDepth    int              `json:"queue_depth"`
	Requests      map[string]int64 `json:"requests"`
	Completed     map[string]int64 `json:"completed"`
	Rejected      map[string]int64 `json:"rejected"`
	Errors        map[string]int64 `json:"errors"`
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
	s.stats.mu.Lock()
	inFlight := s.stats.inFlight
	s.stats.mu.Unlock()
	body := healthzBody{Status: "ok", Draining: draining, InFlight: inFlight}
	status := http.StatusOK
	if draining {
		body.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

// handleStatsz reports the aggregated serving counters as JSON.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	st := s.stats
	st.mu.Lock()
	body := statszBody{
		UptimeSeconds: time.Since(st.start).Seconds(),
		Draining:      s.Draining(),
		InFlight:      st.inFlight,
		Workers:       s.cfg.Workers,
		QueueDepth:    s.cfg.QueueDepth,
		Requests:      copyCounts(st.requests),
		Completed:     copyCounts(st.completed),
		Rejected:      copyCounts(st.rejected),
		Errors:        copyCounts(st.errors),
		StatusCounts:  copyCounts(st.statuses),
		Classes:       copyCounts(st.classes),
		Langs:         copyCounts(st.langs),
		Stats:         st.agg,
		PassTrace:     st.passes.Stats(),
	}
	st.mu.Unlock()
	if s.quota != nil {
		q := s.quota.Stats()
		body.Quota = &quotaStatsBody{
			RatePerSec: q.Rate, Burst: q.Burst,
			Buckets: q.Buckets, MaxBuckets: q.MaxBuckets,
			Allowed: q.Allowed, Rejected: q.Rejected, Evictions: q.Evictions,
		}
	}
	pc := s.cache.Stats()
	body.ParseCache = cacheStatsBody{
		Hits: pc.Hits, Misses: pc.Misses, Evictions: pc.Evictions,
		Entries: pc.Entries, Bytes: pc.Bytes, HitRate: pc.HitRate(),
	}
	if byLang := s.cache.LangStats(); len(byLang) > 0 {
		body.ParseCache.ByLang = make(map[string]langCacheStatsBody, len(byLang))
		for lang, ls := range byLang {
			body.ParseCache.ByLang[lang] = langCacheStatsBody{
				Hits: ls.Hits, Misses: ls.Misses, HitRate: ls.HitRate(),
			}
		}
	}
	if s.evalCache != nil {
		ec := s.evalCache.Stats()
		body.EvalCache = &cacheStatsBody{
			Hits: ec.Hits, Misses: ec.Misses, Skips: ec.Skips,
			Evictions: ec.Evictions, Entries: ec.Entries, Bytes: ec.Bytes,
			HitRate: ec.HitRate(),
		}
		if byLang := s.evalCache.LangStats(); len(byLang) > 0 {
			body.EvalCache.ByLang = make(map[string]langCacheStatsBody, len(byLang))
			for lang, ls := range byLang {
				body.EvalCache.ByLang[lang] = langCacheStatsBody{
					Hits: ls.Hits, Misses: ls.Misses, Skips: ls.Skips,
					HitRate: ls.HitRate(),
				}
			}
		}
	}
	writeJSON(w, http.StatusOK, body)
}

func copyCounts(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
