// Package server turns the deobfuscation engine into a long-lived HTTP
// service: deobfuscation-as-a-service for detection pipelines that
// stream PowerShell samples at it instead of shelling out per script.
//
// The design goals, in order:
//
//   - Shared amortization. All requests draw from one bounded parse
//     cache and one bounded evaluation cache, so the near-clone traffic
//     that dominates malware feeds (one builder, thousands of stagers)
//     parses and evaluates once per family instead of once per request.
//   - Admission control over queue growth. A bounded worker pool plus a
//     bounded admission queue; when both are full the server answers
//     429 with Retry-After immediately rather than buffering unbounded
//     work it cannot finish.
//   - Fairness across tenants. Per-tenant token-bucket quotas (keyed by
//     X-Api-Key, one shared anonymous bucket for unkeyed traffic) stop
//     one abusive or unlucky tenant from saturating the admission
//     window for everyone; quota rejections are 429 ErrQuota with a
//     Retry-After computed from the bucket's actual refill time, and
//     bucket count is LRU-bounded so key churn cannot exhaust memory.
//   - Cost-aware degradation. A cheap pre-scan (length, entropy,
//     encoded-blob density) classifies each request light or heavy;
//     once the admission window passes the shed high-water mark, heavy
//     requests are refused first (503 ErrShed) so cheap traffic keeps
//     flowing instead of everything collapsing together.
//   - Envelope enforcement per request. Every request runs under a
//     deadline (client-requested via the X-Deob-Timeout header, capped,
//     or the server default) and the PR 1 limits taxonomy; violations
//     come back as structured JSON errors with the taxonomy name and a
//     faithful 4xx/5xx mapping (limits.HTTPStatus).
//   - Graceful drain. Drain flips the server into refuse-new mode
//     (503 + Retry-After), waits for in-flight work, and leaves caches
//     intact, so a rolling restart never truncates a response.
//
// Endpoints: POST /v1/deobfuscate (one script), POST /v1/batch (many
// scripts, DeobfuscateBatch semantics), GET /healthz (liveness + drain
// state), GET /statsz (aggregated run stats, pass trace, cache hit
// rates), GET /metrics (the same counters in the Prometheus text
// format).
package server

import (
	"context"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"github.com/invoke-deobfuscation/invokedeob/internal/core"
	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
	"github.com/invoke-deobfuscation/invokedeob/internal/quota"

	// Register the standard language frontends with the engine driver.
	_ "github.com/invoke-deobfuscation/invokedeob/internal/frontends"
)

// TimeoutHeader is the request header carrying the client's requested
// processing deadline as a Go duration string ("500ms", "10s"). It is
// capped at Config.MaxTimeout; absent, Config.DefaultTimeout applies.
const TimeoutHeader = "X-Deob-Timeout"

// APIKeyHeader identifies the tenant for per-tenant quotas. Requests
// without it share one anonymous bucket, so unkeyed traffic is rate
// limited collectively rather than escaping quotas altogether.
const APIKeyHeader = "X-Api-Key"

// anonKey is the shared bucket key for requests without APIKeyHeader.
const anonKey = "anonymous"

// Config tunes the service. The zero value selects production-shaped
// defaults for every field.
type Config struct {
	// Workers bounds how many requests execute engine work
	// concurrently. Zero means GOMAXPROCS. A batch request occupies one
	// worker slot; its internal parallelism is governed by
	// Engine.Jobs.
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a
	// worker slot beyond the Workers currently executing. Zero means 64;
	// negative means no queue (beyond the executing workers).
	QueueDepth int
	// DefaultTimeout is the per-request processing deadline when the
	// client sends no TimeoutHeader. Zero means 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps the client-requested deadline so one caller
	// cannot park a worker for an hour. Zero means 2m.
	MaxTimeout time.Duration
	// MaxBodyBytes bounds the request body. Zero means 8 MiB.
	MaxBodyBytes int64
	// MaxScriptBytes bounds one script's length. Zero means 1 MiB.
	MaxScriptBytes int
	// MaxBatchScripts bounds the scripts per /v1/batch request. Zero
	// means 64.
	MaxBatchScripts int
	// QuotaRate is the per-tenant steady-state allowance in requests
	// per second (token-bucket refill rate), keyed by APIKeyHeader.
	// Zero or negative disables quotas.
	QuotaRate float64
	// QuotaBurst is the token-bucket capacity per tenant. Zero means
	// max(QuotaRate, 1).
	QuotaBurst float64
	// QuotaMaxBuckets bounds how many tenant buckets exist at once
	// (LRU eviction beyond it), so hostile key churn cannot exhaust
	// memory. Zero means 1024.
	QuotaMaxBuckets int
	// HeavyCost is the costEstimate score (effective bytes) at or
	// above which a request is classified heavy and becomes sheddable
	// under pressure. Zero means 32768.
	HeavyCost float64
	// ShedHighWater is the admission-window occupancy fraction (0..1]
	// at or above which heavy requests are shed. Zero means 0.75;
	// negative disables cost-aware shedding.
	ShedHighWater float64
	// Engine configures the underlying deobfuscator shared by all
	// requests.
	Engine core.Options
}

// withDefaults resolves the zero fields to the documented defaults.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxScriptBytes <= 0 {
		c.MaxScriptBytes = 1 << 20
	}
	if c.MaxBatchScripts <= 0 {
		c.MaxBatchScripts = 64
	}
	if c.QuotaBurst <= 0 && c.QuotaRate > 0 {
		c.QuotaBurst = c.QuotaRate
		if c.QuotaBurst < 1 {
			c.QuotaBurst = 1
		}
	}
	if c.QuotaMaxBuckets <= 0 {
		c.QuotaMaxBuckets = 1024
	}
	if c.HeavyCost == 0 {
		c.HeavyCost = 32768
	}
	if c.ShedHighWater == 0 {
		c.ShedHighWater = 0.75
	}
	return c
}

// Server is the deobfuscation service. Create with New, mount
// Handler() on an http.Server, and call Drain before exit.
type Server struct {
	cfg Config
	eng *core.Deobfuscator

	// cache and evalCache are the process-lifetime amortization pools
	// shared by every request (evalCache is nil when the engine option
	// disables evaluation memoization).
	cache     *pipeline.Cache
	evalCache *pipeline.EvalCache

	// admit bounds total admitted work: executing + queued. A failed
	// non-blocking send is the saturation signal (429).
	admit chan struct{}
	// slots is the worker pool: holding a token means executing engine
	// work. Waiting for a token is bounded by the request deadline.
	slots chan struct{}

	// quota is the per-tenant token-bucket limiter (nil when quotas
	// are disabled; a nil limiter allows everything).
	quota *quota.Limiter
	// shedThreshold is the admission-window occupancy (token count) at
	// or above which heavy requests are shed; cap(admit)+1 when
	// shedding is disabled.
	shedThreshold int

	// drainMu guards the draining flag against the in-flight WaitGroup:
	// requests register under the read lock, Drain flips the flag under
	// the write lock, so no request can slip in after the flip yet miss
	// the WaitGroup wait.
	drainMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	stats *serverStats

	// runSingle / runBatch execute engine work; tests substitute
	// deterministic fakes to exercise admission and drain without
	// timing dependence.
	runSingle func(ctx context.Context, lang, script string) (*core.Result, error)
	runBatch  func(ctx context.Context, inputs []core.BatchInput) []core.BatchResult
}

// New builds a Server from cfg (zero fields take defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		eng:   core.New(cfg.Engine),
		cache: pipeline.NewCache(0, 0),
		admit: make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		slots: make(chan struct{}, cfg.Workers),
		stats: newServerStats(),
		quota: quota.New(quota.Config{
			Rate:       cfg.QuotaRate,
			Burst:      cfg.QuotaBurst,
			MaxBuckets: cfg.QuotaMaxBuckets,
		}),
	}
	if cfg.ShedHighWater < 0 {
		s.shedThreshold = cap(s.admit) + 1 // unreachable: shedding off
	} else {
		s.shedThreshold = int(math.Ceil(cfg.ShedHighWater * float64(cap(s.admit))))
		if s.shedThreshold < 1 {
			s.shedThreshold = 1
		}
	}
	if !cfg.Engine.DisableEvalCache {
		s.evalCache = core.NewEvalCache(0, 0)
	}
	s.runSingle = func(ctx context.Context, lang, script string) (*core.Result, error) {
		return s.eng.DeobfuscateSharedLang(ctx, script, lang, s.cache, s.evalCache)
	}
	s.runBatch = func(ctx context.Context, inputs []core.BatchInput) []core.BatchResult {
		return s.eng.DeobfuscateBatchShared(ctx, inputs, s.cache, s.evalCache)
	}
	return s
}

// Handler returns the service's routing handler. Every response flows
// through the status-counting middleware so /statsz can report
// shed/429/503/504 rates for the load harness to scrape.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/deobfuscate", s.handleDeobfuscate)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return s.stats.countStatuses(mux)
}

// begin registers an in-flight request unless the server is draining.
func (s *Server) begin() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// end unregisters an in-flight request.
func (s *Server) end() { s.inflight.Done() }

// Draining reports whether the server has stopped accepting work.
func (s *Server) Draining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

// Drain flips the server into refuse-new mode and waits for every
// in-flight request to complete (bounded by ctx). In-flight work is
// never interrupted: a request admitted before the flip finishes and
// its response is delivered. Drain is idempotent; concurrent calls all
// wait for the same quiesce.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// requestContext derives the per-request processing deadline: the
// TimeoutHeader duration capped at MaxTimeout, or DefaultTimeout. The
// bool result reports header validity.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, bool) {
	d := s.cfg.DefaultTimeout
	if h := r.Header.Get(TimeoutHeader); h != "" {
		parsed, err := time.ParseDuration(h)
		if err != nil || parsed <= 0 {
			return nil, nil, false
		}
		d = parsed
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, true
}
