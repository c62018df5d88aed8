// Command deobserver runs the deobfuscation engine as an HTTP service.
//
// Usage:
//
//	deobserver [-addr :8713] [-workers N] [-queue N] [-timeout 30s] ...
//
// Endpoints:
//
//	POST /v1/deobfuscate  {"script": "..."}            one script
//	POST /v1/batch        {"scripts": [{"script":..}]} many scripts
//	GET  /healthz                                      liveness + drain state
//	GET  /statsz                                       aggregated serving stats
//	GET  /metrics                                      the same counters, Prometheus text format
//
// Overload resilience: -quota-rps/-quota-burst/-quota-buckets enable
// per-tenant token-bucket quotas keyed by the X-Api-Key header
// (429 ErrQuota with an honest Retry-After), and -heavy-cost /
// -shed-highwater tune cost-aware shedding (predicted-heavy requests
// answered 503 ErrShed once the admission window passes the high-water
// mark, so light traffic keeps flowing).
//
// The listen address is printed to stdout as "deobserver listening on
// ADDR" once the socket is bound, so -addr 127.0.0.1:0 (ephemeral
// port) is scriptable. On SIGINT/SIGTERM the server drains: new
// requests get 503, in-flight requests complete (bounded by
// -drain-timeout), then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/invoke-deobfuscation/invokedeob/internal/core"
	"github.com/invoke-deobfuscation/invokedeob/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "deobserver:", err)
		os.Exit(1)
	}
}

// run binds the listener, serves until ctx is canceled (signal), then
// drains and shuts down. Factored from main so tests can drive the
// full lifecycle with a cancelable context instead of process signals.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("deobserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8713", "listen address (host:port; port 0 picks an ephemeral port)")
		workers      = fs.Int("workers", 0, "concurrent engine workers (0 = GOMAXPROCS)")
		queue        = fs.Int("queue", 64, "admitted requests that may wait for a worker before 429")
		timeout      = fs.Duration("timeout", 30*time.Second, "default per-request processing deadline")
		maxTimeout   = fs.Duration("max-timeout", 2*time.Minute, "cap on the client-requested "+server.TimeoutHeader+" deadline")
		maxBody      = fs.Int64("max-body", 8<<20, "request body byte limit")
		maxScript    = fs.Int("max-script", 1<<20, "per-script byte limit")
		maxBatch     = fs.Int("max-batch", 64, "scripts per /v1/batch request")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
		jobs         = fs.Int("jobs", 0, "per-batch engine workers (0 = GOMAXPROCS)")
		scriptTO     = fs.Duration("script-timeout", 0, "per-script deadline inside /v1/batch (0 = request deadline only)")
		noEvalCache  = fs.Bool("no-eval-cache", false, "disable the shared evaluation cache")
		quotaRate    = fs.Float64("quota-rps", 0, "per-tenant quota in requests/second, keyed by "+server.APIKeyHeader+" (0 = quotas off)")
		quotaBurst   = fs.Float64("quota-burst", 0, "per-tenant token-bucket burst (0 = max(quota-rps, 1))")
		quotaBuckets = fs.Int("quota-buckets", 1024, "max tenant buckets tracked at once (LRU eviction beyond)")
		heavyCost    = fs.Float64("heavy-cost", 32768, "cost-estimate score at which a request is classified heavy (effective bytes)")
		shedHW       = fs.Float64("shed-highwater", 0.75, "admission-window occupancy fraction above which heavy requests are shed (negative = shedding off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := server.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		MaxBodyBytes:    *maxBody,
		MaxScriptBytes:  *maxScript,
		MaxBatchScripts: *maxBatch,
		QuotaRate:       *quotaRate,
		QuotaBurst:      *quotaBurst,
		QuotaMaxBuckets: *quotaBuckets,
		HeavyCost:       *heavyCost,
		ShedHighWater:   *shedHW,
		Engine: core.Options{
			Jobs:             *jobs,
			ScriptTimeout:    *scriptTO,
			DisableEvalCache: *noEvalCache,
		},
	}
	if *queue == 0 {
		cfg.QueueDepth = -1 // flag 0 means "no queue", Config 0 means default
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := server.New(cfg)
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Fprintf(stdout, "deobserver listening on %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: refuse new work first (503 + Retry-After via the
	// server's draining flag, visible on /healthz for load balancers),
	// let in-flight requests finish, then close the listener.
	fmt.Fprintln(stdout, "deobserver draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintf(stderr, "deobserver: drain incomplete: %v\n", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	<-serveErr // Serve has returned http.ErrServerClosed
	fmt.Fprintln(stdout, "deobserver stopped")
	return nil
}
