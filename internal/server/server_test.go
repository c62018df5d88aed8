package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/invoke-deobfuscation/invokedeob/internal/core"
	"github.com/invoke-deobfuscation/invokedeob/internal/limits"
)

// postResult is one POST's decoded outcome.
type postResult struct {
	status     int
	eb         errorBody // decoded only for >=400 responses
	raw        []byte
	retryAfter string
}

// doPost posts body to url. Goroutine-safe (no testing.T): helpers that
// run inside worker goroutines must not call t.Fatal.
func doPost(client *http.Client, url, body string, header map[string]string) (postResult, error) {
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return postResult{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		return postResult{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return postResult{}, err
	}
	pr := postResult{status: resp.StatusCode, raw: raw, retryAfter: resp.Header.Get("Retry-After")}
	if resp.StatusCode >= 400 {
		if err := json.Unmarshal(raw, &pr.eb); err != nil {
			return pr, fmt.Errorf("status %d with undecodable error body %q: %v", resp.StatusCode, raw, err)
		}
	}
	return pr, nil
}

// postJSON is doPost for the test's main goroutine: transport failures
// end the test.
func postJSON(t *testing.T, client *http.Client, url string, body string, header map[string]string) postResult {
	t.Helper()
	pr, err := doPost(client, url, body, header)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func scriptBody(script string) string {
	b, _ := json.Marshal(scriptRequest{Script: script})
	return string(b)
}

// blockingServer returns a server whose engine work blocks until the
// returned release func is called, so admission and drain behavior can
// be exercised without timing dependence. The release func is safe to
// call multiple times.
func blockingServer(t *testing.T, cfg Config) (*Server, func(), chan struct{}) {
	t.Helper()
	s := New(cfg)
	block := make(chan struct{})
	started := make(chan struct{}, 64)
	s.runSingle = func(ctx context.Context, lang, script string) (*core.Result, error) {
		started <- struct{}{}
		select {
		case <-block:
			return &core.Result{Script: script}, nil
		case <-ctx.Done():
			return nil, limits.FromContext(ctx.Err())
		}
	}
	released := false
	release := func() {
		if !released {
			released = true
			close(block)
		}
	}
	t.Cleanup(release)
	return s, release, started
}

// TestAdmissionControl is the table-driven saturation suite: a server
// with one worker and no queue rejects the overflow request with 429 +
// Retry-After while the in-flight one completes untouched.
func TestAdmissionControl(t *testing.T) {
	cases := []struct {
		name       string
		queueDepth int // -1 = no queue
		inFlight   int // concurrent blocked requests before the probe
		wantStatus int
		wantName   string
	}{
		{"worker busy, no queue -> saturated", -1, 1, http.StatusTooManyRequests, nameSaturated},
		{"worker busy, queue of one full -> saturated", 1, 2, http.StatusTooManyRequests, nameSaturated},
		{"queue has room -> admitted and served", 1, 1, http.StatusOK, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, release, started := blockingServer(t, Config{Workers: 1, QueueDepth: tc.queueDepth})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			// Fill the worker (and optionally the queue) with blocked work.
			resCh := make(chan int, tc.inFlight)
			for i := 0; i < tc.inFlight; i++ {
				go func() {
					pr, err := doPost(ts.Client(), ts.URL+"/v1/deobfuscate", scriptBody("Write-Host busy"), nil)
					if err != nil {
						t.Error(err)
					}
					resCh <- pr.status
				}()
			}
			// Wait until the first request holds the single worker slot;
			// queued ones sit in the admission window, which fills
			// synchronously before body decode, so a short settle is
			// enough for them to take their tokens.
			<-started
			waitFor(t, func() bool { return len(s.admit) == min(tc.inFlight, cap(s.admit)) })

			probe := make(chan postResult, 1)
			go func() {
				pr, err := doPost(ts.Client(), ts.URL+"/v1/deobfuscate", scriptBody("Write-Host probe"), nil)
				if err != nil {
					t.Error(err)
				}
				probe <- pr
			}()
			if tc.wantStatus == http.StatusOK {
				release() // let the pool drain so the probe is served
			}
			pr := <-probe
			if pr.status != tc.wantStatus {
				t.Fatalf("probe status = %d, want %d", pr.status, tc.wantStatus)
			}
			if tc.wantName != "" {
				if pr.eb.Error.Name != tc.wantName {
					t.Errorf("error name = %q, want %q", pr.eb.Error.Name, tc.wantName)
				}
				if pr.retryAfter == "" {
					t.Error("429 without a Retry-After header")
				}
				if pr.eb.Error.Status != tc.wantStatus {
					t.Errorf("body status echo = %d, want %d", pr.eb.Error.Status, tc.wantStatus)
				}
			}
			release()
			for i := 0; i < tc.inFlight; i++ {
				if got := <-resCh; got != http.StatusOK {
					t.Errorf("in-flight request %d finished with %d, want 200", i, got)
				}
			}
		})
	}
}

// TestDeadlineTaxonomy exercises the per-request deadline paths: both
// an expired deadline while queued and one that fires inside the
// engine surface ErrDeadline (the limits taxonomy name) in the JSON
// body with a 504.
func TestDeadlineTaxonomy(t *testing.T) {
	t.Run("deadline inside engine run", func(t *testing.T) {
		// Real engine, immediately-expired deadline: the run's envelope
		// check trips before any work, the classic ErrDeadline path.
		s := New(Config{Workers: 1})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		pr := postJSON(t, ts.Client(), ts.URL+"/v1/deobfuscate",
			scriptBody("Write-Host hi"), map[string]string{TimeoutHeader: "1ns"})
		if pr.status != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 504", pr.status)
		}
		if pr.eb.Error.Name != "ErrDeadline" {
			t.Errorf("error name = %q, want ErrDeadline", pr.eb.Error.Name)
		}
	})
	t.Run("deadline while queued for a worker", func(t *testing.T) {
		s, release, started := blockingServer(t, Config{Workers: 1, QueueDepth: 4})
		defer release()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		go doPost(ts.Client(), ts.URL+"/v1/deobfuscate", scriptBody("Write-Host busy"), nil)
		<-started // worker slot held
		pr := postJSON(t, ts.Client(), ts.URL+"/v1/deobfuscate",
			scriptBody("Write-Host queued"), map[string]string{TimeoutHeader: "30ms"})
		if pr.status != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 504", pr.status)
		}
		if pr.eb.Error.Name != "ErrDeadline" {
			t.Errorf("error name = %q, want ErrDeadline", pr.eb.Error.Name)
		}
		// Release before the deferred ts.Close so it does not wait out
		// the 30s default deadline of the still-blocked busy request.
		release()
	})
	t.Run("client deadline capped at MaxTimeout", func(t *testing.T) {
		s := New(Config{MaxTimeout: 20 * time.Millisecond})
		s.runSingle = func(ctx context.Context, lang, script string) (*core.Result, error) {
			dl, ok := ctx.Deadline()
			if !ok {
				t.Error("no deadline on request context")
			}
			if time.Until(dl) > 25*time.Millisecond {
				t.Errorf("deadline %s away; client bypassed the %s cap", time.Until(dl), 20*time.Millisecond)
			}
			return &core.Result{Script: script}, nil
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		pr := postJSON(t, ts.Client(), ts.URL+"/v1/deobfuscate",
			scriptBody("Write-Host hi"), map[string]string{TimeoutHeader: "1h"})
		if pr.status != http.StatusOK {
			t.Fatalf("status = %d, want 200", pr.status)
		}
	})
}

// TestGracefulDrain verifies the shutdown contract: once Drain is
// called new requests are refused with 503 while the in-flight request
// runs to completion and gets its full 200 response, and Drain returns
// only after that completion.
func TestGracefulDrain(t *testing.T) {
	s, release, started := blockingServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inFlightDone := make(chan int, 1)
	go func() {
		pr, err := doPost(ts.Client(), ts.URL+"/v1/deobfuscate", scriptBody("Write-Host inflight"), nil)
		if err != nil {
			t.Error(err)
		}
		var rb resultBody
		if pr.status == http.StatusOK {
			if err := json.Unmarshal(pr.raw, &rb); err != nil || rb.Script != "Write-Host inflight" {
				t.Errorf("in-flight response corrupted by drain: %q err=%v", pr.raw, err)
			}
		}
		inFlightDone <- pr.status
	}()
	<-started

	drainDone := make(chan error, 1)
	go func() { drainDone <- s.Drain(context.Background()) }()
	waitFor(t, s.Draining)

	// New work is refused while the old request is still running.
	pr := postJSON(t, ts.Client(), ts.URL+"/v1/deobfuscate", scriptBody("Write-Host late"), nil)
	if pr.status != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status = %d, want 503", pr.status)
	}
	if pr.eb.Error.Name != nameDraining {
		t.Errorf("error name = %q, want %q", pr.eb.Error.Name, nameDraining)
	}
	if pr.retryAfter == "" {
		t.Error("503 during drain without a Retry-After header")
	}
	// Health flips to draining for load balancers.
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hb healthzBody
	if err := json.NewDecoder(hresp.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable || hb.Status != "draining" {
		t.Errorf("healthz during drain = %d %q, want 503 draining", hresp.StatusCode, hb.Status)
	}

	// Drain must still be waiting on the in-flight request.
	select {
	case err := <-drainDone:
		t.Fatalf("Drain returned (%v) with a request still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}

	release()
	if got := <-inFlightDone; got != http.StatusOK {
		t.Errorf("in-flight request finished with %d, want 200", got)
	}
	if err := <-drainDone; err != nil {
		t.Errorf("Drain = %v, want nil", err)
	}

	// A Drain bounded by an already-short context reports the timeout.
	s2, release2, started2 := blockingServer(t, Config{Workers: 1})
	defer release2()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	go doPost(ts2.Client(), ts2.URL+"/v1/deobfuscate", scriptBody("Write-Host stuck"), nil)
	<-started2
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s2.Drain(ctx); err == nil {
		t.Error("Drain with stuck in-flight work and expired budget returned nil")
	}
	// Unblock the stuck request before ts2.Close, which waits for it.
	release2()
}

// TestRestartStartsCold: a server's caches live as long as it does. A
// server built after another one drained starts with empty caches, so
// the script the first one served is a parse miss again (DESIGN §10).
func TestRestartStartsCold(t *testing.T) {
	const script = `Write-Host ('re' + 'start')`
	var misses [2]int64
	for life := range misses {
		s := New(Config{})
		ts := httptest.NewServer(s.Handler())
		var sb statszBody
		getJSON(t, ts, "/statsz", &sb)
		if sb.ParseCache.Entries != 0 || sb.EvalCache != nil && sb.EvalCache.Entries != 0 {
			t.Errorf("life %d starts with cached entries: parse %+v, eval %+v", life, sb.ParseCache, sb.EvalCache)
		}
		if pr := postJSON(t, ts.Client(), ts.URL+"/v1/deobfuscate", scriptBody(script), nil); pr.status != http.StatusOK {
			t.Fatalf("life %d: deobfuscate = %d: %s", life, pr.status, pr.raw)
		}
		getJSON(t, ts, "/statsz", &sb)
		misses[life] = sb.ParseCache.Misses
		if err := s.Drain(context.Background()); err != nil {
			t.Fatalf("life %d: drain: %v", life, err)
		}
		ts.Close()
	}
	if misses[0] == 0 || misses[1] != misses[0] {
		t.Errorf("parse misses per life = %v, want the same non-zero count twice", misses)
	}
}

// TestRequestValidation is the table-driven bad-input suite: every
// admission-side rejection must carry the right status and stable
// error name, with size violations mapped onto ErrInputBudget.
func TestRequestValidation(t *testing.T) {
	s := New(Config{
		MaxBodyBytes:    512,
		MaxScriptBytes:  128,
		MaxBatchScripts: 2,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := strings.Repeat("a", 129)
	cases := []struct {
		name       string
		path       string
		body       string
		header     map[string]string
		wantStatus int
		wantName   string
	}{
		{"malformed JSON", "/v1/deobfuscate", "{not json", nil, http.StatusBadRequest, nameBadRequest},
		{"unknown field", "/v1/deobfuscate", `{"scriptz":"x"}`, nil, http.StatusBadRequest, nameBadRequest},
		{"empty script", "/v1/deobfuscate", `{"script":""}`, nil, http.StatusBadRequest, nameBadRequest},
		{"oversize script", "/v1/deobfuscate", scriptBody(big), nil, http.StatusRequestEntityTooLarge, "ErrInputBudget"},
		{"oversize body", "/v1/deobfuscate", scriptBody(strings.Repeat("b", 600)), nil, http.StatusRequestEntityTooLarge, "ErrInputBudget"},
		{"invalid timeout header", "/v1/deobfuscate", scriptBody("Write-Host hi"), map[string]string{TimeoutHeader: "soon"}, http.StatusBadRequest, nameBadRequest},
		{"negative timeout header", "/v1/deobfuscate", scriptBody("Write-Host hi"), map[string]string{TimeoutHeader: "-5s"}, http.StatusBadRequest, nameBadRequest},
		{"invalid syntax", "/v1/deobfuscate", scriptBody("while ("), nil, http.StatusUnprocessableEntity, nameInvalidSyntax},
		{"empty batch", "/v1/batch", `{"scripts":[]}`, nil, http.StatusBadRequest, nameBadRequest},
		{"batch too wide", "/v1/batch", `{"scripts":[{"script":"a"},{"script":"b"},{"script":"c"}]}`, nil, http.StatusRequestEntityTooLarge, "ErrInputBudget"},
		{"batch oversize script", "/v1/batch", fmt.Sprintf(`{"scripts":[{"script":%q}]}`, big), nil, http.StatusRequestEntityTooLarge, "ErrInputBudget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pr := postJSON(t, ts.Client(), ts.URL+tc.path, tc.body, tc.header)
			if pr.status != tc.wantStatus {
				t.Errorf("status = %d, want %d", pr.status, tc.wantStatus)
			}
			if pr.eb.Error.Name != tc.wantName {
				t.Errorf("error name = %q, want %q", pr.eb.Error.Name, tc.wantName)
			}
		})
	}

	// Method gating on the work endpoints.
	for _, path := range []string{"/v1/deobfuscate", "/v1/batch"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s = %d, want 405", path, resp.StatusCode)
		}
	}
}

// TestPartialResultOnEnvelopeViolation: when the engine salvages a
// partial result alongside a taxonomy error, the error body carries it.
func TestPartialResultOnEnvelopeViolation(t *testing.T) {
	s := New(Config{})
	s.runSingle = func(ctx context.Context, lang, script string) (*core.Result, error) {
		res := &core.Result{Script: "partial layer"}
		res.Stats.TimedOut = true
		return res, limits.ErrDeadline
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	pr := postJSON(t, ts.Client(), ts.URL+"/v1/deobfuscate", scriptBody("Write-Host hi"), nil)
	if pr.status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", pr.status)
	}
	if pr.eb.Partial == nil || pr.eb.Partial.Script != "partial layer" {
		t.Fatalf("partial result missing from error body: %+v", pr.eb.Partial)
	}
	if !pr.eb.Partial.Stats.TimedOut {
		t.Error("partial result lost its TimedOut marker")
	}
}

// waitFor polls cond to true, failing the test after a bounded wait.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConfigDefaults pins the zero-value resolution.
func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Workers <= 0 || c.QueueDepth != 64 || c.DefaultTimeout != 30*time.Second ||
		c.MaxTimeout != 2*time.Minute || c.MaxBodyBytes != 8<<20 ||
		c.MaxScriptBytes != 1<<20 || c.MaxBatchScripts != 64 {
		t.Errorf("unexpected defaults: %+v", c)
	}
	if qd := (Config{QueueDepth: -1}).withDefaults().QueueDepth; qd != 0 {
		t.Errorf("QueueDepth -1 should mean no queue, got %d", qd)
	}
}

// TestLayersOptIn: layers appear only with ?layers=1.
func TestLayersOptIn(t *testing.T) {
	s := New(Config{})
	s.runSingle = func(ctx context.Context, lang, script string) (*core.Result, error) {
		return &core.Result{Script: "out", Layers: []string{"l1", "l2"}}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	pr := postJSON(t, ts.Client(), ts.URL+"/v1/deobfuscate", scriptBody("x"), nil)
	if bytes.Contains(pr.raw, []byte(`"layers"`)) {
		t.Error("layers included without opt-in")
	}
	var rb resultBody
	pr = postJSON(t, ts.Client(), ts.URL+"/v1/deobfuscate?layers=1", scriptBody("x"), nil)
	if err := json.Unmarshal(pr.raw, &rb); err != nil {
		t.Fatal(err)
	}
	if len(rb.Layers) != 2 {
		t.Errorf("layers = %v, want 2 entries", rb.Layers)
	}
}
