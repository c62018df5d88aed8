package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/core"
	"github.com/invoke-deobfuscation/invokedeob/internal/corpus"
	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
)

// integrationScripts returns a small deterministic corpus of obfuscated
// scripts plus one pinned hand-written sample, so the suite exercises
// both generated wild-like layering and a known-answer case.
func integrationScripts() []string {
	scripts := []string{
		`IEX ("Wri{0}e-Ho{1}t 'integration'" -f 't','s')`,
	}
	for _, s := range corpus.Generate(corpus.Config{Seed: 11, N: 4}) {
		scripts = append(scripts, s.Source)
	}
	return scripts
}

// TestConcurrentClientsMatchLibrary is the end-to-end contract of the
// service: N goroutines hammer /v1/deobfuscate with a mix of distinct
// and duplicated scripts, and every response's recovered script must be
// byte-identical to what a direct library call produces. Duplication
// across goroutines is deliberate — it is what makes the shared parse
// cache earn hits across request boundaries, which the test asserts
// via /statsz. Run under -race this also shakes out data races in the
// shared-cache and stats paths.
func TestConcurrentClientsMatchLibrary(t *testing.T) {
	scripts := integrationScripts()

	// Ground truth from direct library calls with a fresh engine: the
	// HTTP layer must not perturb output bytes.
	eng := core.New(core.Options{})
	want := make(map[string]string, len(scripts))
	for _, src := range scripts {
		res, err := eng.Deobfuscate(src)
		if err != nil {
			t.Fatalf("library baseline failed: %v", err)
		}
		want[src] = res.Script
	}

	s := New(Config{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const goroutines = 8
	const repeats = 2 // every goroutine sends every script twice
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(scripts)*repeats)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < repeats; r++ {
				// Stagger start offsets so goroutines collide on
				// different scripts at the same instant.
				for i := range scripts {
					src := scripts[(i+g)%len(scripts)]
					pr, err := doPost(ts.Client(), ts.URL+"/v1/deobfuscate", scriptBody(src), nil)
					if err != nil {
						errs <- fmt.Errorf("goroutine %d: %v", g, err)
						continue
					}
					if pr.status != http.StatusOK {
						errs <- fmt.Errorf("goroutine %d: status %d (%s: %s)", g, pr.status, pr.eb.Error.Name, pr.eb.Error.Message)
						continue
					}
					var rb resultBody
					if err := json.Unmarshal(pr.raw, &rb); err != nil {
						errs <- fmt.Errorf("goroutine %d: bad body: %v", g, err)
						continue
					}
					if rb.Script != want[src] {
						errs <- fmt.Errorf("goroutine %d: served script diverged from library output\nserved: %q\nwant:   %q", g, rb.Script, want[src])
					}
					if rb.Stats.Iterations == 0 {
						errs <- fmt.Errorf("goroutine %d: response missing engine stats", g)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// The shared caches must have amortized the duplicated scripts.
	var stats statszBody
	getJSON(t, ts, "/statsz", &stats)
	if stats.ParseCache.Hits == 0 {
		t.Errorf("shared parse cache saw no hits across %d duplicated requests: %+v",
			goroutines*len(scripts)*repeats, stats.ParseCache)
	}
	if stats.ParseCache.HitRate <= 0 {
		t.Errorf("parse cache hit_rate = %v, want > 0", stats.ParseCache.HitRate)
	}
	if stats.EvalCache == nil {
		t.Error("statsz missing eval_cache despite the eval cache being enabled")
	}
	total := goroutines * len(scripts) * repeats
	if got := stats.Requests[endpointDeobfuscate]; got != int64(total) {
		t.Errorf("requests counter = %d, want %d", got, total)
	}
	if got := stats.Completed[endpointDeobfuscate]; got != int64(total) {
		t.Errorf("completed counter = %d, want %d", got, total)
	}
	if stats.InFlight != 0 {
		t.Errorf("in_flight = %d after all requests returned, want 0", stats.InFlight)
	}
	if len(stats.PassTrace) == 0 {
		t.Error("statsz pass_trace empty after real engine runs")
	}
	if stats.Stats.Iterations == 0 {
		t.Error("statsz aggregate stats empty after real engine runs")
	}
}

// TestBatchMatchesLibrary posts a /v1/batch mixing healthy scripts with
// an unparsable one and checks DeobfuscateBatch semantics over HTTP:
// input-order results, per-item errors that do not fail siblings, and
// output bytes identical to the direct library batch.
func TestBatchMatchesLibrary(t *testing.T) {
	scripts := integrationScripts()[:3]
	inputs := make([]core.BatchInput, 0, len(scripts)+1)
	var reqScripts []scriptRequest
	for i, src := range scripts {
		name := fmt.Sprintf("s%d", i)
		inputs = append(inputs, core.BatchInput{Name: name, Script: src})
		reqScripts = append(reqScripts, scriptRequest{Name: name, Script: src})
	}
	inputs = append(inputs, core.BatchInput{Name: "broken", Script: "while ("})
	reqScripts = append(reqScripts, scriptRequest{Name: "broken", Script: "while ("})

	eng := core.New(core.Options{})
	direct := eng.DeobfuscateBatch(context.Background(), inputs)

	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(batchRequest{Scripts: reqScripts})
	pr := postJSON(t, ts.Client(), ts.URL+"/v1/batch", string(body), nil)
	if pr.status != http.StatusOK {
		t.Fatalf("batch status = %d, body %s", pr.status, pr.raw)
	}
	var br batchResponse
	if err := json.Unmarshal(pr.raw, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(direct) {
		t.Fatalf("got %d results, want %d", len(br.Results), len(direct))
	}
	for i, item := range br.Results {
		d := direct[i]
		if item.Index != i || item.Name != d.Name {
			t.Errorf("result %d out of order: got (%d, %q), want (%d, %q)", i, item.Index, item.Name, i, d.Name)
		}
		if d.Err != nil {
			if item.Error == nil {
				t.Errorf("result %d: library errored (%v) but service reported success", i, d.Err)
			} else if item.Error.Name != nameInvalidSyntax {
				t.Errorf("result %d: error name = %q, want %q", i, item.Error.Name, nameInvalidSyntax)
			}
			continue
		}
		if item.Error != nil {
			t.Errorf("result %d: service errored (%s) but library succeeded", i, item.Error.Message)
			continue
		}
		if item.Script != d.Result.Script {
			t.Errorf("result %d: served script diverged from library batch\nserved: %q\nwant:   %q", i, item.Script, d.Result.Script)
		}
	}
}

// TestStatszShape sanity-checks the monitoring endpoints on a fresh
// server: healthz healthy, statsz well-formed with zeroed counters.
func TestStatszShape(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var hb healthzBody
	code := getJSON(t, ts, "/healthz", &hb)
	if code != http.StatusOK || hb.Status != "ok" || hb.Draining {
		t.Errorf("fresh healthz = %d %+v, want 200 ok", code, hb)
	}
	var sb statszBody
	code = getJSON(t, ts, "/statsz", &sb)
	if code != http.StatusOK {
		t.Fatalf("statsz = %d, want 200", code)
	}
	if sb.Workers <= 0 || sb.QueueDepth != 64 {
		t.Errorf("statsz pool shape = %d workers / %d queue, want defaults", sb.Workers, sb.QueueDepth)
	}
	if sb.UptimeSeconds < 0 {
		t.Errorf("uptime_seconds = %v", sb.UptimeSeconds)
	}
	if sb.ParseCache.Hits != 0 || sb.ParseCache.Misses != 0 {
		t.Errorf("fresh parse cache not empty: %+v", sb.ParseCache)
	}
}

// TestStatszPassTraceSumsResponses checks that /statsz's per-pass
// aggregate is the sum of the pass traces the responses carried, field
// by field, self time included (sizes are zeroed: they do not sum).
func TestStatszPassTraceSumsResponses(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var order []string
	want := make(map[string]pipeline.PassStat)
	for _, src := range integrationScripts() {
		pr := postJSON(t, ts.Client(), ts.URL+"/v1/deobfuscate", scriptBody(src), nil)
		var rb resultBody
		if err := json.Unmarshal(pr.raw, &rb); err != nil || pr.status != http.StatusOK {
			t.Fatalf("deobfuscate = %d %s (%v)", pr.status, pr.raw, err)
		}
		for _, p := range rb.PassTrace {
			w, seen := want[p.Pass]
			if !seen {
				order = append(order, p.Pass)
				w.Pass = p.Pass
			}
			w.Runs += p.Runs
			w.Duration += p.Duration
			w.SelfDuration += p.SelfDuration
			w.Reverts += p.Reverts
			w.CacheHits += p.CacheHits
			w.CacheMisses += p.CacheMisses
			w.EvalHits += p.EvalHits
			w.EvalMisses += p.EvalMisses
			w.EvalSkips += p.EvalSkips
			want[p.Pass] = w
		}
	}
	if len(order) == 0 {
		t.Fatal("responses carried no pass trace")
	}
	var sb statszBody
	getJSON(t, ts, "/statsz", &sb)
	if len(sb.PassTrace) != len(order) {
		t.Fatalf("statsz has %d passes, responses %d", len(sb.PassTrace), len(order))
	}
	for i, got := range sb.PassTrace {
		if w := want[order[i]]; got != w {
			t.Errorf("statsz pass %d = %+v\nsum over responses = %+v", i, got, w)
		}
	}
}

// getJSON fetches path and decodes the body, returning the status code.
func getJSON(t *testing.T, ts *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode
}
