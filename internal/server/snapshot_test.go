package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestInFlightIsAdmissionOccupancy pins in_flight to the admission
// window: while one request holds its token, /healthz, /statsz and
// /metrics all report 1, and 0 once its response is back.
func TestInFlightIsAdmissionOccupancy(t *testing.T) {
	s, release, started := blockingServer(t, Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := doPost(ts.Client(), ts.URL+"/v1/deobfuscate", scriptBody("Write-Host busy"), nil); err != nil {
			t.Error(err)
		}
	}()
	<-started

	check := func(want int64) {
		t.Helper()
		var hb healthzBody
		getJSON(t, ts, "/healthz", &hb)
		var sb statszBody
		getJSON(t, ts, "/statsz", &sb)
		gauge := scrapeMetrics(t, ts)["invokedeob_in_flight_requests"]
		if hb.InFlight != want || sb.InFlight != want || gauge != float64(want) {
			t.Errorf("in_flight: healthz %d, statsz %d, metrics %v; want %d", hb.InFlight, sb.InFlight, gauge, want)
		}
	}
	check(1)
	release()
	<-done
	check(0)
}

// TestMetricsMatchStatsz is the one-snapshot invariant: after mixed
// traffic (both languages, a batch, a quota 429, a heavy shed and an
// invalid-syntax request) every labelled family, engine counter and
// cache counter /metrics reports equals its /statsz value. It also pins
// by_lang: the per-language slices sum to the cache totals while every
// run returns a result, and a request refused for invalid syntax counts
// in the totals only.
func TestMetricsMatchStatsz(t *testing.T) {
	// A window of 4 with high water 0.5 sheds a heavy request once one
	// other token is held.
	s := New(Config{Workers: 2, QueueDepth: 2, HeavyCost: 1000, ShedHighWater: 0.5, QuotaRate: 0.001, QuotaBurst: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	n, sent := 0, int64(0) // tenants used, responses asked for
	post := func(path, body, key string, want int) {
		t.Helper()
		if key == "" {
			n++
			key = fmt.Sprintf("tenant-%d", n)
		}
		sent++
		if pr := postJSON(t, ts.Client(), ts.URL+path, body, map[string]string{APIKeyHeader: key}); pr.status != want {
			t.Fatalf("POST %s = %d, want %d (%s)", path, pr.status, want, pr.raw)
		}
	}
	statsz := func() (b statszBody) {
		t.Helper()
		sent++
		getJSON(t, ts, "/statsz", &b)
		return b
	}
	// The status middleware counts a response once its handler returns,
	// and a client can read a large body before that: wait until every
	// response asked for so far is counted.
	settle := func() {
		t.Helper()
		waitFor(t, func() bool {
			var total int64
			for _, c := range s.snapshot().body.StatusCounts {
				total += c
			}
			return total == sent
		})
	}
	for i := 0; i < 2; i++ {
		post("/v1/deobfuscate", `{"lang":"javascript","script":"var s = 'a' + 'b';"}`, "", http.StatusOK)
		post("/v1/deobfuscate", scriptBody(`IEX ("Wri{0}e-Ho{1}t 'x'" -f 't','s')`), "", http.StatusOK)
	}
	post("/v1/batch", `{"scripts":[{"script":"Write-Host hi"},{"lang":"js","script":"var t = 'x' + 'y';"}]}`, "", http.StatusOK)

	sb := statsz()
	for _, c := range []struct {
		name   string
		totals cacheStatsBody
		sum    int64
	}{
		{"parse", sb.ParseCache, sb.Stats.ParseCacheHits + sb.Stats.ParseCacheMisses},
		{"eval", *sb.EvalCache, sb.Stats.EvalCacheHits + sb.Stats.EvalCacheMisses + sb.Stats.EvalCacheSkips},
	} {
		var h, m, sk int64
		for _, ls := range c.totals.ByLang {
			h, m, sk = h+ls.Hits, m+ls.Misses, sk+ls.Skips
		}
		if h != c.totals.Hits || m != c.totals.Misses || sk != c.totals.Skips || h+m+sk != c.sum {
			t.Errorf("%s by_lang sums to %d/%d/%d, totals %+v, runs' stats %d", c.name, h, m, sk, c.totals, c.sum)
		}
	}
	if _, ok := sb.EvalCache.ByLang["javascript"]; ok {
		t.Errorf("javascript has an eval slice without eval traffic: %+v", sb.EvalCache.ByLang)
	}

	// Invalid syntax: the run returns no result, so its one parse miss
	// counts in the totals and in no slice.
	before := sb.ParseCache
	post("/v1/deobfuscate", scriptBody("Write-Host ("), "", http.StatusUnprocessableEntity)
	sb = statsz()
	if got := sb.ParseCache; got.Hits != before.Hits || got.Misses != before.Misses+1 {
		t.Errorf("parse totals after invalid syntax = %d/%d, want %d/%d", got.Hits, got.Misses, before.Hits, before.Misses+1)
	}
	for lang, ls := range sb.ParseCache.ByLang {
		if ls != before.ByLang[lang] {
			t.Errorf("invalid syntax moved the %s slice: %+v -> %+v", lang, before.ByLang[lang], ls)
		}
	}

	post("/v1/deobfuscate", scriptBody("Write-Host q"), "quota", http.StatusOK)
	post("/v1/deobfuscate", scriptBody("Write-Host q"), "quota", http.StatusTooManyRequests)
	s.admit <- struct{}{} // hold one token: the heavy request takes the second
	post("/v1/deobfuscate", scriptBody(heavyScript(1000)), "", http.StatusServiceUnavailable)
	<-s.admit

	settle()
	sb = statsz()
	settle()
	got := scrapeMetrics(t, ts)
	sb.StatusCounts["200"]++ // the /statsz response, counted before the scrape
	for _, f := range families {
		counts := *f.statsz(&sb)
		series := 0
		for key := range got {
			if strings.HasPrefix(key, f.name+"{") {
				series++
			}
		}
		if series != len(counts) {
			t.Errorf("%s: %d series in /metrics, %d labels in /statsz %v", f.name, series, len(counts), counts)
		}
		for label, v := range counts {
			key := f.name + "{" + f.label + `="` + escapeLabelValue(label) + `"}`
			if got[key] != float64(v) {
				t.Errorf("%s = %v, /statsz %d", key, got[key], v)
			}
		}
	}
	for _, want := range []string{rejectQuota, rejectShedHeavy} {
		if sb.Rejected[want] != 1 {
			t.Errorf("rejected[%s] = %d, want 1: %v", want, sb.Rejected[want], sb.Rejected)
		}
	}
	if sb.Errors[nameInvalidSyntax] != 1 {
		t.Errorf("errors = %v, want one %s", sb.Errors, nameInvalidSyntax)
	}

	a := sb.Stats
	want := map[string]int64{
		"invokedeob_tokens_normalized_total":   int64(a.TokensNormalized),
		"invokedeob_pieces_attempted_total":    int64(a.PiecesAttempted),
		"invokedeob_pieces_recovered_total":    int64(a.PiecesRecovered),
		"invokedeob_variables_traced_total":    int64(a.VariablesTraced),
		"invokedeob_variables_inlined_total":   int64(a.VariablesInlined),
		"invokedeob_layers_unwrapped_total":    int64(a.LayersUnwrapped),
		"invokedeob_identifiers_renamed_total": int64(a.IdentifiersRenamed),
		"invokedeob_iterations_total":          int64(a.Iterations),
		"invokedeob_pieces_timedout_total":     int64(a.PiecesTimedOut),
		"invokedeob_pieces_panicked_total":     int64(a.PiecesPanicked),
		"invokedeob_pieces_overbudget_total":   int64(a.PiecesOverBudget),
		"invokedeob_eval_cache_hits_total":     a.EvalCacheHits,
		"invokedeob_eval_cache_misses_total":   a.EvalCacheMisses,
		"invokedeob_eval_cache_skips_total":    a.EvalCacheSkips,
	}
	for cache, c := range map[string]cacheStatsBody{"parse": sb.ParseCache, "eval": *sb.EvalCache} {
		lbl := `{cache="` + cache + `"}`
		want["invokedeob_cache_hits_total"+lbl] = c.Hits
		want["invokedeob_cache_misses_total"+lbl] = c.Misses
		want["invokedeob_cache_evictions_total"+lbl] = c.Evictions
		want["invokedeob_cache_entries"+lbl] = int64(c.Entries)
		want["invokedeob_cache_bytes"+lbl] = c.Bytes
	}
	for _, p := range sb.PassTrace {
		lbl := `{pass="` + escapeLabelValue(p.Pass) + `"}`
		want["invokedeob_pass_runs_total"+lbl] = int64(p.Runs)
		want["invokedeob_pass_reverts_total"+lbl] = int64(p.Reverts)
	}
	if a.Iterations == 0 || sb.ParseCache.Hits == 0 {
		t.Fatalf("traffic left no engine or cache counters: %+v", sb)
	}
	for key, v := range want {
		if g, ok := got[key]; !ok || g != float64(v) {
			t.Errorf("%s = %v (present %t), /statsz %d", key, g, ok, v)
		}
	}
}

// scrapeMetrics fetches /metrics and returns each sample's value keyed
// by its series: the metric name with its labels.
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}
