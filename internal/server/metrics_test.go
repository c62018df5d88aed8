package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestMetricsExposition drives one script through the server and checks
// the /metrics scrape: content type, counter families fed by the run,
// and per-pass histogram series.
func TestMetricsExposition(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/deobfuscate", "application/json",
		strings.NewReader(`{"script":"$a = 'he'+'llo'; Write-Output $a"}`))
	if err != nil {
		t.Fatalf("deobfuscate request: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deobfuscate status = %d", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics request: %v", err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); ct != metricsContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, metricsContentType)
	}
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	body := string(raw)

	for _, want := range []string{
		"# TYPE invokedeob_requests_total counter",
		`invokedeob_requests_total{endpoint="deobfuscate"} 1`,
		"# TYPE invokedeob_pieces_recovered_total counter",
		"# TYPE invokedeob_pass_duration_seconds histogram",
		`invokedeob_pass_duration_seconds_bucket{pass="`,
		`,le="+Inf"}`,
		"invokedeob_pass_duration_seconds_sum{",
		"invokedeob_pass_duration_seconds_count{",
		`invokedeob_cache_hits_total{cache="parse"}`,
		`invokedeob_cache_hits_total{cache="eval"}`,
		"# TYPE invokedeob_uptime_seconds gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics body missing %q", want)
		}
	}

	// Every histogram family's cumulative buckets must be monotone and
	// end at the +Inf count; spot-check via the _count series presence
	// for each pass that ran.
	if !strings.Contains(body, `invokedeob_pass_runs_total{pass=`) {
		t.Errorf("per-pass run counters missing:\n%s", body[:min(len(body), 800)])
	}
}

// TestMetricsLabelEscaping pins the exposition-format escaping rules
// for label values: backslash, newline and double quote.
func TestMetricsLabelEscaping(t *testing.T) {
	in := "a\\b\"c\nd"
	want := `a\\b\"c\nd`
	if got := escapeLabelValue(in); got != want {
		t.Fatalf("escapeLabelValue(%q) = %q, want %q", in, got, want)
	}
}

// TestLatencyHistCumulative pins the histogram's Prometheus shape:
// buckets are cumulative and bounded by the +Inf total.
func TestLatencyHistCumulative(t *testing.T) {
	h := newLatencyHist()
	for _, v := range []float64{0.00005, 0.003, 0.003, 42} {
		h.observe(v)
	}
	if h.total != 4 {
		t.Fatalf("total = %d, want 4", h.total)
	}
	prev := int64(0)
	for i, c := range h.counts {
		if c < prev {
			t.Fatalf("bucket %d not cumulative: %d < %d", i, c, prev)
		}
		prev = c
	}
	if prev > h.total {
		t.Fatalf("largest bucket %d exceeds +Inf count %d", prev, h.total)
	}
	// The 42s observation lands only in +Inf.
	if h.counts[len(h.counts)-1] != 3 {
		t.Fatalf("last finite bucket = %d, want 3", h.counts[len(h.counts)-1])
	}
}
