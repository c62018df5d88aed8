package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
)

// The self-test runs every workload on a handful of inputs, in seconds,
// and checks that every named metric is emitted with its unit and that
// no operation fails. Run it from this directory with go test.

// TestMain lets the test binary stand in for the benchmark binary when
// service-open starts its load generator (os.Executable is the test
// binary under go test).
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-loadgen" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var smallSizes = sizes{wild: 6, deep: 3, rate: 50, warmSeconds: 0.2}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w, seed: 3, seconds: 1, trace: trace, root: "..", size: smallSizes}
			out, err := runWorkload(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			rec := newRecord(cfg, out)
			if err := rec.check(trace); err != nil {
				t.Errorf("%s trace=%v: %v", w, trace, err)
			}
			for _, d := range reported(trace) {
				if m := rec.Metrics[d.Name]; m.Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, want %q", w, d.Name, m.Unit, d.Unit)
				}
			}
			if out.failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", w, trace, out.failed, out.attempted)
			}
			if !trace && rec.Metrics["ok_frac"].Value != 1 {
				t.Errorf("%s: ok_frac = %v, want 1", w, rec.Metrics["ok_frac"].Value)
			}
			if trace && len(out.spans) == 0 {
				t.Errorf("%s: the traced run recorded no spans", w)
			}
		}
	}
}

// TestManifestMatchesTables checks BENCHMARK.json against the metric
// and workload tables, so that neither drifts from the other.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want, err := roundTrip(manifest())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		text, _ := json.MarshalIndent(manifest(), "", "  ")
		t.Errorf("BENCHMARK.json differs from the tables; they give:\n%s", text)
	}
}

// manifest is BENCHMARK.json as the tables define it.
func manifest() map[string]any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := map[string]any{
		"command":     []string{"bash", "perfbench/run.sh"},
		"paths":       []string{"perfbench"},
		"run_seconds": 20,
	}
	var ws []wl
	for _, w := range workloads {
		ws = append(ws, wl{w.Name, w.Why})
	}
	var es []e2e
	for _, d := range endToEnd {
		es = append(es, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	var ls []layer
	for _, d := range perLayer {
		ls = append(ls, layer{d.Name, d.Unit, d.Better})
	}
	m["workloads"], m["end_to_end"], m["per_layer"] = ws, es, ls
	return m
}

func roundTrip(v any) (any, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var out any
	err = json.Unmarshal(data, &out)
	return out, err
}

func TestPredictionsNameRealMetrics(t *testing.T) {
	e2e := map[string]bool{}
	for _, d := range endToEnd {
		e2e[d.Name] = true
	}
	known := map[string]bool{}
	for _, w := range workloadNames() {
		known[w] = true
	}
	seen := map[string]bool{}
	for _, d := range allMetrics() {
		if seen[d.Name] {
			t.Errorf("metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range perLayer {
		if len(d.Moves) == 0 || len(d.On) == 0 {
			t.Errorf("%s predicts nothing", d.Name)
		}
		for _, m := range d.Moves {
			if !e2e[m] {
				t.Errorf("%s predicts a move in %s, which is not an end-to-end metric", d.Name, m)
			}
		}
		for _, w := range d.On {
			if !known[w] {
				t.Errorf("%s names unknown workload %s", d.Name, w)
			}
		}
	}
}

func TestCompareRefusesDifferentCores(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r record) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := record{Labels: labels{Workload: wild, NumCPU: 2, GOMAXPROCS: 2}, Metrics: map[string]metric{"throughput_per_s": {100, "1/s"}}}
	other := base
	other.Labels.GOMAXPROCS = 4
	a, b := write("a.json", base), write("b.json", other)
	if err := compareFiles(a, b, io.Discard); err == nil {
		t.Error("compared runs with different GOMAXPROCS")
	}
	if err := compareFiles(a, a, io.Discard); err != nil {
		t.Errorf("comparing a run with itself: %v", err)
	}
}
