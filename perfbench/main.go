// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It generates its inputs from -seed, runs one workload as
// fixed work (whole passes over the input set, or a fixed open-loop
// schedule), checks every output against references that do not come
// from the engine, and prints one JSON result as its last line of
// standard output:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (endToEnd in
// metrics.go); with -trace 1 the run is traced and the metrics are the
// per-layer ones (perLayer), each of which names the end-to-end metric
// it should move. Every result is also written, labelled with nproc,
// GOMAXPROCS, the Go version, the commit and the seed, to
// .bench_build/results/, and -compare old.json new.json prints the
// difference between two such files, refusing when the labels say the
// runs had different cores.
//
// Run it through run.sh, which builds it inside the checkout:
//
//	bash perfbench/run.sh --workload deep-layers --seed 3 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// root is the checkout root: it holds the JavaScript test inputs
	// and .bench_build/, where results and spans are written.
	root string
	size sizes
}

// sizes fixes how much work a run does; the self-test shrinks them.
type sizes struct {
	// wild and deep are the scripts per pass of the closed-loop
	// workloads.
	wild, deep int
	// rate is the service-open request rate in requests per second.
	rate float64
	// warmSeconds is the open-loop traffic each service set-up sends
	// before timing starts.
	warmSeconds float64
}

// fullSizes are the sizes BENCHMARK.json describes.
var fullSizes = sizes{wild: 200, deep: 200, rate: 400, warmSeconds: 1}

// setupRepeats is how many times each run sets up (engine or server
// construction plus warm-up); setup_s is the median.
const setupRepeats = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{size: fullSizes}
	fs.StringVar(&cfg.workload, "workload", "", "workload name ("+strings.Join(workloadNames(), ", ")+"), or all to run each in turn")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.IntVar(&cfg.seconds, "seconds", 20, "run length in seconds, converted into a fixed amount of work per workload")
	traceFlag := fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	fs.StringVar(&cfg.root, "root", ".", "checkout root")
	compare := fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
	loadgen := fs.Bool("loadgen", false, "act as service-open's load generator: a job on stdin, replies on stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *loadgen {
		if err := runLoadgen(os.Stdin, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench -loadgen:", err)
			return 1
		}
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare takes two result files")
			return 2
		}
		if err := compareFiles(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	cfg.trace = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames()
	}
	for _, name := range names {
		cfg.workload = name
		if err := runOne(cfg, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	return 0
}

// runOne runs one workload, saves its labelled record and prints it.
func runOne(cfg config, stdout, stderr io.Writer) error {
	out, err := runWorkload(cfg, stderr)
	if err != nil {
		return err
	}
	rec := newRecord(cfg, out)
	if err := rec.check(cfg.trace); err != nil {
		return err
	}
	if err := rec.save(cfg); err != nil {
		return err
	}
	return rec.print(stdout, cfg.trace)
}

// runWorkload dispatches to the named workload.
func runWorkload(cfg config, log io.Writer) (*outcome, error) {
	switch cfg.workload {
	case wild, deep:
		return runClosed(cfg, log)
	case service:
		return runOpen(cfg, log)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	// values holds every metric the run measured, by name.
	values map[string]float64
	// samples holds the sample count behind each timing metric.
	samples map[string]int
	// spans is the traced run's span log (nil untraced).
	spans []span
}

// labels identify the conditions a result was measured under.
type labels struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one labelled result, as saved and compared.
type record struct {
	Labels    labels            `json:"labels"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Samples   map[string]int    `json:"samples,omitempty"`
	spans     []span
}

func newRecord(cfg config, out *outcome) *record {
	rec := &record{
		Labels: labels{
			Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Commit: commit(),
		},
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
		Samples:   out.samples,
		spans:     out.spans,
	}
	for _, d := range allMetrics() {
		if v, ok := out.values[d.Name]; ok {
			rec.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		}
	}
	return rec
}

// check verifies that the run measured every metric it must report.
func (r *record) check(trace bool) error {
	var missing []string
	for _, d := range reported(trace) {
		if _, ok := r.Metrics[d.Name]; !ok {
			missing = append(missing, d.Name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s measured no value for %s", r.Labels.Workload, strings.Join(missing, ", "))
	}
	if r.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	return nil
}

// reported lists the metrics the result line carries.
func reported(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// save writes the labelled record, and the spans of a traced run, under
// .bench_build/ in the checkout.
func (r *record) save(cfg config) error {
	dir := filepath.Join(cfg.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, btoi(cfg.trace))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if r.spans == nil {
		return nil
	}
	return writeSpans(filepath.Join(dir, base+".spans.jsonl"), r.spans)
}

// print writes the human-readable summary and then the result line.
func (r *record) print(w io.Writer, trace bool) error {
	l := r.Labels
	fmt.Fprintf(w, "# %s seed=%d seconds=%d trace=%v nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		l.Workload, l.Seed, l.Seconds, l.Trace, l.NumCPU, l.GOMAXPROCS, l.GoVersion, l.Commit)
	fmt.Fprintf(w, "# %-34s %14.6g ratio  (%d of %d)\n", "fail_frac", float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		line := fmt.Sprintf("# %-34s %14.6g %s", name, m.Value, m.Unit)
		if n, ok := r.Samples[name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]metric{}}
	for _, d := range reported(trace) {
		res.Metrics[d.Name] = r.Metrics[d.Name]
	}
	data, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("%s: %w", r.Labels.Workload, err)
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// commit is the VCS revision the binary was built from, when the build
// saw one (a checkout without .git has none).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// compareFiles prints, metric by metric, how the second result differs
// from the first. It refuses runs measured with different core counts:
// a speed-up across nproc or GOMAXPROCS is not a property of the code.
func compareFiles(oldPath, newPath string, w io.Writer) error {
	load := func(path string) (*record, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &r, nil
	}
	a, err := load(oldPath)
	if err != nil {
		return err
	}
	b, err := load(newPath)
	if err != nil {
		return err
	}
	if a.Labels.NumCPU != b.Labels.NumCPU || a.Labels.GOMAXPROCS != b.Labels.GOMAXPROCS {
		return fmt.Errorf("refusing to compare: nproc %d vs %d, GOMAXPROCS %d vs %d",
			a.Labels.NumCPU, b.Labels.NumCPU, a.Labels.GOMAXPROCS, b.Labels.GOMAXPROCS)
	}
	if a.Labels.Workload != b.Labels.Workload || a.Labels.Trace != b.Labels.Trace {
		return fmt.Errorf("refusing to compare %s (trace %v) with %s (trace %v)",
			a.Labels.Workload, a.Labels.Trace, b.Labels.Workload, b.Labels.Trace)
	}
	fmt.Fprintf(w, "# %s: %s seed %d -> %s seed %d (nproc=%d gomaxprocs=%d)\n", a.Labels.Workload,
		a.Labels.Commit, a.Labels.Seed, b.Labels.Commit, b.Labels.Seed, a.Labels.NumCPU, a.Labels.GOMAXPROCS)
	for _, d := range allMetrics() {
		ma, okA := a.Metrics[d.Name]
		mb, okB := b.Metrics[d.Name]
		if !okA || !okB {
			continue
		}
		change := 0.0
		if ma.Value != 0 {
			change = (mb.Value - ma.Value) / ma.Value
		}
		verdict := ""
		if d.Bound > 0 && worse(d, change) > d.Bound {
			verdict = fmt.Sprintf("  WORSE than its %.0f%% bound", d.Bound*100)
		}
		fmt.Fprintf(w, "%-34s %14.6g -> %-14.6g %-6s %+7.2f%%%s\n", d.Name, ma.Value, mb.Value, d.Unit, change*100, verdict)
	}
	return nil
}

// worse turns a relative change into how much worse it is, by the
// metric's direction.
func worse(d metricDef, change float64) float64 {
	if d.Better == "higher" {
		return -change
	}
	return change
}
