package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by nearest rank.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// releaseMemory collects garbage and returns freed memory to the
// system. Runs call it after generating their inputs, which runs the
// sandbox and the obfuscator, so that set-up starts from a clean heap.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// resetPeakRSS resets the kernel's resident-set high-water mark to the
// current resident set, so that VmHWM afterwards covers only what
// follows. It leaves the heap as set-up sized it: releasing memory here
// would make the first timed pass fault it back in.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM in MB (2^20 bytes).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runtimeCounters are the Go runtime's cumulative allocation and CPU
// counters.
type runtimeCounters struct {
	allocBytes    uint64
	gcCPU, allCPU float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		allCPU:     s[2].Value.Float64(),
	}
}

// setRuntimeMetrics records allocation per operation and the garbage
// collector's share of CPU between two readings.
func setRuntimeMetrics(v map[string]float64, a, b runtimeCounters, ops int) {
	v["runtime.alloc_kb_per_op"] = ratio(float64(b.allocBytes-a.allocBytes)/1024, float64(ops))
	v["runtime.gc_cpu_frac"] = ratio(b.gcCPU-a.gcCPU, b.allCPU-a.allCPU)
}

// span is one traced call into a layer.
type span struct {
	// Op identifies the script or request the call served.
	Op   int    `json:"op"`
	Name string `json:"name"`
	// Parent is the index of the enclosing span, -1 at a root.
	Parent int   `json:"parent"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(op int, name string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a span measured elsewhere (the open loop's due time is
// known before its span could be opened).
func (t *tracer) add(s span) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// at converts a wall-clock instant to the tracer's clock.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.t0)) }

// total sums the duration and counts the spans with the given name.
func (t *tracer) total(name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
			n++
		}
	}
	return d, n
}

// list returns the spans, once the run has stopped recording.
func (t *tracer) list() []span {
	if t == nil {
		return nil
	}
	return t.spans
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
