package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe writer the server goroutine can log to
// while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunLifecycle drives the full binary lifecycle in-process: bind an
// ephemeral port, round-trip a deobfuscation over real HTTP, then
// cancel the context (the signal path) and verify a clean drain.
func TestRunLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	pr, pw := io.Pipe()
	var stdout syncBuffer
	var stderr syncBuffer
	runErr := make(chan error, 1)
	go func() {
		// Tee stdout through a pipe so the test can wait for the listen
		// line without polling.
		runErr <- run(ctx, []string{"-addr", "127.0.0.1:0", "-drain-timeout", "5s"},
			io.MultiWriter(pw, &stdout), &stderr)
		pw.Close()
	}()

	sc := bufio.NewScanner(pr)
	if !sc.Scan() {
		t.Fatalf("no listen line; run returned: %v (stderr: %s)", <-runErr, stderr.String())
	}
	line := sc.Text()
	const prefix = "deobserver listening on "
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("first stdout line = %q, want %q prefix", line, prefix)
	}
	addr := strings.TrimPrefix(line, prefix)
	go io.Copy(io.Discard, pr) // keep draining so later prints don't block

	base := "http://" + addr

	// Health first.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	// One real deobfuscation round trip.
	body := `{"script":"IEX (\"Wri{0}e-Ho{1}t 'lifecycle'\" -f 't','s')"}`
	resp, err = http.Post(base+"/v1/deobfuscate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("deobfuscate: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deobfuscate = %d, body %s", resp.StatusCode, raw)
	}
	var res struct {
		Script string `json:"script"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("bad response %q: %v", raw, err)
	}
	if !strings.Contains(res.Script, "Write-Host") {
		t.Errorf("recovered script %q does not contain the deobfuscated command", res.Script)
	}

	// Signal shutdown; run must drain and return nil.
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v on graceful shutdown, want nil (stderr: %s)", err, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return within 10s of cancellation")
	}
	out := stdout.String()
	for _, want := range []string{"deobserver draining", "deobserver stopped"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
}

// TestRunFlagErrors: bad flags and a busy port surface as errors from
// run, not process exits. The removed warm-restart flags are unknown
// flags now, so a deployment that still passes one fails at startup.
// Those calls get an already-canceled context: a run that accepted the
// flag would bind, drain and return nil instead of serving.
func TestRunFlagErrors(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	const unknownFlag = "flag provided but not defined"
	tests := []struct {
		name string
		ctx  context.Context
		args []string
		want string // a substring of the error; "" accepts any error
	}{
		{"unknown flag", context.Background(), []string{"-no-such-flag"}, unknownFlag},
		{"unlistenable address", context.Background(), []string{"-addr", "256.0.0.1:bogus"}, ""},
		{"removed cache-snapshot", canceled, []string{"-addr", "127.0.0.1:0", "-cache-snapshot", filepath.Join(t.TempDir(), "caches.snap")}, unknownFlag},
		{"removed snapshot-interval", canceled, []string{"-addr", "127.0.0.1:0", "-snapshot-interval", "1m"}, unknownFlag},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out, errBuf bytes.Buffer
			err := run(tt.ctx, tt.args, &out, &errBuf)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("run(%q) = %v, want an error containing %q", tt.args, err, tt.want)
			}
		})
	}
}

// TestRunPoolFlags pins the flag translation through the observable
// /statsz pool shape: -queue 0 must disable queueing (queue_depth 0)
// rather than fall back to the config default of 64, and -workers must
// land as-is. (The saturation *behavior* of a zero-depth queue is
// covered deterministically in internal/server with fake engines; here
// we only need to know the flags reached the config.)
func TestRunPoolFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	runErr := make(chan error, 1)
	var stderr bytes.Buffer
	go func() {
		runErr <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "3", "-queue", "0"}, pw, &stderr)
		pw.Close()
	}()
	sc := bufio.NewScanner(pr)
	if !sc.Scan() {
		t.Fatalf("no listen line; run returned: %v", <-runErr)
	}
	addr := strings.TrimPrefix(sc.Text(), "deobserver listening on ")
	go io.Copy(io.Discard, pr)

	resp, err := http.Get("http://" + addr + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Workers    int `json:"workers"`
		QueueDepth int `json:"queue_depth"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Workers != 3 {
		t.Errorf("workers = %d, want 3", stats.Workers)
	}
	if stats.QueueDepth != 0 {
		t.Errorf("queue_depth = %d, want 0 (-queue 0 must mean no queue, not the default)", stats.QueueDepth)
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run returned %v, want nil (stderr: %s)", err, stderr.String())
	}
}
