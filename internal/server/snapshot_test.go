package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSnapshotLifecycle runs the full warm-restart cycle inside one
// test: first server takes traffic and drains (saving the snapshot),
// second server boots from the file and reports warm hits on the same
// scripts — and /statsz exposes every stage.
func TestSnapshotLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "caches.snap")
	scripts := []string{
		`Write-Host ('warm' + 'one')`,
		`$v = 'warm'; Write-Host $v`,
	}

	// --- first life: cold start, traffic, drain-time save ---
	s1 := New(Config{SnapshotPath: path, SnapshotInterval: -1})
	ts1 := httptest.NewServer(s1.Handler())
	for _, sc := range scripts {
		pr := postJSON(t, ts1.Client(), ts1.URL+"/v1/deobfuscate", scriptBody(sc), nil)
		if pr.status != http.StatusOK {
			t.Fatalf("first-life request = %d: %s", pr.status, pr.raw)
		}
	}
	var sb1 statszBody
	getJSON(t, ts1, "/statsz", &sb1)
	if sb1.Snapshot == nil {
		t.Fatal("statsz has no snapshot section despite SnapshotPath")
	}
	if sb1.Snapshot.Loaded {
		t.Error("first life claims a loaded snapshot; the file did not exist yet")
	}
	if sb1.Snapshot.LoadError != "" {
		t.Errorf("missing snapshot recorded as load error: %q", sb1.Snapshot.LoadError)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts1.Close()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("drain did not write the snapshot: %v", err)
	}

	// --- second life: warm start from the drained snapshot ---
	s2 := New(Config{SnapshotPath: path, SnapshotInterval: -1})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	var sb2 statszBody
	getJSON(t, ts2, "/statsz", &sb2)
	if sb2.Snapshot == nil || !sb2.Snapshot.Loaded {
		t.Fatalf("second life did not load the snapshot: %+v", sb2.Snapshot)
	}
	if sb2.Snapshot.LoadParseWarmed == 0 {
		t.Fatalf("snapshot load warmed no parse entries: %+v", sb2.Snapshot)
	}
	if sb2.ParseCache.Warmed == 0 {
		t.Errorf("parse cache reports no warmed entries after load: %+v", sb2.ParseCache)
	}
	// Replaying the first life's traffic must hit the warm entries.
	for _, sc := range scripts {
		pr := postJSON(t, ts2.Client(), ts2.URL+"/v1/deobfuscate", scriptBody(sc), nil)
		if pr.status != http.StatusOK {
			t.Fatalf("second-life request = %d: %s", pr.status, pr.raw)
		}
	}
	getJSON(t, ts2, "/statsz", &sb2)
	if sb2.ParseCache.WarmHits == 0 {
		t.Errorf("no warm hits on replayed traffic: %+v", sb2.ParseCache)
	}
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	var after statszBody
	getJSON(t, ts2, "/statsz", &after)
	if after.Snapshot.Saves < 1 {
		t.Errorf("second drain recorded %d saves, want >= 1", after.Snapshot.Saves)
	}
}

// TestSnapshotCorruptFileColdStart: a mangled snapshot file must leave
// the server fully serving — cold caches, load error surfaced on
// /statsz, no crash.
func TestSnapshotCorruptFileColdStart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "caches.snap")
	if err := os.WriteFile(path, []byte("IDOBSNP1 but then garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Config{SnapshotPath: path, SnapshotInterval: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var sb statszBody
	getJSON(t, ts, "/statsz", &sb)
	if sb.Snapshot == nil {
		t.Fatal("no snapshot section")
	}
	if sb.Snapshot.Loaded {
		t.Error("corrupt snapshot reported as loaded")
	}
	if sb.Snapshot.LoadError == "" {
		t.Error("corrupt snapshot left no load_error on /statsz")
	}
	pr := postJSON(t, ts.Client(), ts.URL+"/v1/deobfuscate", scriptBody(`Write-Host 'alive'`), nil)
	if pr.status != http.StatusOK {
		t.Fatalf("request after corrupt snapshot = %d: %s", pr.status, pr.raw)
	}
	// Drain overwrites the corrupt file with a valid snapshot.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{SnapshotPath: path, SnapshotInterval: -1})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	var sb2 statszBody
	getJSON(t, ts2, "/statsz", &sb2)
	if !sb2.Snapshot.Loaded {
		t.Errorf("snapshot rewritten on drain still does not load: %+v", sb2.Snapshot)
	}
}

// TestSnapshotPeriodicSave: with a short interval, the ticker persists
// the caches without any drain.
func TestSnapshotPeriodicSave(t *testing.T) {
	path := filepath.Join(t.TempDir(), "caches.snap")
	s := New(Config{SnapshotPath: path, SnapshotInterval: 20 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	pr := postJSON(t, ts.Client(), ts.URL+"/v1/deobfuscate", scriptBody(`Write-Host 'tick'`), nil)
	if pr.status != http.StatusOK {
		t.Fatalf("request = %d", pr.status)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var sb statszBody
		getJSON(t, ts, "/statsz", &sb)
		if sb.Snapshot != nil && sb.Snapshot.Saves >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic saver never wrote a snapshot")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot file missing after periodic save: %v", err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotDisabled: without SnapshotPath the section is absent and
// drain performs no save.
func TestSnapshotDisabled(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var sb statszBody
	getJSON(t, ts, "/statsz", &sb)
	if sb.Snapshot != nil {
		t.Errorf("snapshot section present without SnapshotPath: %+v", sb.Snapshot)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
