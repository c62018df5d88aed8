package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/frontend"
	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
)

// TestCacheSnapshotRoundTrip saves a populated parse+eval cache pair
// and reloads it into fresh caches through the registered frontends,
// asserting the warm entries serve hits without re-deriving.
func TestCacheSnapshotRoundTrip(t *testing.T) {
	ps, err := frontend.Get("powershell")
	if err != nil {
		t.Fatal(err)
	}
	js, err := frontend.Get("javascript")
	if err != nil {
		t.Fatal(err)
	}

	cache := pipeline.NewCache(0, 0)
	evalCache := NewEvalCache(0, 0)
	parseTexts := []struct {
		fe  frontend.Frontend
		src string
	}{
		{ps, "Write-Host ('a'+'b')"},
		{ps, "$x = 1; Write-Host $x"},
		{js, "var s = 'hel' + 'lo';"},
	}
	for _, pt := range parseTexts {
		if _, err := cache.Parse(pt.fe, pt.src); err != nil {
			t.Fatalf("seed parse %q: %v", pt.src, err)
		}
	}
	const snippet = "'de' + 'obfuscated'"
	res, err := ps.Evaluate(context.Background(), snippet, nil, frontend.EvalBudget{})
	if err != nil || !res.Pure {
		t.Fatalf("seed eval: err=%v pure=%v", err, res.Pure)
	}
	evalCache.View(ps).Insert(snippet, nil, res.Values)

	path := filepath.Join(t.TempDir(), "caches.snap")
	saved, err := SaveCacheSnapshot(path, cache, evalCache)
	if err != nil {
		t.Fatal(err)
	}
	if saved.ParseEntries != len(parseTexts) || saved.EvalEntries != 1 {
		t.Fatalf("save stats = %+v, want %d parse / 1 eval", saved, len(parseTexts))
	}
	if saved.Bytes <= 0 {
		t.Errorf("save stats report %d bytes", saved.Bytes)
	}

	freshCache := pipeline.NewCache(0, 0)
	freshEval := NewEvalCache(0, 0)
	loaded, err := LoadCacheSnapshot(context.Background(), path, freshCache, freshEval)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ParseLoaded != len(parseTexts) || loaded.EvalLoaded != 1 {
		t.Fatalf("load stats = %+v, want %d parse / 1 eval warmed", loaded, len(parseTexts))
	}

	// Every reloaded entry must serve as a warm hit.
	for _, pt := range parseTexts {
		if _, err := freshCache.Parse(pt.fe, pt.src); err != nil {
			t.Fatalf("warm parse %q: %v", pt.src, err)
		}
	}
	st := freshCache.Stats()
	if st.Misses != 0 || st.WarmHits != int64(len(parseTexts)) {
		t.Errorf("warm parse stats = %+v, want 0 misses / %d warm hits", st, len(parseTexts))
	}
	out, ok := freshEval.View(ps).Lookup(snippet, func(string) (string, bool) { return "", false })
	if !ok {
		t.Fatal("reloaded eval snippet missed")
	}
	if len(out) != len(res.Values) {
		t.Errorf("reloaded eval values = %v, want %v", out, res.Values)
	}
}

func TestLoadCacheSnapshotMissingFile(t *testing.T) {
	cache := pipeline.NewCache(0, 0)
	_, err := LoadCacheSnapshot(context.Background(), filepath.Join(t.TempDir(), "nope.snap"), cache, nil)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want os.ErrNotExist", err)
	}
	if IsSnapshotCorrupt(err) {
		t.Error("missing file misclassified as corrupt")
	}
}

// TestLoadCacheSnapshotCorruptFile feeds garbage and a truncated valid
// snapshot to the loader: both must report corruption, leave the
// caches usable, and never panic — a corrupt snapshot is a cold start,
// not a crash.
func TestLoadCacheSnapshotCorruptFile(t *testing.T) {
	ps, err := frontend.Get("powershell")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	garbage := filepath.Join(dir, "garbage.snap")
	if err := os.WriteFile(garbage, []byte("definitely not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "truncated.snap")
	valid := filepath.Join(dir, "valid.snap")
	cache := pipeline.NewCache(0, 0)
	if _, err := cache.Parse(ps, "Write-Host 'seed'"); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveCacheSnapshot(valid, cache, nil); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(valid)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(truncated, b[:len(b)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{garbage, truncated} {
		fresh := pipeline.NewCache(0, 0)
		_, err := LoadCacheSnapshot(context.Background(), path, fresh, nil)
		if !IsSnapshotCorrupt(err) {
			t.Errorf("%s: err = %v, want snapshot-corrupt sentinel", filepath.Base(path), err)
		}
		// The cache must remain fully usable after a failed load.
		if _, err := fresh.Parse(ps, "Write-Host 'after'"); err != nil {
			t.Errorf("%s: cache unusable after corrupt load: %v", filepath.Base(path), err)
		}
	}
}

// TestLoadCacheSnapshotSkipsUnknownLang: records for frontends not
// registered in this binary are dropped, not errors — snapshots are
// portable across builds with different language sets.
func TestLoadCacheSnapshotSkipsUnknownLang(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mixed.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	data := pipeline.SnapshotData{Parse: []pipeline.SnapshotEntry{
		{Lang: "powershell", Text: "Write-Host 'known'"},
		{Lang: "cobol", Text: "DISPLAY 'unknown'."},
	}}
	if err := pipeline.EncodeSnapshot(f, data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cache := pipeline.NewCache(0, 0)
	stats, err := LoadCacheSnapshot(context.Background(), path, cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ParseEntries != 2 || stats.ParseLoaded != 1 {
		t.Errorf("load stats = %+v, want 2 present / 1 loaded", stats)
	}
}
