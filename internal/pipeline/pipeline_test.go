package pipeline

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeLang is a minimal Lang stub: the pipeline is language-neutral, so
// its tests run against a fake instead of a real frontend (which would
// also create an import cycle from in-package tests). Texts containing
// "INVALID" fail to parse, preserving the memoized-failure coverage.
// Call counters are atomic so the concurrency tests can assert
// memoization (each distinct text tokenizes/parses at most once).
type fakeLang struct {
	name      string
	tokenizes atomic.Int64
	parses    atomic.Int64
}

type fakeAST struct{ text string }

func (l *fakeLang) Name() string { return l.name }

func (l *fakeLang) Tokenize(src string) (any, error) {
	l.tokenizes.Add(1)
	return strings.Fields(src), nil
}

func (l *fakeLang) Parse(src string, _ any) (any, error) {
	l.parses.Add(1)
	if strings.Contains(src, "INVALID") {
		return nil, fmt.Errorf("fakeLang: syntax error in %q", src)
	}
	return &fakeAST{text: src}, nil
}

func newFakeLang() *fakeLang { return &fakeLang{name: "fake"} }

func TestCacheParseMemoized(t *testing.T) {
	c := NewCache(0, 0)
	l := newFakeLang()
	const src = "Write-Host hi"
	a1, err := c.Parse(l, src)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := c.Parse(l, src)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("second Parse of identical text returned a different AST pointer")
	}
	if n := l.parses.Load(); n != 1 {
		t.Errorf("frontend parsed %d times, want 1", n)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestCacheParseErrorsMemoized(t *testing.T) {
	c := NewCache(0, 0)
	l := newFakeLang()
	const bad = "INVALID («"
	if _, err := c.Parse(l, bad); err == nil {
		t.Fatal("want a parse error")
	}
	if _, err := c.Parse(l, bad); err == nil {
		t.Fatal("want the memoized parse error")
	}
	if n := l.parses.Load(); n != 1 {
		t.Errorf("failed text re-parsed: %d calls, want 1", n)
	}
	st := c.Stats()
	if st.Hits != 1 {
		t.Errorf("failed parse was not memoized: %+v", st)
	}
	if c.Valid(l, bad) {
		t.Error("Valid(bad) = true")
	}
	if !c.Valid(l, "Write-Host ok") {
		t.Error("Valid(good) = false")
	}
}

func TestCacheTokenizeMemoized(t *testing.T) {
	c := NewCache(0, 0)
	l := newFakeLang()
	const src = "Write-Host hi"
	t1, err := c.Tokenize(l, src)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := c.Tokenize(l, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.([]string)) == 0 || len(t2.([]string)) != len(t1.([]string)) {
		t.Errorf("token artifacts differ: %v vs %v", t1, t2)
	}
	if n := l.tokenizes.Load(); n != 1 {
		t.Errorf("frontend tokenized %d times, want 1", n)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestCacheNilLang(t *testing.T) {
	c := NewCache(0, 0)
	if _, err := c.Parse(nil, "x"); !errors.Is(err, ErrNoLang) {
		t.Errorf("Parse(nil) err = %v, want ErrNoLang", err)
	}
	if _, err := c.Tokenize(nil, "x"); !errors.Is(err, ErrNoLang) {
		t.Errorf("Tokenize(nil) err = %v, want ErrNoLang", err)
	}
	if c.Valid(nil, "x") {
		t.Error("Valid(nil lang) = true")
	}
}

// TestCacheLangNamespacing is the regression test for frontend-keyed
// caching: identical bytes submitted under two different languages must
// occupy two distinct entries and never serve each other's artifacts.
func TestCacheLangNamespacing(t *testing.T) {
	c := NewCache(0, 0)
	ps := &fakeLang{name: "powershell"}
	js := &fakeLang{name: "javascript"}
	psv, jsv := c.View(ps), c.View(js)
	const src = "shared bytes, different language"
	a1, err := psv.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := jsv.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Error("identical bytes under two languages shared one artifact")
	}
	if got := c.Stats().Entries; got != 2 {
		t.Errorf("entries = %d, want 2 (one per language)", got)
	}
	// Both were first requests for their language: two global misses.
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 0 hits / 2 misses", st)
	}
	// Each language hits only its own entry.
	if _, err := psv.Parse(src); err != nil {
		t.Fatal(err)
	}
	if psv.Hits != 1 || psv.Misses != 1 {
		t.Errorf("powershell view = %d hits / %d misses, want 1 / 1", psv.Hits, psv.Misses)
	}
	if jsv.Hits != 0 || jsv.Misses != 1 {
		t.Errorf("javascript view = %d hits / %d misses, want 0 / 1", jsv.Hits, jsv.Misses)
	}
	if ps.parses.Load() != 1 || js.parses.Load() != 1 {
		t.Errorf("parse calls = ps %d / js %d, want 1 each", ps.parses.Load(), js.parses.Load())
	}
}

func TestCacheEntryBound(t *testing.T) {
	c := NewCache(4, 0)
	l := newFakeLang()
	for i := 0; i < 20; i++ {
		c.Parse(l, fmt.Sprintf("Write-Host %d", i))
	}
	st := c.Stats()
	if st.Entries > 4 {
		t.Errorf("entries = %d, want <= 4", st.Entries)
	}
	if st.Evictions != 16 {
		t.Errorf("evictions = %d, want 16", st.Evictions)
	}
}

func TestCacheByteBound(t *testing.T) {
	// A budget of 64 source bytes: each ~40-byte script evicts its
	// predecessor.
	const budget = 64 * bytesPerSourceByte
	c := NewCache(0, budget)
	l := newFakeLang()
	for i := 0; i < 10; i++ {
		c.Parse(l, fmt.Sprintf("Write-Host %030d", i))
	}
	st := c.Stats()
	if st.Bytes > budget {
		t.Errorf("bytes = %d, want <= %d", st.Bytes, budget)
	}
	if st.Evictions == 0 {
		t.Error("no evictions under a 64-source-byte budget")
	}
	// Evicted texts still parse correctly (re-inserted as new entries).
	if _, err := c.Parse(l, fmt.Sprintf("Write-Host %030d", 0)); err != nil {
		t.Fatal(err)
	}
}

// TestOverBudgetEntryIsKept pins that a text charged more than the
// whole byte budget evicts the other entries but stays cached itself,
// so asking for it again does not parse it again.
func TestOverBudgetEntryIsKept(t *testing.T) {
	c := NewCache(0, 64*bytesPerSourceByte)
	l := newFakeLang()
	c.Parse(l, "Write-Host 1")
	big := "Write-Host " + strings.Repeat("a", 100)
	c.Parse(l, big)
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want the over-budget entry alone after 1 eviction", st)
	}
	parses := l.parses.Load()
	c.Parse(l, big)
	if n := l.parses.Load() - parses; n != 0 {
		t.Errorf("re-parsing the over-budget text cost %d parses, want 0", n)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(64, 0)
	l := newFakeLang()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				src := fmt.Sprintf("Write-Host %d", i%32)
				if _, err := c.Parse(l, src); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				c.Tokenize(l, src)
				c.Valid(l, "INVALID («") // memoized failure
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Error("no traffic recorded")
	}
}

func TestViewAccounting(t *testing.T) {
	c := NewCache(0, 0)
	l := newFakeLang()
	v1, v2 := c.View(l), c.View(l)
	v1.Parse("Write-Host shared") // miss (global), miss (v1)
	v2.Parse("Write-Host shared") // hit (global), but v2's own first request
	if v1.Misses != 1 || v1.Hits != 0 {
		t.Errorf("v1 = %d hits / %d misses, want 0/1", v1.Hits, v1.Misses)
	}
	if v2.Hits != 1 || v2.Misses != 0 {
		t.Errorf("v2 = %d hits / %d misses, want 1/0", v2.Hits, v2.Misses)
	}
}

func TestDocumentSetTextRevertHitsCache(t *testing.T) {
	c := NewCache(0, 0)
	doc := NewDocument("Write-Host original", c.View(newFakeLang()))
	if _, err := doc.AST(); err != nil {
		t.Fatal(err)
	}
	doc.SetText("Write-Host rewritten")
	if _, err := doc.AST(); err != nil {
		t.Fatal(err)
	}
	// Revert: the original's artifacts must come back from cache.
	doc.SetText("Write-Host original")
	if _, err := doc.AST(); err != nil {
		t.Fatal(err)
	}
	if v := doc.View(); v.Hits != 1 || v.Misses != 2 {
		t.Errorf("view = %d hits / %d misses, want 1/2", v.Hits, v.Misses)
	}
}

func TestDocumentForkSharesView(t *testing.T) {
	c := NewCache(0, 0)
	doc := NewDocument("Write-Host outer", c.View(newFakeLang()))
	if _, err := doc.AST(); err != nil {
		t.Fatal(err)
	}
	fork := doc.Fork("Write-Host outer") // payload identical to parent
	if fork.View() != doc.View() {
		t.Error("fork should share the parent's cache view")
	}
	if _, err := fork.AST(); err != nil {
		t.Fatal(err)
	}
	if v := doc.View(); v.Hits != 1 {
		t.Errorf("fork parse of identical text should hit: %d hits / %d misses", v.Hits, v.Misses)
	}
	if doc.Text() != "Write-Host outer" || fork.Len() != len("Write-Host outer") {
		t.Error("fork must not disturb the parent's text")
	}
}

func TestDocumentWithoutLang(t *testing.T) {
	doc := NewDocument("anything", nil)
	if _, err := doc.AST(); !errors.Is(err, ErrNoLang) {
		t.Errorf("AST() err = %v, want ErrNoLang", err)
	}
	if _, err := doc.Tokens(); !errors.Is(err, ErrNoLang) {
		t.Errorf("Tokens() err = %v, want ErrNoLang", err)
	}
	if doc.Valid() {
		t.Error("langless document reports valid")
	}
}

func TestTraceAggregation(t *testing.T) {
	tr := NewTrace()
	tr.Add(PassStat{Pass: "token", Runs: 1, Duration: 2 * time.Millisecond, SelfDuration: 2 * time.Millisecond,
		BytesIn: 100, BytesOut: 90, Reverts: 1, CacheHits: 3, CacheMisses: 2})
	tr.Add(PassStat{Pass: "ast", Runs: 1, Duration: time.Millisecond, SelfDuration: time.Millisecond / 2,
		BytesIn: 90, BytesOut: 50, CacheHits: 5, CacheMisses: 1, EvalHits: 2, EvalMisses: 1, EvalSkips: 1})
	tr.Add(PassStat{Pass: "token", Runs: 2, Duration: time.Millisecond, SelfDuration: time.Millisecond,
		BytesIn: 50, BytesOut: 40, Reverts: 2, CacheHits: 1})
	stats := tr.Stats()
	if len(stats) != 2 {
		t.Fatalf("got %d pass stats", len(stats))
	}
	tok := stats[0]
	if tok.Pass != "token" {
		t.Fatalf("first-run order broken: %q first", tok.Pass)
	}
	if tok.Runs != 3 || tok.Duration != 3*time.Millisecond || tok.Reverts != 3 {
		t.Errorf("token aggregate = %+v", tok)
	}
	if tok.SelfDuration != 3*time.Millisecond {
		t.Errorf("token self-duration = %v, want 3ms", tok.SelfDuration)
	}
	if ast := stats[1]; ast.SelfDuration != time.Millisecond/2 {
		t.Errorf("ast self-duration = %v, want 0.5ms", ast.SelfDuration)
	}
	if tok.BytesIn != 100 || tok.BytesOut != 40 {
		t.Errorf("token bytes = in %d out %d, want first-in 100 / last-out 40", tok.BytesIn, tok.BytesOut)
	}
	if tok.CacheHits != 4 || tok.CacheMisses != 2 {
		t.Errorf("token cache = %d/%d", tok.CacheHits, tok.CacheMisses)
	}
	ast := stats[1]
	if ast.EvalHits != 2 || ast.EvalMisses != 1 || ast.EvalSkips != 1 {
		t.Errorf("ast eval cache = %d/%d/%d", ast.EvalHits, ast.EvalMisses, ast.EvalSkips)
	}
}

func TestTraceRunRecordsPassExecution(t *testing.T) {
	c := NewCache(0, 0)
	doc := NewDocument("Write-Host before", c.View(newFakeLang()))
	tr := NewTrace()
	pass := Pass{Name: "demo", Run: func(pc *PassContext) {
		if _, err := pc.Doc.AST(); err != nil { // one cache miss
			t.Fatal(err)
		}
		pc.Doc.SetText("Write-Host after!")
		pc.Reverts++
	}}
	tr.Run(pass, &PassContext{Doc: doc})
	stats := tr.Stats()
	if len(stats) != 1 {
		t.Fatalf("got %d stats", len(stats))
	}
	st := stats[0]
	if st.Pass != "demo" || st.Runs != 1 || st.Reverts != 1 {
		t.Errorf("stat = %+v", st)
	}
	if st.BytesIn != len("Write-Host before") || st.BytesOut != len("Write-Host after!") {
		t.Errorf("bytes = %d -> %d", st.BytesIn, st.BytesOut)
	}
	if st.CacheMisses != 1 {
		t.Errorf("cache misses = %d, want 1", st.CacheMisses)
	}
}

func TestOversizeTextBypassesCache(t *testing.T) {
	c := NewCache(0, 0)
	l := newFakeLang()
	big := "Write-Host " + strings.Repeat("a", maxCacheableText+1)
	// Oversize text must not enter the cache (would evict everything)...
	if _, err := c.Tokenize(l, big); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("oversize text was cached: %+v", st)
	}
	// ...and must not be counted as a hit: the bypass is a miss.
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Errorf("bypass accounting = %+v, want 0 hits / 1 miss", st)
	}
	// The bypass still delegates to the frontend each time.
	c.Tokenize(l, big)
	if n := l.tokenizes.Load(); n != 2 {
		t.Errorf("bypass tokenize calls = %d, want 2", n)
	}
}

// TestOversizeHostileTextSoak is the oversize path over hostile
// content (NUL bytes): a multi-MiB text that gets an entry never linked
// into the cache. Against the stub Lang it is cheap enough for the
// default suite.
func TestOversizeHostileTextSoak(t *testing.T) {
	c := NewCache(0, 0)
	big := "Write-Host " + string(make([]byte, maxCacheableText+1))
	c.Tokenize(newFakeLang(), big)
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("oversize hostile text was cached: %+v", st)
	}
}

func TestCacheStatsHitRate(t *testing.T) {
	if (CacheStats{}).HitRate() != 0 {
		t.Error("zero-traffic parse hit rate should be 0")
	}
	if got := (CacheStats{Hits: 3, Misses: 1}).HitRate(); got != 0.75 {
		t.Errorf("parse hit rate = %v, want 0.75", got)
	}
	if (EvalCacheStats{}).HitRate() != 0 {
		t.Error("zero-traffic eval hit rate should be 0")
	}
	// Skips must not dilute the eval rate.
	if got := (EvalCacheStats{Hits: 1, Misses: 1, Skips: 100}).HitRate(); got != 0.5 {
		t.Errorf("eval hit rate = %v, want 0.5", got)
	}
}
