package pipeline

// Tests for the shared cache tier: language namespacing, LRU recency,
// global entry/byte budgets, concurrent misses keeping one artifact,
// and poison-safety.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCacheShardedLangNamespacing pins the cross-language invariant
// under repeated traffic: identical bytes under two languages stay two
// distinct entries, each parsed once, and each language's view counts
// only its own hits and misses. (The name predates the one-lock cache;
// the invariant does not depend on how the cache is locked.)
func TestCacheShardedLangNamespacing(t *testing.T) {
	c := NewCache(0, 0)
	ps := &fakeLang{name: "powershell"}
	js := &fakeLang{name: "javascript"}
	views := map[string]*View{"powershell": c.View(ps), "javascript": c.View(js)}
	const src = "shared-bytes('x')"
	for i := 0; i < 2; i++ {
		for _, v := range []*View{views["powershell"], views["javascript"]} {
			if _, err := v.Parse(src); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := c.Stats().Entries; got != 2 {
		t.Errorf("identical bytes under two langs: %d entries, want 2", got)
	}
	if ps.parses.Load() != 1 || js.parses.Load() != 1 {
		t.Errorf("parse counts ps=%d js=%d, want 1 each", ps.parses.Load(), js.parses.Load())
	}
	for lang, v := range views {
		if v.Hits != 1 || v.Misses != 1 {
			t.Errorf("%s view = %d hits / %d misses, want 1 / 1", lang, v.Hits, v.Misses)
		}
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 2 {
		t.Errorf("cache = %d hits / %d misses, want the views' sum 2 / 2", st.Hits, st.Misses)
	}
}

func TestCacheLRUEvictionOrder(t *testing.T) {
	c := NewCache(3, 0)
	l := newFakeLang()
	for _, s := range []string{"a", "b", "c"} {
		if _, err := c.Parse(l, s); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a": under LRU it survives the next eviction; under the old
	// FIFO it would have been the first victim.
	if _, err := c.Parse(l, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Parse(l, "d"); err != nil { // evicts "b"
		t.Fatal(err)
	}
	parsesBefore := l.parses.Load()
	if _, err := c.Parse(l, "a"); err != nil {
		t.Fatal(err)
	}
	if l.parses.Load() != parsesBefore {
		t.Error("recently-used entry was evicted (FIFO behavior); want LRU")
	}
	if _, err := c.Parse(l, "b"); err != nil {
		t.Fatal(err)
	}
	if l.parses.Load() != parsesBefore+1 {
		t.Error("least-recently-used entry was not the eviction victim")
	}
}

// slowLang blocks inside Parse until released, and counts entries so
// the concurrency tests can assert how often a text was parsed.
type slowLang struct {
	name    string
	gate    chan struct{} // Parse blocks receiving from gate (nil = no block)
	parses  atomic.Int64
	panicIn atomic.Int64 // panic while > 0, decrementing per call
}

func (l *slowLang) Name() string                     { return l.name }
func (l *slowLang) Tokenize(src string) (any, error) { return src, nil }
func (l *slowLang) Parse(src string, _ any) (any, error) {
	l.parses.Add(1)
	if l.panicIn.Load() > 0 {
		l.panicIn.Add(-1)
		panic("slowLang: injected parser panic")
	}
	if l.gate != nil {
		<-l.gate
	}
	return "ast:" + src, nil
}

// stampLang is a slowLang whose every parse returns a distinct
// artifact, so which computation a caller got back is observable.
type stampLang struct{ slowLang }

func (l *stampLang) Parse(src string, toks any) (any, error) {
	ast, err := l.slowLang.Parse(src, toks)
	return &ast, err
}

// TestCacheHotKeyConcurrentMissesKeepFirst has many goroutines miss on
// one hot key at once, all blocked inside Parse, and then floods
// distinct keys so the hot entry is evicted while they compute. Each
// miss computes its own artifact; the first one stored is kept, and
// every goroutine must return that one, the artifact the slot holds.
// Memory stays bounded throughout. Run under -race this is also the
// data-race gate for the store.
func TestCacheHotKeyConcurrentMissesKeepFirst(t *testing.T) {
	const (
		workers    = 16
		churnKeys  = 512
		maxEntries = 128
		hotKey     = "the-one-hot-key"
	)
	c := NewCache(maxEntries, 0)
	hot := &stampLang{slowLang{name: "hot", gate: make(chan struct{})}}
	churn := newFakeLang()

	var wg sync.WaitGroup
	hotResults := make([]any, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ast, err := c.Parse(hot, hotKey)
			if err != nil {
				t.Errorf("hot parse: %v", err)
			}
			hotResults[w] = ast
		}(w)
	}
	// Wait until every request has missed and is blocked in Parse.
	deadline := time.Now().Add(10 * time.Second)
	for hot.parses.Load() < workers {
		if time.Now().After(deadline) {
			close(hot.gate)
			t.Fatalf("only %d of %d hot requests reached Parse", hot.parses.Load(), workers)
		}
		time.Sleep(time.Millisecond)
	}
	// Churn while the hot computations are still blocked: the flood
	// evicts the hot entry, which must not disturb the requests holding it.
	var churnWG sync.WaitGroup
	for w := 0; w < 4; w++ {
		churnWG.Add(1)
		go func(w int) {
			defer churnWG.Done()
			for i := 0; i < churnKeys; i++ {
				if _, err := c.Parse(churn, fmt.Sprintf("churn-%d-%d", w, i)); err != nil {
					t.Errorf("churn parse: %v", err)
				}
			}
		}(w)
	}
	churnWG.Wait()
	close(hot.gate)
	wg.Wait()

	if n := hot.parses.Load(); n != workers {
		t.Errorf("hot key parsed %d times by %d concurrent misses, want %d", n, workers, workers)
	}
	kept, ok := hotResults[0].(*any)
	if !ok || *kept != "ast:"+hotKey {
		t.Fatalf("hot result = %v, want a stamped artifact of %q", hotResults[0], hotKey)
	}
	for w, ast := range hotResults {
		if ast != kept {
			t.Errorf("worker %d got its own artifact, not the one the slot holds", w)
		}
	}
	st := c.Stats()
	if st.Entries > maxEntries {
		t.Errorf("entries = %d after churn, want <= %d", st.Entries, maxEntries)
	}
	if st.Evictions == 0 {
		t.Error("churn evicted nothing; the hot entry was never evicted mid-computation")
	}
	if st.Misses < workers {
		t.Errorf("misses = %d, want at least the %d hot misses", st.Misses, workers)
	}
}

// TestCacheBudgetsAreGlobal pins that both caches enforce one entry
// budget and one byte budget over all keys: entries whose total charge
// stays under maxBytes are never evicted, whatever their content (and
// hence whatever their hash). A few large texts — each charged more
// than a sixteenth of the budget — plus many small ones stay resident.
func TestCacheBudgetsAreGlobal(t *testing.T) {
	t.Run("parse", func(t *testing.T) {
		c := NewCache(0, 0)
		l := newFakeLang()
		var texts []string
		var total int64
		for i := 0; i < 3; i++ { // 3 texts charged 3 MiB each
			texts = append(texts, fmt.Sprintf("%d", i)+strings.Repeat("x", (3<<20)/bytesPerSourceByte))
		}
		for i := 0; i < 200; i++ {
			texts = append(texts, fmt.Sprintf("small-%d-", i)+strings.Repeat("y", 1<<10))
		}
		for _, text := range texts {
			total += entryBytes(text)
			if _, err := c.Parse(l, text); err != nil {
				t.Fatal(err)
			}
		}
		if total >= DefaultMaxBytes {
			t.Fatalf("fixture charges %d bytes, must stay under %d", total, DefaultMaxBytes)
		}
		st := c.Stats()
		if st.Evictions != 0 || st.Entries != len(texts) {
			t.Errorf("stats = %+v, want %d entries and no evictions", st, len(texts))
		}
		parses := l.parses.Load()
		for _, text := range texts {
			c.Parse(l, text)
		}
		if l.parses.Load() != parses {
			t.Errorf("re-parsing resident texts cost %d parses, want 0", l.parses.Load()-parses)
		}
	})
	t.Run("eval", func(t *testing.T) {
		c := NewEvalCache(0, 0)
		v := c.View(testOps())
		noVars := func(string) (string, bool) { return "", false }
		var snippets []string
		for i := 0; i < 6; i++ { // 6 x 900 KiB: each under maxCacheableSnippet
			snippets = append(snippets, fmt.Sprintf("'%d", i)+strings.Repeat("x", 900<<10)+"'")
		}
		for i := 0; i < 200; i++ {
			snippets = append(snippets, fmt.Sprintf("'small-%d-", i)+strings.Repeat("y", 4<<10)+"'")
		}
		for _, snippet := range snippets {
			v.Insert(snippet, nil, []any{"v"})
		}
		st := c.Stats()
		if st.Bytes >= DefaultEvalMaxBytes {
			t.Fatalf("fixture retains %d bytes, must stay under %d", st.Bytes, DefaultEvalMaxBytes)
		}
		if st.Evictions != 0 || st.Entries != len(snippets) {
			t.Errorf("stats = %+v, want %d entries and no evictions", st, len(snippets))
		}
		for _, snippet := range snippets {
			if _, ok := v.Lookup(snippet, noVars); !ok {
				t.Errorf("resident snippet of %d bytes missed", len(snippet))
				break
			}
		}
	})
}

// TestCacheLeaderPanicDoesNotPoison injects a parser panic into the
// request that computes an artifact and asserts (a) the panic
// propagates to that request alone and (b) the slot stays empty so a
// later request recomputes instead of inheriting a poisoned artifact.
func TestCacheLeaderPanicDoesNotPoison(t *testing.T) {
	c := NewCache(0, 0)
	l := &slowLang{name: "panicky"}
	l.panicIn.Store(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("leader did not observe its own parser panic")
			}
		}()
		c.Parse(l, "boom")
	}()
	ast, err := c.Parse(l, "boom")
	if err != nil || ast != "ast:boom" {
		t.Fatalf("retry after leader panic: ast=%v err=%v, want recomputed artifact", ast, err)
	}
	if n := l.parses.Load(); n != 2 {
		t.Errorf("parse called %d times, want 2 (panicked once, recomputed once)", n)
	}
}

// TestEvalCacheShardedLangNamespacing is the eval-cache sibling of
// TestCacheShardedLangNamespacing (same naming history).
func TestEvalCacheShardedLangNamespacing(t *testing.T) {
	c := NewEvalCache(0, 0)
	ps := c.View(fakeOps{name: "powershell"})
	js := c.View(fakeOps{name: "javascript"})
	noVars := func(string) (string, bool) { return "", false }
	const snippet = "'same bytes'"
	ps.Insert(snippet, nil, []any{"ps-result"})
	js.Insert(snippet, nil, []any{"js-result"})
	if got := c.Stats().Entries; got != 2 {
		t.Errorf("identical snippet under two langs: %d entries, want 2", got)
	}
	if out, ok := ps.Lookup(snippet, noVars); !ok || out[0] != "ps-result" {
		t.Errorf("powershell lookup = %v ok=%t", out, ok)
	}
	if out, ok := js.Lookup(snippet, noVars); !ok || out[0] != "js-result" {
		t.Errorf("javascript lookup = %v ok=%t", out, ok)
	}
	for lang, v := range map[string]*EvalView{"powershell": ps, "javascript": js} {
		if v.Hits != 1 || v.Misses != 1 {
			t.Errorf("%s view = %d hits / %d misses, want 1 / 1", lang, v.Hits, v.Misses)
		}
	}
}
