package pipeline

// Tests for the shared cache tier: language namespacing, LRU recency,
// global entry/byte budgets, and singleflight exactly-once and
// poison-safety.

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
// distinct entries, each parsed once, with per-language hit rates
// intact. (The name predates the one-lock cache; the invariant does
// not depend on how the cache is locked.)
func TestCacheShardedLangNamespacing(t *testing.T) {
	c := NewCache(0, 0)
	ps := &fakeLang{name: "powershell"}
	js := &fakeLang{name: "javascript"}
	const src = "shared-bytes('x')"
	if _, err := c.Parse(ps, src); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Parse(js, src); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Parse(ps, src); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Parse(js, src); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Entries; got != 2 {
		t.Errorf("identical bytes under two langs: %d entries, want 2", got)
	}
	if ps.parses.Load() != 1 || js.parses.Load() != 1 {
		t.Errorf("parse counts ps=%d js=%d, want 1 each", ps.parses.Load(), js.parses.Load())
	}
	byLang := c.LangStats()
	for _, lang := range []string{"powershell", "javascript"} {
		ls := byLang[lang]
		if ls.Hits != 1 || ls.Misses != 1 {
			t.Errorf("%s stats = %+v, want 1 hit / 1 miss", lang, ls)
		}
		if ls.HitRate() != 0.5 {
			t.Errorf("%s hit rate = %v, want 0.5", lang, ls.HitRate())
		}
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
// the coalescing tests can assert exactly-once computation.
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

// TestCacheHotKeyCoalescedExactlyOnce hammers one hot key from many
// goroutines and then floods distinct keys while the hot computation is
// still blocked, asserting the hot key is parsed exactly once per
// generation and memory stays bounded. A generation is the set of
// requests that joined one leader's flight: churn starts only after all
// followers are parked on it, so evicting the hot entry mid-flight must
// neither disturb them nor let the leader's result be lost. Run under
// -race this is also the data-race gate for the slot protocol.
func TestCacheHotKeyCoalescedExactlyOnce(t *testing.T) {
	const (
		workers    = 16
		churnKeys  = 512
		maxEntries = 128
	)
	c := NewCache(maxEntries, 0)
	hot := &slowLang{name: "hot", gate: make(chan struct{})}
	churn := newFakeLang()

	var wg sync.WaitGroup
	hotResults := make([]any, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ast, err := c.Parse(hot, "the-one-hot-key")
			if err != nil {
				t.Errorf("hot parse: %v", err)
			}
			hotResults[w] = ast
		}(w)
	}
	// Wait for the generation to form: one leader blocked in Parse, the
	// other workers-1 requests parked on its flight.
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().CoalescedWaits < workers-1 {
		if time.Now().After(deadline) {
			close(hot.gate)
			t.Fatalf("only %d of %d followers joined the hot flight", c.Stats().CoalescedWaits, workers-1)
		}
		time.Sleep(time.Millisecond)
	}
	// Churn while the hot computation is still blocked: the flood evicts
	// the hot entry, which must not disturb the in-flight singleflight.
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
	close(hot.gate) // release the hot-key leader
	wg.Wait()

	if n := hot.parses.Load(); n != 1 {
		t.Errorf("hot key parsed %d times across %d concurrent requests, want exactly 1", n, workers)
	}
	for _, ast := range hotResults {
		if ast != "ast:the-one-hot-key" {
			t.Errorf("hot result = %v, want shared artifact", ast)
		}
	}
	st := c.Stats()
	if st.Entries > maxEntries {
		t.Errorf("entries = %d after churn, want <= %d", st.Entries, maxEntries)
	}
	if st.Evictions == 0 {
		t.Error("churn evicted nothing; the hot entry was never evicted mid-flight")
	}
	if st.CoalescedWaits != workers-1 {
		t.Errorf("coalesced waits = %d, want %d", st.CoalescedWaits, workers-1)
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
// singleflight leader and asserts (a) the panic propagates to the
// leader alone and (b) the slot resets so a later request recomputes
// instead of inheriting a poisoned artifact.
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
	byLang := c.LangStats()
	for _, lang := range []string{"powershell", "javascript"} {
		if ls := byLang[lang]; ls.Hits != 1 || ls.Misses != 1 {
			t.Errorf("%s stats = %+v, want 1 hit / 1 miss", lang, ls)
		}
	}
}
