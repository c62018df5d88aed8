package pipeline

// Tests for the shared cache tier: language namespacing, LRU recency,
// global entry/byte budgets, singleflight exactly-once and
// poison-safety, warm-restart preloading, snapshot encode/decode round
// trips, and corruption handling.

import (
	"bytes"
	"errors"
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
	if got := c.Entries(); got != 2 {
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
// budget and one byte budget over all keys: entries whose total stays
// under maxBytes are never evicted, whatever their content (and hence
// whatever their hash). A few large texts — each bigger than a
// sixteenth of the budget — plus many small ones stay resident.
func TestCacheBudgetsAreGlobal(t *testing.T) {
	t.Run("parse", func(t *testing.T) {
		c := NewCache(0, 0)
		l := newFakeLang()
		var texts []string
		var total int
		for i := 0; i < 3; i++ { // 3 x 3 MiB: each under maxCacheableText
			texts = append(texts, fmt.Sprintf("%d", i)+strings.Repeat("x", 3<<20))
		}
		for i := 0; i < 200; i++ {
			texts = append(texts, fmt.Sprintf("small-%d-", i)+strings.Repeat("y", 4<<10))
		}
		for _, text := range texts {
			total += len(text)
			if _, err := c.Parse(l, text); err != nil {
				t.Fatal(err)
			}
		}
		if total >= DefaultMaxBytes {
			t.Fatalf("fixture totals %d bytes, must stay under %d", total, DefaultMaxBytes)
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

func TestCachePreloadAndWarmHits(t *testing.T) {
	c := NewCache(0, 0)
	l := newFakeLang()
	if !c.Preload(l, "warm me") {
		t.Fatal("Preload returned false on a fresh entry")
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Errorf("Preload counted traffic: %+v, want 0 hits / 0 misses", st)
	}
	if st.Warmed != 1 {
		t.Errorf("Warmed = %d, want 1", st.Warmed)
	}
	parsesAfterPreload := l.parses.Load()
	if _, err := c.Parse(l, "warm me"); err != nil {
		t.Fatal(err)
	}
	if l.parses.Load() != parsesAfterPreload {
		t.Error("Parse after Preload re-derived the artifact")
	}
	st = c.Stats()
	if st.Hits != 1 || st.WarmHits != 1 {
		t.Errorf("stats after warm hit = %+v, want Hits=1 WarmHits=1", st)
	}
	// Preloading a live entry is a no-op, not a reset.
	if c.Preload(l, "warm me") {
		t.Error("Preload overwrote a live entry")
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

func TestEvalPreloadAndSnapshotSnippets(t *testing.T) {
	c := NewEvalCache(0, 0)
	ops := testOps()
	if !c.PreloadEval(ops, "'warm'", []any{"warm"}) {
		t.Fatal("PreloadEval refused a fresh zero-binding entry")
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Warmed != 1 {
		t.Errorf("stats after preload = %+v, want no traffic, Warmed=1", st)
	}
	v := c.View(ops)
	out, ok := v.Lookup("'warm'", func(string) (string, bool) { return "", false })
	if !ok || out[0] != "warm" {
		t.Fatalf("lookup of preloaded entry = %v ok=%t", out, ok)
	}
	if got := c.Stats().WarmHits; got != 1 {
		t.Errorf("WarmHits = %d, want 1", got)
	}
	// Snapshot excludes binding-dependent entries.
	v.Insert("$a", []Binding{{Name: "a", FP: "s:x"}}, []any{"bound"})
	snaps := c.SnapshotSnippets()
	if len(snaps) != 1 || snaps[0].Text != "'warm'" || snaps[0].Lang != "fake" {
		t.Errorf("SnapshotSnippets = %+v, want only the zero-binding entry", snaps)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	data := SnapshotData{
		Parse: []SnapshotEntry{
			{Lang: "powershell", Text: "Write-Host 'hi'"},
			{Lang: "javascript", Text: "console.log(1)"},
			{Lang: "powershell", Text: strings.Repeat("x", 4096)},
		},
		Eval: []SnapshotEntry{
			{Lang: "powershell", Text: "'a'+'b'"},
		},
	}
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, data); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Parse) != len(data.Parse) || len(got.Eval) != len(data.Eval) {
		t.Fatalf("round trip lost records: %d/%d parse, %d/%d eval",
			len(got.Parse), len(data.Parse), len(got.Eval), len(data.Eval))
	}
	for i := range data.Parse {
		if got.Parse[i] != data.Parse[i] {
			t.Errorf("parse record %d = %+v, want %+v", i, got.Parse[i], data.Parse[i])
		}
	}
	if got.Eval[0] != data.Eval[0] {
		t.Errorf("eval record = %+v, want %+v", got.Eval[0], data.Eval[0])
	}
}

func TestSnapshotEmptyRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, SnapshotData{}); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Parse) != 0 || len(got.Eval) != 0 {
		t.Errorf("empty snapshot decoded to %+v", got)
	}
}

// TestSnapshotCorruptionRejected mutilates a valid snapshot every way
// the loader must survive: truncation at each boundary, bad magic, bad
// version, insane counts, flipped payload bytes, trailing garbage. All
// must yield ErrSnapshotCorrupt — the caller then starts cold.
func TestSnapshotCorruptionRejected(t *testing.T) {
	var buf bytes.Buffer
	err := EncodeSnapshot(&buf, SnapshotData{
		Parse: []SnapshotEntry{{Lang: "powershell", Text: "Write-Host 'hi'"}},
		Eval:  []SnapshotEntry{{Lang: "powershell", Text: "'a'+'b'"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	mutate := func(name string, f func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			b := append([]byte(nil), valid...)
			b = f(b)
			if _, err := DecodeSnapshot(bytes.NewReader(b)); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Errorf("corrupt variant decoded without ErrSnapshotCorrupt: %v", err)
			}
		})
	}
	mutate("empty", func(b []byte) []byte { return nil })
	mutate("truncated-magic", func(b []byte) []byte { return b[:4] })
	mutate("truncated-header", func(b []byte) []byte { return b[:10] })
	mutate("truncated-mid-record", func(b []byte) []byte { return b[:len(b)/2] })
	mutate("truncated-checksum", func(b []byte) []byte { return b[:len(b)-2] })
	mutate("bad-magic", func(b []byte) []byte { b[0] ^= 0xFF; return b })
	mutate("bad-version", func(b []byte) []byte { b[8] = 0xEE; return b })
	mutate("insane-count", func(b []byte) []byte {
		b[12], b[13], b[14], b[15] = 0xFF, 0xFF, 0xFF, 0xFF
		return b
	})
	mutate("flipped-payload-byte", func(b []byte) []byte { b[len(b)-8] ^= 0x01; return b })
	mutate("trailing-garbage", func(b []byte) []byte { return append(b, 0xAA) })
}
