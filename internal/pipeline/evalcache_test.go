package pipeline

import (
	"fmt"
	"sync"
	"testing"
)

// fakeOps is a stub EvalOps with a slice-aware deep copier so the
// aliasing tests can detect shallow copies. The eval cache is
// language-neutral; tests run against a fake instead of a frontend.
type fakeOps struct{ name string }

func (o fakeOps) Name() string { return o.name }

func (o fakeOps) CopyValue(v any) (any, bool) {
	switch x := v.(type) {
	case string, int64, int, float64, bool, nil:
		return x, true
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			cp, ok := o.CopyValue(e)
			if !ok {
				return nil, false
			}
			out[i] = cp
		}
		return out, true
	}
	return nil, false
}

func (o fakeOps) ValueSize(v any) int {
	if s, ok := v.(string); ok {
		return len(s)
	}
	return 16
}

func testOps() fakeOps { return fakeOps{name: "fake"} }

func fpOf(env map[string]string) func(string) (string, bool) {
	return func(name string) (string, bool) {
		fp, ok := env[name]
		return fp, ok
	}
}

func TestEvalCacheHitRequiresSameBindings(t *testing.T) {
	c := NewEvalCache(0, 0)
	v := c.View(testOps())
	v.Insert("$a + $b", []Binding{{"a", "s:x"}, {"b", "i:2"}}, []any{"x2"})

	// Identical bindings: hit.
	out, ok := v.Lookup("$a + $b", fpOf(map[string]string{"a": "s:x", "b": "i:2"}))
	if !ok || len(out) != 1 || out[0] != "x2" {
		t.Fatalf("want hit [x2], got %v ok=%t", out, ok)
	}
	// Same text, different value of a read variable: miss.
	if _, ok := v.Lookup("$a + $b", fpOf(map[string]string{"a": "s:y", "b": "i:2"})); ok {
		t.Error("hit despite changed binding value")
	}
	// Same text, missing variable: miss.
	if _, ok := v.Lookup("$a + $b", fpOf(map[string]string{"a": "s:x"})); ok {
		t.Error("hit despite missing binding")
	}
	// Different text: miss.
	if _, ok := v.Lookup("$a + $c", fpOf(map[string]string{"a": "s:x", "b": "i:2"})); ok {
		t.Error("hit on different snippet text")
	}
	// Extra unrelated variables do not prevent a hit (the run never
	// read them).
	out, ok = v.Lookup("$a + $b", fpOf(map[string]string{"a": "s:x", "b": "i:2", "z": "s:junk"}))
	if !ok || out[0] != "x2" {
		t.Errorf("extra unread variables must not block a hit: %v ok=%t", out, ok)
	}
	if v.Hits != 2 || v.Misses != 1 {
		t.Errorf("view = %d hits / %d misses, want 2/1", v.Hits, v.Misses)
	}
}

// TestEvalCacheLangNamespacing: identical snippet bytes inserted under
// one language must be invisible to another language's view.
func TestEvalCacheLangNamespacing(t *testing.T) {
	c := NewEvalCache(0, 0)
	ps := c.View(fakeOps{name: "powershell"})
	js := c.View(fakeOps{name: "javascript"})
	ps.Insert("'a' + 'b'", nil, []any{"ab"})
	if _, ok := js.Lookup("'a' + 'b'", fpOf(nil)); ok {
		t.Error("javascript view hit a powershell entry")
	}
	if out, ok := ps.Lookup("'a' + 'b'", fpOf(nil)); !ok || out[0] != "ab" {
		t.Errorf("powershell view should hit its own entry: %v ok=%t", out, ok)
	}
	js.Insert("'a' + 'b'", nil, []any{"AB-js"})
	st := c.Stats()
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2 (one per language)", st.Entries)
	}
	if ps.Hits != 1 || ps.Misses != 1 {
		t.Errorf("powershell view = %d hits / %d misses, want 1 / 1", ps.Hits, ps.Misses)
	}
	if js.Hits != 0 || js.Misses != 1 {
		t.Errorf("javascript view = %d hits / %d misses, want 0 / 1", js.Hits, js.Misses)
	}
}

func TestEvalCacheNoBindingSnippets(t *testing.T) {
	c := NewEvalCache(0, 0)
	v := c.View(testOps())
	v.Insert("1 + 1", nil, []any{int64(2)})
	out, ok := v.Lookup("1 + 1", fpOf(nil))
	if !ok || out[0] != int64(2) {
		t.Fatalf("binding-free snippet should hit: %v ok=%t", out, ok)
	}
	// nil output values round-trip.
	v.Insert("$null", nil, nil)
	out, ok = v.Lookup("$null", fpOf(nil))
	if !ok || out != nil {
		t.Errorf("nil values should replay as nil: %v ok=%t", out, ok)
	}
}

func TestEvalCacheDeepCopiesBothWays(t *testing.T) {
	c := NewEvalCache(0, 0)
	v := c.View(testOps())
	orig := []any{[]any{"a", "b"}}
	v.Insert("x", nil, orig)
	// Mutating the inserted slice must not corrupt the cache.
	orig[0].([]any)[0] = "MUTATED"
	out, ok := v.Lookup("x", fpOf(nil))
	if !ok {
		t.Fatal("want hit")
	}
	if got := out[0].([]any)[0]; got != "a" {
		t.Errorf("insert did not deep-copy: cached %v", got)
	}
	// Mutating a hit's result must not corrupt later hits.
	out[0].([]any)[1] = "MUTATED"
	out2, _ := v.Lookup("x", fpOf(nil))
	if got := out2[0].([]any)[1]; got != "b" {
		t.Errorf("lookup did not deep-copy: second hit sees %v", got)
	}
}

func TestEvalCacheRefusedValuesAreSkips(t *testing.T) {
	c := NewEvalCache(0, 0)
	v := c.View(testOps())
	type opaque struct{}
	v.Insert("x", nil, []any{opaque{}}) // copier refuses
	if _, ok := v.Lookup("x", fpOf(nil)); ok {
		t.Error("uncopyable value was cached")
	}
	st := c.Stats()
	if st.Entries != 0 || st.Skips == 0 {
		t.Errorf("stats = %+v, want 0 entries and >0 skips", st)
	}
}

// TestEvalCountsEachEvaluationOnce: every evaluation that reaches the
// cache counts exactly once, as a miss when the cache keeps the result
// and as a skip otherwise, and the view and the shared cache agree.
func TestEvalCountsEachEvaluationOnce(t *testing.T) {
	c := NewEvalCache(0, 0)
	v := c.View(testOps())
	type opaque struct{}
	evaluations := 0
	insert := func(snippet string, bindings []Binding, values []any) {
		v.Insert(snippet, bindings, values)
		evaluations++
	}
	for i := 0; i < 3; i++ {
		insert(fmt.Sprintf("plain %d", i), nil, []any{int64(i)})
	}
	// The tenth and eleventh binding-sets find the chain full.
	for i := 0; i < maxEntriesPerSnippet+2; i++ {
		insert("$a", []Binding{{"a", fmt.Sprintf("i:%d", i)}}, []any{int64(i)})
	}
	insert("x", nil, []any{opaque{}})                             // copier refuses
	insert(string(make([]byte, maxCacheableSnippet+1)), nil, nil) // oversize
	v.Skip()
	v.Skip()
	evaluations += 2
	if _, ok := v.Lookup("plain 0", fpOf(nil)); !ok { // a hit is not an evaluation
		t.Fatal("want a hit on a cached result")
	}

	// Misses: the 3 plain results and a full chain. Skips: 2 chain
	// refusals, the uncopyable and oversize results, and 2 Skip calls.
	const wantMisses, wantSkips = 3 + maxEntriesPerSnippet, 2 + 1 + 1 + 2
	st := c.Stats()
	if v.Misses != wantMisses || v.Skips != wantSkips {
		t.Errorf("view = %d misses / %d skips, want %d / %d", v.Misses, v.Skips, wantMisses, wantSkips)
	}
	if st.Misses != v.Misses || st.Skips != v.Skips || st.Hits != v.Hits {
		t.Errorf("cache = %d/%d/%d hits/misses/skips, view = %d/%d/%d",
			st.Hits, st.Misses, st.Skips, v.Hits, v.Misses, v.Skips)
	}
	if got := st.Misses + st.Skips; got != int64(evaluations) {
		t.Errorf("cache misses + skips = %d, want %d evaluations", got, evaluations)
	}
}

func TestEvalCacheEntryAndByteBounds(t *testing.T) {
	c := NewEvalCache(4, 0)
	v := c.View(testOps())
	for i := 0; i < 20; i++ {
		v.Insert(fmt.Sprintf("snippet %d", i), nil, []any{int64(i)})
	}
	st := c.Stats()
	if st.Entries > 4 {
		t.Errorf("entries = %d, want <= 4", st.Entries)
	}
	if st.Evictions != 16 {
		t.Errorf("evictions = %d, want 16", st.Evictions)
	}
	// Byte budget: every entry charges at least snippet+64 bytes.
	cb := NewEvalCache(0, 256)
	vb := cb.View(testOps())
	for i := 0; i < 20; i++ {
		vb.Insert(fmt.Sprintf("snippet-%04d", i), nil, []any{"v"})
	}
	stb := cb.Stats()
	if stb.Bytes > 256 {
		t.Errorf("bytes = %d, want <= 256", stb.Bytes)
	}
	if stb.Evictions == 0 {
		t.Error("no evictions under a 256-byte budget")
	}
}

func TestEvalCachePerSnippetChainBound(t *testing.T) {
	c := NewEvalCache(0, 0)
	v := c.View(testOps())
	// One snippet under ever-changing bindings must not grow an
	// unbounded chain.
	for i := 0; i < 50; i++ {
		v.Insert("$a", []Binding{{"a", fmt.Sprintf("i:%d", i)}}, []any{int64(i)})
	}
	st := c.Stats()
	if st.Entries > maxEntriesPerSnippet {
		t.Errorf("entries = %d, want <= %d", st.Entries, maxEntriesPerSnippet)
	}
	// Duplicate insert dedups instead of adding an entry.
	before := c.Stats().Entries
	v.Insert("$a", []Binding{{"a", "i:0"}}, []any{int64(0)})
	if after := c.Stats().Entries; after != before {
		t.Errorf("duplicate insert grew the cache: %d -> %d", before, after)
	}
}

func TestEvalCacheOversizeSnippetNotCached(t *testing.T) {
	c := NewEvalCache(0, 0)
	v := c.View(testOps())
	big := string(make([]byte, maxCacheableSnippet+1))
	v.Insert(big, nil, []any{"x"})
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("oversize snippet was cached: %+v", st)
	}
	if _, ok := v.Lookup(big, fpOf(nil)); ok {
		t.Error("oversize lookup hit")
	}
}

func TestEvalViewNilReceiverSafe(t *testing.T) {
	var v *EvalView
	if v.Enabled() {
		t.Error("nil view enabled")
	}
	if _, ok := v.Lookup("x", fpOf(nil)); ok {
		t.Error("nil view hit")
	}
	v.Insert("x", nil, []any{"v"}) // must not panic
	v.Skip()                       // must not panic
	var c *EvalCache
	if c.View(testOps()) != nil {
		t.Error("nil cache yields non-nil view")
	}
	// A view with no ops is disabled too.
	live := NewEvalCache(0, 0)
	if live.View(nil).Enabled() {
		t.Error("ops-less view enabled")
	}
}

func TestEvalCacheConcurrent(t *testing.T) {
	c := NewEvalCache(64, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := c.View(testOps()) // each worker owns its view, like batch runs
			for i := 0; i < 200; i++ {
				snippet := fmt.Sprintf("s%d", i%16)
				env := fpOf(map[string]string{"a": "i:1"})
				if out, ok := v.Lookup(snippet, env); ok {
					if out[0] != snippet {
						t.Errorf("worker %d: wrong value %v for %s", w, out[0], snippet)
					}
					continue
				}
				v.Insert(snippet, []Binding{{"a", "i:1"}}, []any{snippet})
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("no traffic recorded: %+v", st)
	}
}
