package pipeline

import (
	"container/list"
	"sync"
)

// EvalOps is the value-handling surface of a language frontend the
// evaluation cache needs: a namespace (the frontend name, so identical
// snippet bytes under different languages can never share an entry), a
// deep copier, and a retained-size estimator. The full
// frontend.Frontend interface satisfies EvalOps.
type EvalOps interface {
	// Name identifies the language; it namespaces every entry key.
	Name() string
	// CopyValue returns a deep, unaliased copy of v, or false to refuse
	// the value (reference types that cannot be safely shared).
	CopyValue(v any) (any, bool)
	// ValueSize estimates v's retained size in bytes.
	ValueSize(v any) int
}

// Evaluation-cache bounds. The eval cache is smaller than the parse
// cache because each entry retains output values in addition to the
// snippet text, and because only pure runs (a minority on hostile
// corpora) are cacheable at all.
const (
	// DefaultEvalMaxEntries bounds the number of cached (snippet,
	// binding-set) results.
	DefaultEvalMaxEntries = 2048
	// DefaultEvalMaxBytes bounds the total retained bytes (snippet text
	// + binding fingerprints + estimated value sizes).
	DefaultEvalMaxBytes = 8 << 20
	// maxCacheableSnippet is the largest snippet worth caching; larger
	// evaluations are rare and would evict the whole working set.
	maxCacheableSnippet = 1 << 20
	// maxEntriesPerSnippet bounds how many distinct binding-sets are
	// retained for one snippet text, so a snippet evaluated under
	// ever-changing bindings cannot grow an unbounded chain.
	maxEntriesPerSnippet = 8
)

// Binding is one (variable, value-fingerprint) pair of an evaluation's
// environment fingerprint: the exact preloaded variables the run read,
// with a collision-free textual fingerprint of each value at read time.
// Bindings are recorded sorted by name (the frontend's read-set order)
// so entry comparison is a single ordered walk.
type Binding struct {
	// Name is the normalized (lower-cased, scope-stripped) variable name.
	Name string
	// FP fingerprints the value: type tag plus exact rendered value.
	// For the scalar types the deobfuscator preloads (strings and
	// numbers) the rendering is injective, so equal fingerprints imply
	// equal values — a fingerprint match can never replay a wrong
	// result, unlike a truncated hash.
	FP string
}

// evalEntry is one cached pure evaluation: the recorded read-set and
// the deep-copied output values. Entries are immutable after insert;
// lookups copy the values out again so no caller ever aliases them.
type evalEntry struct {
	lang     string
	bindings []Binding
	values   []any
	bytes    int64 // retained-size share charged to the cache budget
	snippet  string
	// elem is the entry's node in the cache's LRU list.
	elem *list.Element
}

// EvalCacheStats is the eval cache's snapshot: the same counters as
// the parse cache's, Skips included.
type EvalCacheStats = CacheStats

// EvalCache memoizes the output values of pure, deterministic snippet
// evaluations, keyed by language plus exact snippet text plus the
// environment fingerprint (the sorted set of preloaded variables the
// run read and their values). It is the evaluation-phase sibling of
// the parse Cache: one mutex, one map from (language, snippet) to the
// snippet's binding-set chain, one LRU list, and global entry and byte
// budgets. It is safe for concurrent batch workers and observed
// through per-run EvalViews so trace attribution stays exact.
//
// The cache itself is value-agnostic: each view carries its
// frontend's EvalOps (deep copier + sizer) so the pipeline package
// needs no knowledge of interpreter value types, and an entry's values
// are always copied by the same language's copier that inserted them
// (keys are language-namespaced). Values are deep-copied on insert AND
// on every hit, so a splice that later mutates a returned slice can
// never corrupt the cache or another run.
type EvalCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	chains     map[cacheKey][]*evalEntry
	lru        *list.List // front = most recently used

	hits, misses, skips, evictions int64
}

// NewEvalCache returns an EvalCache bounded by maxEntries results and
// maxBytes of retained data. Non-positive bounds select the defaults.
// Value copying and sizing are supplied per view (EvalCache.View), so
// one shared cache can serve several language frontends.
func NewEvalCache(maxEntries int, maxBytes int64) *EvalCache {
	if maxEntries <= 0 {
		maxEntries = DefaultEvalMaxEntries
	}
	if maxBytes <= 0 {
		maxBytes = DefaultEvalMaxBytes
	}
	return &EvalCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		chains:     make(map[cacheKey][]*evalEntry),
		lru:        list.New(),
	}
}

// lookup finds a cached result for (lang, snippet) whose recorded
// bindings all match the currently visible values, returning deep
// copies of the cached output values, and counts the hit.
func (c *EvalCache) lookup(ops EvalOps, snippet string, visible func(name string) (fp string, ok bool)) ([]any, bool) {
	if len(snippet) > maxCacheableSnippet {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.chains[cacheKey{ops.Name(), snippet}] {
		if !bindingsMatch(e.bindings, visible) {
			continue
		}
		out, copied := copyValues(ops, e.values)
		if !copied {
			// Cannot happen for values that passed insert's copier, but
			// degrade to a miss rather than trust it.
			continue
		}
		c.lru.MoveToFront(e.elem)
		c.hits++
		return out, true
	}
	return nil, false
}

// bindingsMatch reports whether every recorded (name, fingerprint)
// pair is still visible with an identical fingerprint. The determinism
// argument: a pure run's output is a function of (snippet text,
// values of the variables it read). If all recorded reads resolve to
// the same values now, a re-evaluation would read exactly the same
// variables and produce exactly the same output — variables the run
// never read cannot influence it.
func bindingsMatch(bindings []Binding, visible func(string) (string, bool)) bool {
	for _, b := range bindings {
		fp, ok := visible(b.Name)
		if !ok || fp != b.FP {
			return false
		}
	}
	return true
}

// copyValues deep-copies a cached value slice through the view's ops.
func copyValues(ops EvalOps, values []any) ([]any, bool) {
	if values == nil {
		return nil, true
	}
	out := make([]any, len(values))
	for i, v := range values {
		cp, ok := ops.CopyValue(v)
		if !ok {
			return nil, false
		}
		out[i] = cp
	}
	return out, true
}

// insert stores a pure evaluation result and reports whether the cache
// holds it afterwards. It counts nothing: the caller attributes the
// evaluation. The values are deep-copied before retention; the result
// is refused when the snippet is oversize, the copier refuses a value,
// or the snippet's binding-set chain is full.
func (c *EvalCache) insert(ops EvalOps, snippet string, bindings []Binding, values []any) bool {
	if len(snippet) > maxCacheableSnippet {
		return false
	}
	lang := ops.Name()
	var size int64 = int64(len(lang)+len(snippet)) + 64
	for _, b := range bindings {
		size += int64(len(b.Name) + len(b.FP) + 32)
	}
	// Preserve nil-ness: a nil output slice must replay as nil, not as
	// an empty non-nil slice, so replays are indistinguishable from
	// the original evaluation.
	var stored []any
	if values != nil {
		stored = make([]any, len(values))
		for i, v := range values {
			cp, ok := ops.CopyValue(v)
			if !ok {
				return false
			}
			stored[i] = cp
			size += int64(ops.ValueSize(v))
		}
	}
	key := cacheKey{lang, snippet}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Dedup: a concurrent worker may have inserted the same result
	// already; cap per-snippet chains so one text cannot monopolize.
	chain := c.chains[key]
	for _, old := range chain {
		if equalBindings(old.bindings, bindings) {
			return true // already cached
		}
	}
	if len(chain) >= maxEntriesPerSnippet {
		return false
	}
	e := &evalEntry{lang: lang, snippet: snippet, bindings: bindings, values: stored, bytes: size}
	c.chains[key] = append(chain, e)
	e.elem = c.lru.PushFront(e)
	c.bytes += size
	for (c.lru.Len() > c.maxEntries || c.bytes > c.maxBytes) && c.lru.Len() > 1 {
		c.evictOldestLocked()
	}
	return true
}

func equalBindings(a, b []Binding) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// evictOldestLocked drops the least-recently-used entry. Callers hold
// c.mu.
func (c *EvalCache) evictOldestLocked() {
	victim := c.lru.Remove(c.lru.Back()).(*evalEntry)
	key := cacheKey{victim.lang, victim.snippet}
	chain := c.chains[key]
	for i, e := range chain {
		if e == victim {
			chain = append(chain[:i], chain[i+1:]...)
			break
		}
	}
	if len(chain) == 0 {
		delete(c.chains, key)
	} else {
		c.chains[key] = chain
	}
	c.bytes -= victim.bytes
	c.evictions++
}

// record counts one evaluation that ran the interpreter: a miss when
// its result was cached, a skip when it was not.
func (c *EvalCache) record(cached bool) {
	c.mu.Lock()
	if cached {
		c.misses++
	} else {
		c.skips++
	}
	c.mu.Unlock()
}

// Stats snapshots the eval-cache counters.
func (c *EvalCache) Stats() EvalCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return EvalCacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Skips:     c.skips,
		Evictions: c.evictions,
		Entries:   c.lru.Len(),
		Bytes:     c.bytes,
	}
}

// View returns a per-run accounting window onto the shared cache bound
// to one frontend's value operations. A nil receiver yields a nil
// view, and every EvalView method accepts a nil receiver as "caching
// disabled" — callers need no branching.
func (c *EvalCache) View(ops EvalOps) *EvalView {
	if c == nil {
		return nil
	}
	return &EvalView{c: c, ops: ops}
}

// EvalView is a single-run window onto a shared EvalCache, counting
// this run's hits/misses/skips for exact per-run trace attribution; the
// cache itself counts only its totals. Not safe for concurrent use;
// each run owns its own.
type EvalView struct {
	c   *EvalCache
	ops EvalOps
	// Hits, Misses and Skips count this view's requests only.
	Hits, Misses, Skips int64
}

// Enabled reports whether a cache backs this view.
func (v *EvalView) Enabled() bool { return v != nil && v.c != nil && v.ops != nil }

// Lookup searches for a cached result of snippet under the currently
// visible bindings. visible maps a normalized variable name to its
// value fingerprint. On a hit the returned values are fresh deep
// copies owned by the caller. A miss is NOT counted here — the caller
// reports the evaluation's outcome through Insert or Skip so that
// uncacheable runs are attributed as skips, not misses.
func (v *EvalView) Lookup(snippet string, visible func(name string) (fp string, ok bool)) ([]any, bool) {
	if !v.Enabled() {
		return nil, false
	}
	out, ok := v.c.lookup(v.ops, snippet, visible)
	if ok {
		v.Hits++
	}
	return out, ok
}

// Insert stores a pure evaluation result under (snippet, bindings).
// The evaluation counts as a miss when the cache keeps the result
// (future lookups may hit) and as a skip when the cache refuses it.
func (v *EvalView) Insert(snippet string, bindings []Binding, values []any) {
	if !v.Enabled() {
		return
	}
	cached := v.c.insert(v.ops, snippet, bindings, values)
	if cached {
		v.Misses++
	} else {
		v.Skips++
	}
	v.c.record(cached)
}

// Skip records an evaluation whose result must not be cached (impure,
// failed, or uncacheable values).
func (v *EvalView) Skip() {
	if !v.Enabled() {
		return
	}
	v.Skips++
	v.c.record(false)
}
