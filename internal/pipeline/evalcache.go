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
	// warm marks an entry preloaded from a warm-restart snapshot; hits
	// on it are counted separately as WarmHits.
	warm bool
	// elem is the entry's node in the cache's LRU list.
	elem *list.Element
}

// EvalCacheStats is a point-in-time snapshot of eval-cache
// effectiveness.
type EvalCacheStats struct {
	// Hits counts lookups answered from memory (interpreter runs saved).
	Hits int64
	// Misses counts lookups that had to evaluate.
	Misses int64
	// Skips counts evaluations that completed but were not cacheable
	// (impure, oversized, or holding uncopyable values).
	Skips int64
	// Evictions counts entries dropped to stay within bounds.
	Evictions int64
	// Entries is the current number of cached results.
	Entries int
	// Bytes is the current estimated retained size.
	Bytes int64
	// Warmed counts entries preloaded from a warm-restart snapshot.
	Warmed int64
	// WarmHits counts hits served by snapshot-preloaded entries.
	WarmHits int64
}

// HitRate returns Hits / (Hits + Misses), or 0 with no traffic. Skips
// are excluded: an uncacheable evaluation is not a cache miss, it was
// never a candidate.
func (s EvalCacheStats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// LangEvalStats is the per-language slice of an eval cache's traffic.
type LangEvalStats struct {
	// Hits / Misses / Skips count this language's evaluations only.
	Hits, Misses, Skips int64
}

// HitRate returns Hits / (Hits + Misses), or 0 with no traffic.
func (s LangEvalStats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

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
	warmed, warmHits               int64
	perLang                        map[string]*LangEvalStats
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
		perLang:    make(map[string]*LangEvalStats),
	}
}

// lookup finds a cached result for (lang, snippet) whose recorded
// bindings all match the currently visible values, returning deep
// copies of the cached output values, and counts the hit.
func (c *EvalCache) lookup(ops EvalOps, snippet string, visible func(name string) (fp string, ok bool)) ([]any, bool) {
	if len(snippet) > maxCacheableSnippet {
		return nil, false
	}
	lang := ops.Name()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.chains[cacheKey{lang, snippet}] {
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
		c.langStatsLocked(lang).Hits++
		if e.warm {
			c.warmHits++
		}
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

// insert stores a pure evaluation result. The values are deep-copied
// before retention; values the copier refuses make the whole result
// uncacheable (recorded as a skip).
func (c *EvalCache) insert(ops EvalOps, snippet string, bindings []Binding, values []any, warm bool) bool {
	lang := ops.Name()
	if len(snippet) > maxCacheableSnippet {
		c.recordSkip(lang)
		return false
	}
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
				c.recordSkip(lang)
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
		c.skips++
		c.langStatsLocked(lang).Skips++
		return false
	}
	e := &evalEntry{lang: lang, snippet: snippet, bindings: bindings, values: stored, bytes: size, warm: warm}
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

// langStatsLocked returns the per-language counter, creating it as
// needed. Callers hold c.mu.
func (c *EvalCache) langStatsLocked(lang string) *LangEvalStats {
	ls := c.perLang[lang]
	if ls == nil {
		ls = &LangEvalStats{}
		c.perLang[lang] = ls
	}
	return ls
}

func (c *EvalCache) recordSkip(lang string) {
	c.mu.Lock()
	c.skips++
	c.langStatsLocked(lang).Skips++
	c.mu.Unlock()
}

func (c *EvalCache) recordMiss(lang string) {
	c.mu.Lock()
	c.misses++
	c.langStatsLocked(lang).Misses++
	c.mu.Unlock()
}

// PreloadEval inserts a snapshot-derived zero-binding result, flagged
// warm. Unlike Insert it records neither a hit nor a miss (a restart
// is not traffic). Only environment-independent results are ever
// preloaded: a snapshot carries no binding environment, so results
// whose replay depends on one cannot be safely re-derived at load.
func (c *EvalCache) PreloadEval(ops EvalOps, snippet string, values []any) bool {
	if c == nil || ops == nil {
		return false
	}
	if !c.insert(ops, snippet, nil, values, true) {
		return false
	}
	c.mu.Lock()
	c.warmed++
	c.mu.Unlock()
	return true
}

// SnapshotSnippets returns the (language, snippet) pairs of every
// cached zero-binding result, oldest first, for warm-restart
// persistence. Entries with binding fingerprints are excluded: their
// replay depends on an environment the snapshot does not carry.
func (c *EvalCache) SnapshotSnippets() []SnapshotEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []SnapshotEntry
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*evalEntry)
		if len(e.bindings) == 0 {
			out = append(out, SnapshotEntry{Lang: e.lang, Text: e.snippet})
		}
	}
	return out
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
		Warmed:    c.warmed,
		WarmHits:  c.warmHits,
	}
}

// LangStats snapshots the per-language hit/miss/skip counters.
func (c *EvalCache) LangStats() map[string]LangEvalStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]LangEvalStats, len(c.perLang))
	for lang, ls := range c.perLang {
		out[lang] = *ls
	}
	return out
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
// this run's hits/misses/skips for exact per-run trace attribution.
// Not safe for concurrent use; each run owns its own.
type EvalView struct {
	c   *EvalCache
	ops EvalOps
	// Hits, Misses and Skips count this view's requests only.
	Hits, Misses, Skips int64
}

// Enabled reports whether a cache backs this view.
func (v *EvalView) Enabled() bool { return v != nil && v.c != nil && v.ops != nil }

// Cache returns the underlying shared cache (nil when disabled).
func (v *EvalView) Cache() *EvalCache {
	if v == nil {
		return nil
	}
	return v.c
}

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

// Insert stores a pure evaluation result under (snippet, bindings) and
// counts the evaluation as a miss (the work happened; future lookups
// may hit).
func (v *EvalView) Insert(snippet string, bindings []Binding, values []any) {
	if !v.Enabled() {
		return
	}
	v.Misses++
	v.c.recordMiss(v.ops.Name())
	v.c.insert(v.ops, snippet, bindings, values, false)
}

// Skip records an evaluation whose result must not be cached (impure,
// failed, or uncacheable values).
func (v *EvalView) Skip() {
	if !v.Enabled() {
		return
	}
	v.Skips++
	v.c.recordSkip(v.ops.Name())
}
