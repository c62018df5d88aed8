// Package pipeline provides the language-neutral pass-pipeline
// architecture the deobfuscation engine is built on: a bounded,
// content-keyed parse cache shared by every phase of a run (and, in
// batch mode, across scripts), a Document type that lazily memoizes
// its token stream and AST through that cache, the Pass type the
// engine's phases are registered as, and a Trace that runs passes and
// records per-pass duration, bytes in/out, reverts and cache hit rates.
//
// The package knows nothing about any concrete language: tokenizing
// and parsing are delegated to a Lang (the structural subset of a
// frontend), artifacts are opaque `any` values the owning frontend
// asserts back to its concrete types, and every cache key is
// namespaced by the frontend's name so identical bytes submitted as
// different languages can never collide.
//
// The cache is the amortization foothold: the fixpoint loop, the
// validity check of each rebuilt layer, literal detection, piece
// evaluation, unwrap, rename and reformat all ask the same cache, so
// identical text is tokenized and parsed at most once per run instead
// of once per consumer. A text's AST is parsed from its cached token
// stream, so a text that is both tokenized and parsed is lexed once.
//
// For serving workloads one cache is shared by every request. It holds
// one mutex, one map keyed by (language, text), one LRU list and global
// entry/byte budgets. The lock guards only bookkeeping: tokenizing and
// parsing run outside it. Concurrent first requests for one text each
// compute it, the first result stored is kept, and every caller gets
// that one, as the eval cache does with concurrent inserts.
package pipeline

import (
	"container/list"
	"errors"
	"sync"
)

// Lang is the minimal structural surface of a language frontend the
// pipeline needs: a stable name (the cache namespace) and the two
// artifact producers. The full frontend.Frontend interface satisfies
// Lang; pipeline deliberately depends on nothing more so the frontend
// package can import pipeline without a cycle.
type Lang interface {
	// Name identifies the language ("powershell", "javascript"). It is
	// part of every cache key.
	Name() string
	// Tokenize produces the language's token-stream artifact.
	Tokenize(src string) (any, error)
	// Parse produces the language's AST artifact from src and the token
	// artifact Tokenize returned for it without error; it must not
	// modify toks, which the cache shares. A nil error means the source
	// is syntactically valid. When Tokenize fails, the cache reports
	// its error as the parse error and does not call Parse, so Parse's
	// own lexing errors must be Tokenize's.
	Parse(src string, toks any) (any, error)
}

// ErrNoLang is returned by Views and Documents that were constructed
// without a language.
var ErrNoLang = errors.New("pipeline: no language frontend attached")

// Default cache bounds. Hostile inputs that manufacture unbounded
// distinct sub-texts (every splice producing new candidate strings)
// cannot balloon the cache past these: the least-recently-used entries
// are evicted once either bound is exceeded.
const (
	// DefaultMaxEntries bounds the number of distinct cached texts.
	DefaultMaxEntries = 4096
	// DefaultMaxBytes bounds the total bytes the cached entries hold,
	// as entryBytes charges them.
	DefaultMaxBytes = 16 << 20
	// bytesPerSourceByte is what an entry is charged per byte of its
	// text: the text itself plus its token stream and AST. Measured over
	// 200 corpus scripts, an obfuscated text's tokens take 5.6 and its
	// AST 9.0 bytes per source byte (a clean text's 4.0 and 8.6).
	bytesPerSourceByte = 16
	// maxCacheableText is the largest single text worth caching; a
	// bigger text gets an entry of its own that is never linked into the
	// map, so every request for it parses it again. A smaller text
	// charged more than the whole byte budget (over 1 MiB under the
	// default) evicts every other entry and is kept alone, so a layer of
	// the largest script the server accepts still parses once.
	maxCacheableText = 4 << 20
)

// entryBytes is the byte-budget charge of an entry caching text.
func entryBytes(text string) int64 {
	return int64(len(text)) * bytesPerSourceByte
}

// cacheKey identifies one cached text: the language namespace plus the
// exact bytes. Both caches key their maps by it, so hash collisions are
// the map's concern and can never serve a wrong answer.
type cacheKey struct {
	lang string
	text string
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	// Hits counts artifact requests answered from memory.
	Hits int64
	// Misses counts artifact requests that had to tokenize or parse.
	Misses int64
	// Evictions counts entries dropped to stay within bounds.
	Evictions int64
	// Entries is the current number of cached texts.
	Entries int
	// Bytes is the current total the byte budget charges: text, tokens
	// and AST, estimated at bytesPerSourceByte per cached source byte.
	Bytes int64
	// CoalescedWaits is always zero: concurrent misses each compute, and
	// none waits on another. It stays because the benchmark reads it.
	CoalescedWaits int64
}

// HitRate returns Hits / (Hits + Misses), or 0 with no traffic. Serving
// frontends surface this per scrape; because Stats() snapshots the
// counters under the cache lock, the ratio is internally consistent
// even while concurrent requests keep hitting the cache.
func (s CacheStats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// LangCacheStats is the per-language slice of a cache's traffic,
// reported by LangStats so serving frontends can attribute hit rates
// to frontends without conflating mixed-language traffic.
type LangCacheStats struct {
	// Hits / Misses count this language's artifact requests only.
	Hits, Misses int64
}

// HitRate returns Hits / (Hits + Misses), or 0 with no traffic.
func (s LangCacheStats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// artifactSlot memoizes one artifact (token stream or AST) of one
// entry: done once a result, value or error, is stored. Slots are
// guarded by the owning Cache's lock.
type artifactSlot struct {
	done bool
	val  any
	err  error
}

// cacheEntry memoizes the artifacts of one exact (language, text)
// pair. An entry evicted while a request computes one of its artifacts
// stays valid for the requests already holding it.
type cacheEntry struct {
	key  cacheKey
	tok  artifactSlot
	ast  artifactSlot
	elem *list.Element // the entry's node in the LRU list; nil if unlinked
}

// Cache is a bounded, thread-safe memoization of tokenize/parse results
// keyed by (language, text), so the same bytes cached for one language
// are invisible to another. One Cache serves one deobfuscation run, or
// — in batch and server mode — is shared by all workers so identical
// layers across scripts parse once per language.
//
// One mutex guards the map, the LRU list, the byte total, the artifact
// slots and every counter. Tokenizing and parsing happen outside it
// (see artifact), so the lock is held only for bookkeeping. Eviction is
// least-recently-used against global entry and byte budgets.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	entries    map[cacheKey]*cacheEntry
	lru        *list.List // front = most recently used

	hits, misses, evictions int64
	perLang                 map[string]*LangCacheStats
}

// NewCache returns a Cache bounded by maxEntries texts and maxBytes of
// cached entries, as entryBytes charges them. Non-positive arguments
// select the defaults.
func NewCache(maxEntries int, maxBytes int64) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		entries:    make(map[cacheKey]*cacheEntry),
		lru:        list.New(),
		perLang:    make(map[string]*LangCacheStats),
	}
}

// entryLocked returns the entry for key, creating (and bounding) it as
// needed, and bumps it to most-recently-used. A text over
// maxCacheableText gets a fresh entry that is never linked into the
// map. Callers hold c.mu.
func (c *Cache) entryLocked(key cacheKey) *cacheEntry {
	if e := c.entries[key]; e != nil {
		c.lru.MoveToFront(e.elem)
		return e
	}
	e := &cacheEntry{key: key}
	if len(key.text) > maxCacheableText {
		return e
	}
	c.entries[key] = e
	e.elem = c.lru.PushFront(e)
	c.bytes += entryBytes(key.text)
	for (c.lru.Len() > c.maxEntries || c.bytes > c.maxBytes) && c.lru.Len() > 1 {
		victim := c.lru.Remove(c.lru.Back()).(*cacheEntry)
		delete(c.entries, victim.key)
		c.bytes -= entryBytes(victim.key.text)
		c.evictions++
	}
	return e
}

// recordLocked folds a hit/miss observation into the global and
// per-language counters. Callers hold c.mu.
func (c *Cache) recordLocked(lang string, hit bool) {
	ls := c.perLang[lang]
	if ls == nil {
		ls = &LangCacheStats{}
		c.perLang[lang] = ls
	}
	if hit {
		c.hits++
		ls.Hits++
	} else {
		c.misses++
		ls.Misses++
	}
}

// artifact returns one memoized artifact of src under language l —
// the token slot or the AST slot, as picked — and records the request
// as one hit or miss. On a miss compute runs outside the lock on the
// text's entry, and the caller gets what keep leaves in the slot. hit
// reports whether the value came from memory.
func (c *Cache) artifact(l Lang, src string, pick func(*cacheEntry) *artifactSlot, compute func(*cacheEntry) (any, error)) (val any, err error, hit bool) {
	lang := l.Name()
	c.mu.Lock()
	e := c.entryLocked(cacheKey{lang, src})
	slot := pick(e)
	hit, val, err = slot.done, slot.val, slot.err
	c.recordLocked(lang, hit)
	c.mu.Unlock()
	if !hit {
		val, err = compute(e)
		val, err = c.keep(slot, val, err)
	}
	return val, err, hit
}

// keep stores a computed result in slot unless another request stored
// one first, and returns what the slot holds, so every caller gets the
// same artifact. A compute that panics never gets here: the slot stays
// empty and the next request computes again.
func (c *Cache) keep(slot *artifactSlot, val any, err error) (any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !slot.done {
		*slot = artifactSlot{done: true, val: val, err: err}
	}
	return slot.val, slot.err
}

func tokSlot(e *cacheEntry) *artifactSlot { return &e.tok }
func astSlot(e *cacheEntry) *artifactSlot { return &e.ast }

// Tokenize returns the (possibly memoized) token artifact of src under
// language l. The returned artifact is shared: callers must not mutate
// it.
func (c *Cache) Tokenize(l Lang, src string) (any, error) {
	toks, err, _ := c.tokenize(l, src)
	return toks, err
}

func (c *Cache) tokenize(l Lang, src string) (any, error, bool) {
	if l == nil {
		return nil, ErrNoLang, false
	}
	return c.artifact(l, src, tokSlot, func(*cacheEntry) (any, error) { return l.Tokenize(src) })
}

// Parse returns the (possibly memoized) AST artifact of src under
// language l. The AST is parsed from the text's token slot, so a text
// that is both tokenized and parsed is lexed once, in whichever order
// the two are asked for; the token lookup is not counted as a request
// of its own. Parse errors are memoized too — a failed candidate
// rejected once by a validity check is never re-parsed. The returned
// AST is shared: callers must treat it as immutable (every consumer in
// this codebase walks ASTs read-only).
func (c *Cache) Parse(l Lang, src string) (any, error) {
	sb, err, _ := c.parse(l, src)
	return sb, err
}

func (c *Cache) parse(l Lang, src string) (any, error, bool) {
	if l == nil {
		return nil, ErrNoLang, false
	}
	return c.artifact(l, src, astSlot, func(e *cacheEntry) (any, error) { return c.parseEntry(l, src, e) })
}

// parseEntry parses src from its token artifact, taken from entry e's
// token slot, or lexed and kept there when the slot is empty, without
// counting a request.
func (c *Cache) parseEntry(l Lang, src string, e *cacheEntry) (any, error) {
	c.mu.Lock()
	toks, err, done := e.tok.val, e.tok.err, e.tok.done
	c.mu.Unlock()
	if !done {
		toks, err = l.Tokenize(src)
		toks, err = c.keep(&e.tok, toks, err)
	}
	if err != nil {
		return nil, err
	}
	return l.Parse(src, toks)
}

// Valid reports whether src parses under language l, through the cache.
func (c *Cache) Valid(l Lang, src string) bool {
	_, err := c.Parse(l, src)
	return err == nil
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.lru.Len(),
		Bytes:     c.bytes,
	}
}

// LangStats snapshots the per-language hit/miss counters.
func (c *Cache) LangStats() map[string]LangCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]LangCacheStats, len(c.perLang))
	for lang, ls := range c.perLang {
		out[lang] = *ls
	}
	return out
}

// View returns a per-run accounting view of the cache bound to one
// language. Views forward every request to the shared Cache but keep
// their own hit/miss counters, so per-pass trace attribution stays
// exact even when many batch workers share one Cache. A View is not
// safe for concurrent use; each run owns its own.
func (c *Cache) View(l Lang) *View {
	return &View{c: c, lang: l}
}

// View is a single-run, single-language window onto a shared Cache.
// See Cache.View.
type View struct {
	c    *Cache
	lang Lang
	// Hits and Misses count this view's requests only.
	Hits, Misses int64
}

func (v *View) observe(hit bool) {
	if hit {
		v.Hits++
	} else {
		v.Misses++
	}
}

// Tokenize is Cache.Tokenize with per-view accounting.
func (v *View) Tokenize(src string) (any, error) {
	toks, err, hit := v.c.tokenize(v.lang, src)
	v.observe(hit)
	return toks, err
}

// Parse is Cache.Parse with per-view accounting.
func (v *View) Parse(src string) (any, error) {
	sb, err, hit := v.c.parse(v.lang, src)
	v.observe(hit)
	return sb, err
}

// Valid reports whether src parses, with per-view accounting.
func (v *View) Valid(src string) bool {
	_, err := v.Parse(src)
	return err == nil
}

// defaultCache backs package-level conveniences (facade ValidSyntax):
// a process-wide bounded cache so repeated validity checks over the
// same scripts — corpus preprocessing, experiment funnels — parse once.
var defaultCache = NewCache(0, 0)

// DefaultCache returns the process-wide shared cache.
func DefaultCache() *Cache { return defaultCache }
