package core

// Warm-restart cache persistence: gather the shared parse/eval caches
// into the pipeline snapshot format on the way down (graceful drain,
// periodic ticker) and re-derive them through the registered frontends
// on the way up. Only source texts are persisted — every artifact is
// recomputed by the current binary's parser/interpreter, so a snapshot
// written by one deploy is safe to load in the next even across parser
// changes, and a corrupt file degrades to a cold start.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/invoke-deobfuscation/invokedeob/internal/frontend"
	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
)

// snapshotEvalTimeout bounds the re-evaluation of one snapshot snippet
// at load time, so one pathological entry cannot stall startup.
const snapshotEvalTimeout = 500 * time.Millisecond

// SnapshotSaveStats describes one snapshot write.
type SnapshotSaveStats struct {
	// ParseEntries / EvalEntries count the records written per section.
	ParseEntries int
	EvalEntries  int
	// Bytes is the size of the written snapshot file.
	Bytes int64
}

// SnapshotLoadStats describes one snapshot load.
type SnapshotLoadStats struct {
	// ParseEntries / EvalEntries count the records present in the file.
	ParseEntries int
	EvalEntries  int
	// ParseLoaded / EvalLoaded count the records actually re-derived
	// into the caches (records for unregistered frontends, oversize
	// texts, or snippets that no longer evaluate purely are dropped).
	ParseLoaded int
	EvalLoaded  int
}

// SaveCacheSnapshot writes the current contents of the shared caches
// to path, atomically (temp file + rename). Either cache may be nil.
func SaveCacheSnapshot(path string, cache *pipeline.Cache, evalCache *pipeline.EvalCache) (SnapshotSaveStats, error) {
	var data pipeline.SnapshotData
	if cache != nil {
		data.Parse = cache.SnapshotTexts()
	}
	if evalCache != nil {
		data.Eval = evalCache.SnapshotSnippets()
	}
	stats := SnapshotSaveStats{ParseEntries: len(data.Parse), EvalEntries: len(data.Eval)}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return stats, fmt.Errorf("core: snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	if err := pipeline.EncodeSnapshot(tmp, data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return stats, fmt.Errorf("core: snapshot encode: %w", err)
	}
	if info, err := tmp.Stat(); err == nil {
		stats.Bytes = info.Size()
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return stats, fmt.Errorf("core: snapshot close: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return stats, fmt.Errorf("core: snapshot rename: %w", err)
	}
	return stats, nil
}

// LoadCacheSnapshot reads a snapshot from path and warms the given
// caches by re-deriving every record through its registered frontend:
// parse records are tokenized+parsed into the parse cache, eval
// records are re-evaluated (under a short per-snippet envelope) and
// inserted only when the evaluation is still pure and
// environment-independent. A missing file returns os.ErrNotExist; a
// corrupt or truncated file returns an error wrapping
// pipeline.ErrSnapshotCorrupt — in both cases the caches are left
// usable (cold or partially warmed), never poisoned. ctx cancelation
// stops the warm-up between records and returns ctx.Err().
func LoadCacheSnapshot(ctx context.Context, path string, cache *pipeline.Cache, evalCache *pipeline.EvalCache) (SnapshotLoadStats, error) {
	var stats SnapshotLoadStats
	f, err := os.Open(path)
	if err != nil {
		return stats, err
	}
	defer f.Close()
	data, err := pipeline.DecodeSnapshot(f)
	if err != nil {
		return stats, err
	}
	stats.ParseEntries = len(data.Parse)
	stats.EvalEntries = len(data.Eval)
	// Frontend lookups repeat heavily (few languages, many records);
	// memoize the registry answer, including the misses.
	frontends := make(map[string]frontend.Frontend)
	resolve := func(lang string) frontend.Frontend {
		fe, seen := frontends[lang]
		if !seen {
			fe, _ = frontend.Get(lang)
			frontends[lang] = fe
		}
		return fe
	}
	for _, e := range data.Parse {
		if ctx.Err() != nil {
			return stats, ctx.Err()
		}
		fe := resolve(e.Lang)
		if fe == nil {
			continue
		}
		if cache != nil && cache.Preload(fe, e.Text) {
			stats.ParseLoaded++
		}
	}
	for _, e := range data.Eval {
		if ctx.Err() != nil {
			return stats, ctx.Err()
		}
		fe := resolve(e.Lang)
		if fe == nil || evalCache == nil {
			continue
		}
		if loadEvalRecord(ctx, evalCache, fe, e.Text) {
			stats.EvalLoaded++
		}
	}
	return stats, nil
}

// loadEvalRecord re-evaluates one snapshot snippet and preloads the
// result when it is still safe to replay: the evaluation must succeed,
// report purity, and read no environment variables (the snapshot
// carries no binding environment to fingerprint against). A frontend
// without an evaluator fails with ErrUnsupported, dropping the record.
func loadEvalRecord(ctx context.Context, evalCache *pipeline.EvalCache, fe frontend.Frontend, snippet string) (loaded bool) {
	// A panicking frontend must not kill the warm-up; drop the record.
	defer func() {
		if recover() != nil {
			loaded = false
		}
	}()
	ectx, cancel := context.WithTimeout(ctx, snapshotEvalTimeout)
	defer cancel()
	res, err := fe.Evaluate(ectx, snippet, nil, frontend.EvalBudget{})
	if err != nil || !res.Pure || len(res.ReadVars) > 0 {
		return false
	}
	return evalCache.PreloadEval(fe, snippet, res.Values)
}

// IsSnapshotCorrupt reports whether err is the snapshot-corruption
// sentinel (as opposed to a missing file or I/O failure), for callers
// that want to log the two differently.
func IsSnapshotCorrupt(err error) bool {
	return errors.Is(err, pipeline.ErrSnapshotCorrupt)
}
