package core

import (
	"context"
	"runtime"
	"sync"

	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
)

// BatchInput is one script submitted to DeobfuscateBatch.
type BatchInput struct {
	// Name labels the script in results (file path, sample ID, ...).
	Name string
	// Script is the source text.
	Script string
	// Lang selects the language frontend for this script, overriding
	// Options.Lang. Empty falls back to Options.Lang, then to per-script
	// auto-detection — a batch can mix languages freely.
	Lang string
}

// BatchResult is the outcome of one script in a batch run.
type BatchResult struct {
	// Name echoes the input's name.
	Name string
	// Index is the input's position; results are returned in input
	// order, so results[i].Index == i always holds.
	Index int
	// Result is the per-script outcome. Like DeobfuscateContext, it is
	// non-nil even for envelope violations that salvaged partial
	// progress (Stats.TimedOut set), and nil only when the run produced
	// nothing (invalid syntax, pre-start cancelation).
	Result *Result
	// Err is the per-script error, classifiable with errors.Is against
	// the taxonomy.
	Err error
}

// DeobfuscateBatch runs many scripts through the pipeline concurrently
// on a bounded worker pool (Options.Jobs workers; zero means
// GOMAXPROCS). Each script gets its own execution envelope — and, when
// Options.ScriptTimeout is set, its own deadline — so one pathological
// input times out alone instead of starving its siblings. All workers
// share one bounded parse cache: identical layers, wrappers and pieces
// across scripts (rampant in malware corpora, where one builder emits
// thousands of near-clones) tokenize and parse once.
//
// Results are returned in input order, one per input. Canceling ctx
// stops the pool promptly: scripts not yet started return ErrCanceled
// results.
func (d *Deobfuscator) DeobfuscateBatch(ctx context.Context, inputs []BatchInput) []BatchResult {
	// One parse cache and one evaluation cache for the whole batch.
	// Both are safe for concurrent use and bounded, so hostile inputs
	// cannot balloon them. Malware corpora are dominated by families
	// sharing obfuscated stagers verbatim: with the shared eval cache,
	// a pure piece interpreted for the first sample of a family is
	// replayed for every clone.
	cache := pipeline.NewCache(0, 0)
	var evalCache *pipeline.EvalCache
	if !d.opts.DisableEvalCache {
		evalCache = NewEvalCache(0, 0)
	}
	return d.DeobfuscateBatchShared(ctx, inputs, cache, evalCache)
}

// DeobfuscateBatchShared is DeobfuscateBatch over caller-owned caches,
// so a long-lived embedder (the HTTP server) can pool parse and
// evaluation work across many batch requests instead of starting each
// one cold. A nil cache gets a fresh batch-local one; a nil evalCache
// disables evaluation memoization for the batch (callers wanting the
// default behavior pass NewEvalCache(0, 0) unless
// Options.DisableEvalCache is set).
func (d *Deobfuscator) DeobfuscateBatchShared(ctx context.Context, inputs []BatchInput, cache *pipeline.Cache, evalCache *pipeline.EvalCache) []BatchResult {
	results := make([]BatchResult, len(inputs))
	if len(inputs) == 0 {
		return results
	}
	if cache == nil {
		cache = pipeline.NewCache(0, 0)
	}
	jobs := d.opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(inputs) {
		jobs = len(inputs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				in := inputs[i]
				sctx := ctx
				cancel := context.CancelFunc(func() {})
				if d.opts.ScriptTimeout > 0 {
					sctx, cancel = context.WithTimeout(ctx, d.opts.ScriptTimeout)
				}
				lang := in.Lang
				if lang == "" {
					lang = d.opts.Lang
				}
				res, err := d.deobfuscate(sctx, in.Script, lang, cache, evalCache)
				cancel()
				results[i] = BatchResult{Name: in.Name, Index: i, Result: res, Err: err}
			}
		}()
	}
feed:
	for i := range inputs {
		select {
		case idx <- i:
		case <-ctx.Done():
			// Mark everything not yet handed out; workers finish their
			// current script (their envelopes observe the cancelation).
			for j := i; j < len(inputs); j++ {
				results[j] = BatchResult{Name: inputs[j].Name, Index: j, Err: ErrCanceled}
			}
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return results
}
