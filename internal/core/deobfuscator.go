// Package core implements the Invoke-Deobfuscation engine driver: the
// paper's three-phase AST-based, semantics-preserving deobfuscation
// pipeline, generalized over pluggable language frontends.
//
//  1. Token parsing (§III-A): lexical recovery of L1 obfuscation.
//  2. Recovery based on AST (§III-B): recoverable nodes are evaluated
//     under variable tracing (Algorithm 1), results are spliced strictly
//     in place, and multi-layer wrappers are unwrapped until a fixpoint.
//  3. Rename and reformat (§III-C): statistically random identifiers
//     become var{N}/func{N} and whitespace is normalized.
//
// The driver is language-neutral: it resolves a frontend.Frontend from
// the registry — by Options.Lang, or per script by auto-detection — and
// runs the passes that frontend supplies over a pipeline.Document.
// Every phase, and every per-splice validOrRevert syntax check (§IV-A),
// draws its artifacts from one bounded, content-keyed parse cache
// namespaced by language, and each pass execution is traced into
// Result.PassTrace.
//
// Importing this package alone registers no languages; callers import
// internal/frontends (or a specific frontend package) for that. The
// facade package does so for every embedder going through it.
//
// Every phase re-validates syntax and reverts on regression, so the
// output is always parseable and semantically consistent with the
// input.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/invoke-deobfuscation/invokedeob/internal/frontend"
	"github.com/invoke-deobfuscation/invokedeob/internal/limits"
	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
)

// Options configures the deobfuscator. The zero value enables every
// phase with the paper's defaults. It is an alias of frontend.Options,
// the one option surface shared by the driver and the frontends.
type Options = frontend.Options

// Stats counts the work performed during one deobfuscation (an alias
// of frontend.Stats).
type Stats = frontend.Stats

// Result is the outcome of a deobfuscation run.
type Result struct {
	// Script is the final deobfuscated script.
	Script string
	// Lang is the canonical name of the language frontend that handled
	// the run (explicit Options.Lang or the auto-detected guess).
	Lang string
	// Layers holds the script after each fixpoint iteration, innermost
	// last (useful for analysts, mirrors PSDecode's layer output).
	Layers []string
	// Stats describes the work performed.
	Stats Stats
	// PassTrace is the per-pass execution trace: one entry per pass in
	// first-run order, aggregated across fixpoint iterations (duration,
	// bytes in/out, reverts, parse-cache hits/misses).
	PassTrace []pipeline.PassStat
}

// Deobfuscator runs the three-phase pipeline.
type Deobfuscator struct {
	opts Options
}

// New returns a Deobfuscator with the given options.
func New(opts Options) *Deobfuscator {
	if opts.MaxIterations == 0 {
		opts.MaxIterations = 10
	}
	if opts.StepBudget == 0 {
		opts.StepBudget = 500_000
	}
	return &Deobfuscator{opts: opts}
}

// ErrInvalidSyntax reports that the input script does not parse.
var ErrInvalidSyntax = errors.New("core: input has invalid syntax")

// ErrBadLang reports an unknown Options.Lang / BatchInput.Lang,
// re-exported from the shared limits package.
var ErrBadLang = limits.ErrBadLang

// Deobfuscate runs the full pipeline on a script with no deadline. It
// is a thin wrapper over DeobfuscateContext.
func (d *Deobfuscator) Deobfuscate(src string) (*Result, error) {
	return d.DeobfuscateContext(context.Background(), src)
}

// DeobfuscateContext runs the full pipeline on a script under the
// execution envelope derived from ctx and the options: deadline /
// cancelation checks between phases and inside every interpreter run,
// per-piece memory budgets, and a total output cap across unwrapped
// layers. When the envelope is violated mid-run it returns the partial
// result (with Stats.TimedOut set) together with the taxonomy error —
// both return values are non-nil in that case.
func (d *Deobfuscator) DeobfuscateContext(ctx context.Context, src string) (*Result, error) {
	return d.deobfuscate(ctx, src, d.opts.Lang, nil, nil)
}

// NewEvalCache returns an evaluation cache suitable for sharing across
// the runs of a batch (or across languages: entries are namespaced by
// frontend, which also supplies the value copier and size estimator
// per run). Non-positive bounds select the pipeline defaults.
func NewEvalCache(maxEntries int, maxBytes int64) *pipeline.EvalCache {
	return pipeline.NewEvalCache(maxEntries, maxBytes)
}

// DeobfuscateShared is DeobfuscateContext drawing from caller-owned
// caches instead of per-run ones, for long-lived embedders (the HTTP
// server) that amortize parse and evaluation work across request
// boundaries the way DeobfuscateBatch amortizes across a batch. Both
// caches are bounded and safe for concurrent runs; a nil cache gets a
// fresh per-run one (and a nil evalCache follows Options.DisableEvalCache,
// exactly like DeobfuscateContext).
func (d *Deobfuscator) DeobfuscateShared(ctx context.Context, src string, cache *pipeline.Cache, evalCache *pipeline.EvalCache) (*Result, error) {
	return d.deobfuscate(ctx, src, d.opts.Lang, cache, evalCache)
}

// DeobfuscateSharedLang is DeobfuscateShared with a per-call language
// override, mirroring BatchInput.Lang: an empty lang falls back to
// Options.Lang, and an empty result of that falls back to per-script
// auto-detection. Serving frontends use it to honor a request-level
// language field without building one engine per language.
func (d *Deobfuscator) DeobfuscateSharedLang(ctx context.Context, src, lang string, cache *pipeline.Cache, evalCache *pipeline.EvalCache) (*Result, error) {
	if lang == "" {
		lang = d.opts.Lang
	}
	return d.deobfuscate(ctx, src, lang, cache, evalCache)
}

// resolveFrontend maps an explicit language name (or, when empty, the
// auto-detection guess for src) to a registered frontend.
func resolveFrontend(lang, src string) (frontend.Frontend, error) {
	if lang != "" {
		return frontend.Get(lang)
	}
	return frontend.DetectFrontend(src)
}

// deobfuscate is the pipeline driver behind DeobfuscateContext and
// DeobfuscateBatch. A nil cache gets a fresh per-run cache; batch runs
// pass a shared one so identical layers across scripts parse once. The
// same applies to evalCache: nil gets a fresh per-run evaluation cache
// (unless Options.DisableEvalCache), batch runs share one so identical
// pure pieces across scripts are interpreted once.
func (d *Deobfuscator) deobfuscate(ctx context.Context, src, lang string, cache *pipeline.Cache, evalCache *pipeline.EvalCache) (res *Result, err error) {
	defer limits.Recover("core.Deobfuscate", &err)
	start := time.Now()
	fe, err := resolveFrontend(lang, src)
	if err != nil {
		return nil, err
	}
	res = &Result{Lang: fe.Name()}
	env := frontend.NewEnvelope(ctx, d.opts.MaxOutputBytes)
	if cerr := env.Check(); cerr != nil {
		return nil, cerr
	}
	if cache == nil {
		cache = pipeline.NewCache(0, 0)
	}
	if evalCache == nil && !d.opts.DisableEvalCache {
		evalCache = NewEvalCache(0, 0)
	}
	doc := pipeline.NewDocument(src, cache.View(fe))
	pc := &pipeline.PassContext{Doc: doc, Eval: evalCache.View(fe)}
	runner := pipeline.NewRunner(nil)
	bl := d.opts.Blocklist
	if bl == nil {
		bl = fe.DefaultBlocklist()
	}
	r := &frontend.Run{Opts: &d.opts, Blocklist: bl, Stats: &res.Stats, Env: env}
	// Up-front validity check. The parse lands in the cache, so the
	// first ast-pass iteration (and the final safety net, if the script
	// never changes) reuses it instead of re-parsing.
	if _, perr := doc.AST(); perr != nil {
		// Wrap both sentinels so errors.Is sees ErrInvalidSyntax and,
		// for nesting-limit rejections, ErrParseDepth.
		return nil, fmt.Errorf("%w: %w", ErrInvalidSyntax, perr)
	}
	layers := fe.LayerPasses(r)
	for iter := 0; iter < d.opts.MaxIterations; iter++ {
		if env.Violated() {
			break
		}
		res.Stats.Iterations = iter + 1
		prev := doc.Text()
		for _, p := range layers {
			if rerr := runner.Run(p, pc); rerr != nil {
				break
			}
		}
		next := doc.Text()
		if next == prev {
			break
		}
		// Charge only the per-iteration growth: re-charging the full
		// layer every round would bill a large-but-legitimate script
		// MaxIterations times over. Bomb chains that genuinely expand
		// are billed in full where they unwrap (the frontend's payload
		// unwrapping).
		if env.ChargeOutput(len(next)-len(prev)) != nil {
			doc.SetText(prev)
			break
		}
		res.Layers = append(res.Layers, next)
	}
	if !env.Violated() {
		for _, p := range fe.FinalPasses(r) {
			if rerr := runner.Run(p, pc); rerr != nil {
				break
			}
		}
	}
	cur := doc.Text()
	// Final safety net: never emit something unparseable. Drawn from
	// the cache — when no pass changed the text this is the up-front
	// parse again, for free.
	if !doc.Valid() {
		if len(res.Layers) > 0 {
			cur = res.Layers[len(res.Layers)-1]
		} else {
			cur = src
		}
	}
	res.Script = cur
	res.PassTrace = runner.Trace().Stats()
	if pc.Eval != nil {
		res.Stats.EvalCacheHits = pc.Eval.Hits
		res.Stats.EvalCacheMisses = pc.Eval.Misses
		res.Stats.EvalCacheSkips = pc.Eval.Skips
	}
	res.Stats.Duration = time.Since(start)
	if envErr := env.Check(); envErr != nil {
		res.Stats.TimedOut = true
		return res, envErr
	}
	return res, nil
}
