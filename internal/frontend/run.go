package frontend

import (
	"time"
)

// Options configures a deobfuscation run. The zero value enables every
// phase with the paper's defaults and auto-detects the language.
// The engine driver (internal/core) aliases this type so embedders see
// one option surface.
type Options struct {
	// Lang names the language frontend ("powershell", "javascript",
	// or any registered alias). Empty means auto-detect per script.
	Lang string
	// MaxIterations bounds the multi-layer fixpoint loop. Zero means 10.
	MaxIterations int
	// StepBudget bounds interpreter work per recoverable piece. Zero
	// means 500k steps.
	StepBudget int
	// Blocklist overrides the frontend's default irrelevant-command
	// blocklist.
	Blocklist map[string]bool
	// DisableTokenPhase turns off phase 1 (ablation).
	DisableTokenPhase bool
	// DisableASTPhase turns off phase 2 (ablation).
	DisableASTPhase bool
	// DisableVariableTracing turns off the symbol table, reducing the
	// engine to context-free direct execution (ablation; emulates the
	// weakness the paper identifies in prior work).
	DisableVariableTracing bool
	// DisableRename turns off phase 3 renaming.
	DisableRename bool
	// DisableReformat turns off phase 3 reformatting.
	DisableReformat bool
	// FunctionTracing enables the extension the paper leaves as future
	// work (§V-C "Complex Obfuscation"): recovery through user-defined
	// decoder functions. A function qualifies when its body is pure —
	// only safe commands and no free variables beyond its parameters —
	// in which case calls to it become recoverable pieces with the
	// definition in scope. Off by default to match the paper's tool.
	FunctionTracing bool
	// MaxAllocBytes bounds the memory a single recoverable piece may
	// allocate in the embedded interpreter. Zero means the interpreter
	// default (64 MiB).
	MaxAllocBytes int64
	// MaxOutputBytes bounds the total bytes produced across all
	// unwrapped layers in one run (zip-bomb guard). Zero means 64 MiB.
	MaxOutputBytes int
	// DisableEvalCache turns off evaluation memoization: every
	// recoverable piece is interpreted from scratch even when an
	// identical (text, visible-bindings) pair was already evaluated in a
	// previous fixpoint iteration, a nested layer, or another script of
	// a batch. The cache is semantically gated (only pure, deterministic
	// runs are memoized), so disabling it changes performance only;
	// outputs are byte-identical either way.
	DisableEvalCache bool
	// Jobs bounds DeobfuscateBatch worker-pool concurrency. Zero means
	// GOMAXPROCS.
	Jobs int
	// ScriptTimeout, when positive, gives each script in a
	// DeobfuscateBatch run its own wall-clock deadline (derived from the
	// batch context), so one pathological script cannot starve its
	// siblings. Zero means only the batch context's deadline applies.
	ScriptTimeout time.Duration
}

// Stats counts the work performed during one deobfuscation.
type Stats struct {
	// TokensNormalized is the number of tokens rewritten by phase 1.
	TokensNormalized int
	// PiecesAttempted is the number of recoverable pieces evaluated.
	PiecesAttempted int
	// PiecesRecovered is the number of pieces replaced with literals.
	PiecesRecovered int
	// VariablesTraced is the number of variable values recorded.
	VariablesTraced int
	// VariablesInlined is the number of variable reads replaced.
	VariablesInlined int
	// LayersUnwrapped counts Invoke-Expression / -EncodedCommand layers
	// removed.
	LayersUnwrapped int
	// IdentifiersRenamed counts renamed variables and functions.
	IdentifiersRenamed int
	// Iterations is the number of fixpoint rounds executed.
	Iterations int
	// Duration is wall-clock deobfuscation time.
	Duration time.Duration
	// PiecesTimedOut counts pieces whose evaluation was cut off by the
	// context deadline or cancelation.
	PiecesTimedOut int
	// PiecesPanicked counts pieces whose evaluation hit an internal
	// panic that was converted to an error at an isolation barrier.
	PiecesPanicked int
	// PiecesOverBudget counts pieces whose evaluation exhausted the
	// interpreter memory budget.
	PiecesOverBudget int
	// TimedOut reports that the run as a whole was interrupted by the
	// envelope (deadline, cancelation or output budget) and the result
	// holds partial progress.
	TimedOut bool
	// EvalCacheHits counts piece evaluations answered from the
	// evaluation cache (interpreter runs skipped entirely).
	EvalCacheHits int64
	// EvalCacheMisses counts piece evaluations that ran the interpreter
	// and whose pure result was inserted into the cache.
	EvalCacheMisses int64
	// EvalCacheSkips counts piece evaluations that ran but were not
	// cached (impure, failed, or refused by the cache).
	EvalCacheSkips int64
	// SplicesApplied is always zero: every replacement batch rebuilds
	// its layer's text and parses it once, and none is spliced in by
	// re-parsing only the statements it touched. It stays because
	// perfbench reads it, and /statsz, which serializes Stats, reports
	// it as 0; it goes once perfbench no longer reads it.
	SplicesApplied int
	// SpliceFallbacks is always zero, and stays, as SplicesApplied does.
	SpliceFallbacks int
}

// Run carries the per-run state every pass shares: the run's options,
// the resolved blocklist, the stats being accumulated, and the
// execution envelope. Documents and the parse cache travel separately
// (on the pipeline.PassContext) so nested payload layers can fork
// Documents while drawing from the same cache.
type Run struct {
	// Opts is the run's option set (already defaulted by the driver).
	Opts *Options
	// Blocklist is the resolved irrelevant-command blocklist
	// (Opts.Blocklist or the frontend default).
	Blocklist map[string]bool
	// Stats accumulates the run's counters.
	Stats *Stats
	// Env is the run's execution envelope.
	Env *Envelope
}
