// Package frontend defines the language-frontend interface the
// deobfuscation engine is built around, plus the registry that maps
// language names to registered implementations.
//
// The paper's pipeline — tokenize, recover recoverable AST nodes by
// safe evaluation, rename, reformat — is not PowerShell-specific. A
// Frontend packages everything the language-neutral driver
// (internal/core) needs: artifact producers (Tokenize/Parse), a safe
// evaluator, a literal renderer, value copy/size operations for the
// shared evaluation cache, and the pass lists that make up the
// fixpoint loop and the finishing phases. The engine never imports a
// concrete language package; it resolves one through the registry by
// name (or auto-detection) and drives it through this interface.
//
// Frontends register themselves from an init function; importing
// internal/frontends (plural) links in every built-in language.
package frontend

import (
	"context"
	"errors"

	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
)

// ErrUnsupported reports that a frontend does not implement an
// optional operation (e.g. safe evaluation on a static-only frontend).
var ErrUnsupported = errors.New("frontend: operation not supported")

// EvalBudget bounds one snippet evaluation.
type EvalBudget struct {
	// MaxSteps bounds interpreter steps (0 = frontend default).
	MaxSteps int
	// MaxAllocBytes bounds interpreter allocations (0 = frontend
	// default).
	MaxAllocBytes int64
}

// EvalResult is the outcome of one snippet evaluation.
type EvalResult struct {
	// Values is the pipeline output of the snippet.
	Values []any
}

// Frontend is one language implementation. Its method set includes
// pipeline.Lang (Name/Tokenize/Parse) and pipeline.EvalOps
// (Name/CopyValue/ValueSize), so a Frontend plugs directly into the
// parse cache and the evaluation cache.
type Frontend interface {
	// Name is the canonical language name ("powershell", "javascript").
	// It namespaces every cache key.
	Name() string
	// Tokenize produces the language's token-stream artifact.
	Tokenize(src string) (any, error)
	// Parse produces the language's AST artifact from src and the
	// token artifact Tokenize returned for it without error, which it
	// must not modify; a nil error means src is syntactically valid.
	// The parse cache calls it with its cached tokens, so a text is
	// lexed once however many consumers ask for either artifact.
	Parse(src string, toks any) (any, error)
	// Evaluate runs a snippet in the frontend's bounded evaluator with
	// the given variable preloads. Frontends without an evaluator
	// return ErrUnsupported.
	Evaluate(ctx context.Context, snippet string, vars map[string]any, budget EvalBudget) (EvalResult, error)
	// CopyValue returns a deep, unaliased copy of an evaluator value
	// (or false to refuse reference types), for the shared eval cache.
	CopyValue(v any) (any, bool)
	// ValueSize estimates an evaluator value's retained bytes.
	ValueSize(v any) int
	// DefaultBlocklist is the language's default irrelevant-command
	// blocklist (nil when the language has none).
	DefaultBlocklist() map[string]bool
	// LayerPasses returns the passes of the per-layer fixpoint loop in
	// order, honoring the run's ablation options.
	LayerPasses(r *Run) []pipeline.Pass
	// FinalPasses returns the once-only finishing passes.
	FinalPasses(r *Run) []pipeline.Pass
}
