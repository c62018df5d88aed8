// Package jsfront is the seed JavaScript frontend: a tokenizer, a
// lexical validity check, and a static string-decoder pass that folds
// the obfuscation patterns dominating real-world JS droppers —
// hex/unicode/octal escape soup, string concatenation chains,
// String.fromCharCode tables, and array-join string tables.
//
// It deliberately stops short of an interpreter: everything it folds is
// statically decidable from the token stream, so the frontend has no
// Evaluate capability and leans entirely on the driver's fixpoint loop
// to collapse composed patterns. It exists to prove the engine core is
// language-agnostic and to seed the third-language path documented in
// DESIGN.md §12.
package jsfront

import (
	"context"
	"fmt"

	"github.com/invoke-deobfuscation/invokedeob/internal/frontend"
	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
)

func init() {
	frontend.Register(JS{})
}

// JS is the JavaScript string-decoder frontend.
type JS struct{}

// Name is the canonical language name.
func (JS) Name() string { return "javascript" }

// Tokenize produces the JS token stream ([]Token).
func (JS) Tokenize(src string) (any, error) { return Lex(src) }

// Script is the frontend's parse artifact: the token stream of a
// lexable, bracket-balanced script. The deobfuscator only rewrites at
// token granularity, so balance plus lexability is the validity
// contract — the same bar validOrRevert holds every rewrite to.
type Script struct {
	Toks []Token
}

// Parse checks that the brackets of src's token stream (toks, from
// Tokenize) balance, returning the token-stream artifact.
func (JS) Parse(src string, toks any) (any, error) {
	stream := toks.([]Token)
	var stack []byte
	for _, t := range stream {
		if t.Type != Punct || len(t.Text) != 1 {
			continue
		}
		switch t.Text[0] {
		case '(', '[', '{':
			stack = append(stack, t.Text[0])
		case ')', ']', '}':
			if len(stack) == 0 || stack[len(stack)-1] != opener(t.Text[0]) {
				return nil, fmt.Errorf("jsfront: unbalanced %q at %d", t.Text, t.Start)
			}
			stack = stack[:len(stack)-1]
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("jsfront: %d unclosed bracket(s)", len(stack))
	}
	return &Script{Toks: stream}, nil
}

func opener(closer byte) byte {
	switch closer {
	case ')':
		return '('
	case ']':
		return '['
	default:
		return '{'
	}
}

// Evaluate reports that the frontend has no evaluator.
func (JS) Evaluate(context.Context, string, map[string]any, frontend.EvalBudget) (frontend.EvalResult, error) {
	return frontend.EvalResult{}, frontend.ErrUnsupported
}

// CopyValue copies the immutable scalar types and refuses everything
// else. Nothing reaches the eval cache without an evaluator; this only
// satisfies pipeline.EvalOps.
func (JS) CopyValue(v any) (any, bool) {
	switch v.(type) {
	case nil, bool, int, int64, float64, string:
		return v, true
	}
	return nil, false
}

// ValueSize gives a rough scalar size estimate.
func (JS) ValueSize(v any) int {
	if s, ok := v.(string); ok {
		return len(s) + 16
	}
	return 16
}

// DefaultBlocklist reports no blocklist: the decoder never evaluates
// commands.
func (JS) DefaultBlocklist() map[string]bool { return nil }

// LayerPasses returns the fixpoint-loop passes: the one decode pass
// (honoring the AST-phase ablation switch, which governs recovery
// passes across frontends).
func (JS) LayerPasses(fr *frontend.Run) []pipeline.Pass {
	if fr.Opts.DisableASTPhase {
		return nil
	}
	r := &run{fr}
	return []pipeline.Pass{{Name: "jsdecode", Run: func(pc *pipeline.PassContext) {
		r.decodePhase(pc, pc.Doc)
	}}}
}

// FinalPasses: none — the frontend does not reformat or rename.
func (JS) FinalPasses(fr *frontend.Run) []pipeline.Pass { return nil }
