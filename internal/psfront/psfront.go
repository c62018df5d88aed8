// Package psfront packages the paper's PowerShell deobfuscation phases
// as a registered language frontend.
//
//  1. Token parsing (§III-A): lexical recovery of L1 obfuscation —
//     ticking, random case, aliases — rewriting tokens in one forward
//     pass that yields the bytes of the paper's reverse-order rewrite.
//  2. Recovery based on AST (§III-B): recoverable nodes are evaluated
//     with the embedded interpreter under variable tracing (Algorithm 1),
//     results are spliced strictly in place, and multi-layer
//     Invoke-Expression / powershell -EncodedCommand wrappers are
//     unwrapped until a fixpoint.
//  3. Rename and reformat (§III-C): statistically random identifiers
//     become var{N}/func{N} and whitespace is normalized.
//
// The language-neutral driver (internal/core) resolves this frontend
// through the registry under the name "powershell" and runs the phases
// as passes over a pipeline.Document. Importing this package (directly
// or via internal/frontends) registers the frontend.
package psfront

import (
	"context"

	"github.com/invoke-deobfuscation/invokedeob/internal/frontend"
	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
	"github.com/invoke-deobfuscation/invokedeob/internal/psast"
	"github.com/invoke-deobfuscation/invokedeob/internal/psinterp"
	"github.com/invoke-deobfuscation/invokedeob/internal/psnames"
	"github.com/invoke-deobfuscation/invokedeob/internal/psparser"
	"github.com/invoke-deobfuscation/invokedeob/internal/pstoken"
)

func init() {
	frontend.Register(PS{})
}

// PS is the PowerShell frontend: full tokenizer, parser, embedded
// interpreter, and the paper's three phases as passes.
type PS struct{}

// Name is the canonical language name.
func (PS) Name() string { return "powershell" }

// Tokenize produces the PowerShell token stream ([]pstoken.Token).
func (PS) Tokenize(src string) (any, error) { return pstoken.Tokenize(src) }

// Parse produces the PowerShell AST (*psast.ScriptBlock) from src's
// token stream.
func (PS) Parse(src string, toks any) (any, error) {
	return psparser.ParseTokens(src, toks.([]pstoken.Token))
}

// Evaluate runs a snippet in a fresh bounded interpreter with the given
// variable preloads.
func (PS) Evaluate(ctx context.Context, snippet string, vars map[string]any, budget frontend.EvalBudget) (frontend.EvalResult, error) {
	in := psinterp.New(psinterp.Options{
		MaxSteps:      budget.MaxSteps,
		StrictVars:    true,
		MaxAllocBytes: budget.MaxAllocBytes,
		Ctx:           ctx,
	})
	for name, v := range vars {
		in.SetVar(name, v)
	}
	sb, err := psparser.Parse(snippet)
	if err != nil {
		return frontend.EvalResult{}, err
	}
	out, err := in.EvalScript(sb)
	if err != nil {
		return frontend.EvalResult{}, err
	}
	return frontend.EvalResult{Values: out}, nil
}

// CopyValue deep-copies an interpreter value for the shared eval cache.
func (PS) CopyValue(v any) (any, bool) { return psinterp.CopyValue(v) }

// ValueSize estimates an interpreter value's retained bytes.
func (PS) ValueSize(v any) int { return psinterp.ValueSize(v) }

// DefaultBlocklist is the paper's irrelevant-command blocklist.
func (PS) DefaultBlocklist() map[string]bool { return psnames.DefaultBlocklist() }

// LayerPasses returns the passes of the fixpoint loop (phases 1–2) in
// order, honoring the ablation switches. Nested payload layers call the
// phase implementations directly on forked Documents (see
// deobfuscateLayer for how the trace accounts for them).
func (PS) LayerPasses(fr *frontend.Run) []pipeline.Pass {
	r := &run{Run: fr}
	var passes []pipeline.Pass
	if !fr.Opts.DisableTokenPhase {
		passes = append(passes, pipeline.Pass{Name: "token", Run: func(pc *pipeline.PassContext) {
			r.tokenPhase(pc, pc.Doc)
		}})
	}
	if !fr.Opts.DisableASTPhase {
		passes = append(passes, pipeline.Pass{Name: "ast", Run: func(pc *pipeline.PassContext) {
			r.astPhase(pc, pc.Doc, 0)
		}})
	}
	return passes
}

// FinalPasses returns the once-only finishing passes (phase 3).
func (PS) FinalPasses(fr *frontend.Run) []pipeline.Pass {
	r := &run{Run: fr}
	var passes []pipeline.Pass
	if !fr.Opts.DisableRename {
		passes = append(passes, pipeline.Pass{Name: "rename", Run: func(pc *pipeline.PassContext) {
			r.renamePhase(pc, pc.Doc)
		}})
	}
	if !fr.Opts.DisableReformat {
		passes = append(passes, pipeline.Pass{Name: "reformat", Run: func(pc *pipeline.PassContext) {
			r.reformatPhase(pc, pc.Doc)
		}})
	}
	return passes
}

// run wraps the driver's per-run state for the phase implementations;
// the embedded Run promotes Opts, Blocklist, Stats and Env.
type run struct {
	*frontend.Run
	// recBytes is the bytes the ast phase's records hold (reuse.go),
	// summed over the layer being visited and the nested layers it is
	// unwrapping, whose records are all held at once.
	recBytes int
}

// The phase implementations predate the language-neutral artifact
// types; these helpers recover the concrete PowerShell artifacts from
// the cache's opaque values.

// docAST returns the Document's cached AST as a *psast.ScriptBlock.
func docAST(doc *pipeline.Document) (*psast.ScriptBlock, error) {
	v, err := doc.AST()
	if err != nil {
		return nil, err
	}
	return v.(*psast.ScriptBlock), nil
}

// docTokens returns the Document's cached token stream.
func docTokens(doc *pipeline.Document) ([]pstoken.Token, error) {
	v, err := doc.Tokens()
	if err != nil {
		return nil, err
	}
	return v.([]pstoken.Token), nil
}

// viewParse parses src through the run's cache view.
func viewParse(view *pipeline.View, src string) (*psast.ScriptBlock, error) {
	v, err := view.Parse(src)
	if err != nil {
		return nil, err
	}
	return v.(*psast.ScriptBlock), nil
}

// viewTokenize tokenizes src through the run's cache view.
func viewTokenize(view *pipeline.View, src string) ([]pstoken.Token, error) {
	v, err := view.Tokenize(src)
	if err != nil {
		return nil, err
	}
	return v.([]pstoken.Token), nil
}
