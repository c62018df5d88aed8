package psfront

import (
	"strings"

	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
	"github.com/invoke-deobfuscation/invokedeob/internal/psast"
	"github.com/invoke-deobfuscation/invokedeob/internal/psinterp"
)

// maxUnwrapDepth bounds nested layer recursion independently of the
// fixpoint loop.
const maxUnwrapDepth = 16

// tryUnwrapPipeline handles multi-layer obfuscation at statement level
// (paper §III-B4): Invoke-Expression and powershell -EncodedCommand
// carrying a now-literal payload are replaced by the recursively
// deobfuscated payload. Payload commands embedded mid-pipeline (the
// paper's third position test, `<obf>|out-null`) are replaced in place,
// parenthesized so the surrounding pipeline stays intact.
func (s *astState) tryUnwrapPipeline(p *psast.Pipeline, ctx visitCtx) {
	if s.depth >= maxUnwrapDepth {
		return
	}
	// Form 1: <literal> | iex  (also | & 'iex', | . ('iex')).
	if len(p.Elements) == 2 {
		last, ok := p.Elements[1].(*psast.Command)
		if ok && s.isInvokeExpression(last) && len(positionalArgs(last)) == 0 {
			if lit, ok := s.literalOfNode(p.Elements[0]); ok {
				if code, okStr := lit.(string); okStr {
					s.replaceWithInner(p, code, ctx)
					return
				}
			}
		}
	}
	for _, elem := range p.Elements {
		cmd, ok := elem.(*psast.Command)
		if !ok {
			continue
		}
		code, found := s.payloadOf(cmd)
		if !found {
			continue
		}
		if len(p.Elements) == 1 {
			s.replaceWithInner(p, code, ctx)
			return
		}
		s.replaceElementWithInner(cmd, code)
	}
}

// payloadOf extracts the literal payload of an unwrappable command:
// iex '<code>' in any spelling, or powershell -enc/-command.
func (s *astState) payloadOf(cmd *psast.Command) (string, bool) {
	if s.isInvokeExpression(cmd) {
		args := positionalArgs(cmd)
		if len(args) == 1 {
			if lit, ok := s.literalOfNode(args[0]); ok {
				if code, okStr := lit.(string); okStr {
					return code, true
				}
			}
		}
		return "", false
	}
	if name, ok := s.commandLiteralName(cmd); ok {
		switch psinterp.NormalizeCommandName(name) {
		case "powershell", "pwsh":
			return s.extractPowerShellPayload(cmd)
		}
	}
	return "", false
}

// isInvokeExpression recognizes the common Invoke-Expression spellings
// the paper lists: iex, Invoke-Expression, &'iex', .('iex'),
// .($pshome[4]+...+'x') after recovery, 'xxx'|iex, etc.
func (s *astState) isInvokeExpression(cmd *psast.Command) bool {
	name, ok := s.commandLiteralName(cmd)
	if !ok {
		return false
	}
	return psinterp.NormalizeCommandName(name) == "invoke-expression"
}

// positionalArgs returns the non-parameter arguments of a command.
func positionalArgs(cmd *psast.Command) []psast.Node {
	var out []psast.Node
	for _, a := range cmd.Args {
		if _, isParam := a.(*psast.CommandParameter); isParam {
			continue
		}
		out = append(out, a)
	}
	return out
}

// extractPowerShellPayload pulls the script carried by a powershell.exe
// invocation: -EncodedCommand (with PowerShell's prefix parameter
// matching, §III-B4), -Command, or a trailing literal.
func (s *astState) extractPowerShellPayload(cmd *psast.Command) (string, bool) {
	args := cmd.Args
	for i := 0; i < len(args); i++ {
		cp, isParam := args[i].(*psast.CommandParameter)
		if !isParam {
			continue
		}
		var valueNode psast.Node
		if cp.Argument != nil {
			valueNode = cp.Argument
		} else if i+1 < len(args) {
			if _, nextIsParam := args[i+1].(*psast.CommandParameter); !nextIsParam {
				valueNode = args[i+1]
			}
		}
		if valueNode == nil {
			continue
		}
		value, ok := s.literalOfNode(valueNode)
		var payload string
		if ok {
			payload = psinterp.ToString(value)
		} else if bare, isBare := valueNode.(*psast.StringConstant); isBare && bare.Bare {
			payload = bare.Value
		} else {
			continue
		}
		switch {
		case psinterp.IsEncodedCommandParameter(cp.Name):
			decoded, err := psinterp.DecodeEncodedCommand(payload)
			if err != nil {
				continue
			}
			// Validity is checked on the trimmed payload — the exact text
			// deobPayload parses next — so its gate parse is a cache hit
			// instead of a second parser invocation per layer.
			trimmedDec := strings.TrimSpace(decoded)
			if trimmedDec == "" || !s.view.Valid(trimmedDec) {
				continue
			}
			return decoded, true
		case psinterp.IsCommandParameter(cp.Name):
			return payload, true
		}
	}
	// Trailing literal command string: powershell "write-host hi".
	pos := positionalArgs(cmd)
	if len(pos) == 1 {
		if v, ok := s.literalOfNode(pos[0]); ok {
			if code, isStr := v.(string); isStr {
				return code, true
			}
		}
	}
	return "", false
}

// replaceWithInner substitutes a whole statement pipeline with the
// recursively deobfuscated payload code, keeping the original when the
// payload does not parse. On an assignment RHS, a multi-statement
// payload is wrapped in $( ) so the assigned value stays the payload's
// output.
func (s *astState) replaceWithInner(n psast.Node, code string, ctx visitCtx) {
	inner, stmts, ok := s.deobPayload(code)
	if !ok {
		return
	}
	if ctx.assignRHS && stmts > 1 {
		inner = "$(" + inner + ")"
	}
	s.setRepl(n, inner)
	s.r.Stats.LayersUnwrapped++
}

// replaceElementWithInner substitutes one pipeline element with the
// parenthesized payload, only when the payload is a single statement
// (so the surrounding pipeline remains syntactically and semantically
// intact).
func (s *astState) replaceElementWithInner(n psast.Node, code string) {
	inner, stmts, ok := s.deobPayload(code)
	if !ok || stmts != 1 {
		return
	}
	s.setRepl(n, "("+inner+")")
	s.r.Stats.LayersUnwrapped++
}

// deobPayload recursively deobfuscates a payload and reports its
// statement count. The payload's bytes are charged against the run's
// shared output budget before any work: refusing to unwrap once the
// budget is gone is what keeps decompression-bomb chains (each layer
// expanding the last) bounded. The payload becomes a forked Document
// over the run's shared parse cache, so a nested layer identical to
// text seen elsewhere in the run parses exactly once.
func (s *astState) deobPayload(code string) (string, int, bool) {
	trimmed := strings.TrimSpace(code)
	if trimmed == "" {
		return "", 0, false
	}
	if s.r.Env.Violated() || s.r.Env.ChargeOutput(len(trimmed)) != nil {
		return "", 0, false
	}
	// No up-front validation parse: an unparseable payload falls out of
	// the nested fixpoint unchanged (the token phase's ValidOrRevert
	// refuses to publish invalid rewrites, the ast phase cannot even
	// start on one) and the exit parse below rejects it — same decision,
	// one full-document parse fewer per unwrapped layer.
	endNested := s.pc.BeginNested()
	inner := s.r.deobfuscateLayer(s.pc, s.doc.Fork(trimmed), s.depth+1)
	endNested()
	root, err := viewParse(s.view, inner)
	if err != nil || root.Body == nil {
		return "", 0, false
	}
	return inner, len(root.Body.Statements), true
}

// deobfuscateLayer runs token parsing and AST recovery on a nested
// payload layer (multi-layer obfuscation), without rename/reformat,
// which only apply to the final script. It drives the same phase
// implementations as the registered passes, on a forked Document. Its
// reverts and cache traffic count toward the enclosing ast pass in the
// trace, and its time toward that pass's cumulative Duration only: the
// caller brackets it with BeginNested, which takes the time out of the
// pass's SelfDuration, so no pass's self time holds it.
func (r *run) deobfuscateLayer(pc *pipeline.PassContext, doc *pipeline.Document, depth int) string {
	for iter := 0; iter < r.Opts.MaxIterations; iter++ {
		if r.Env.Violated() {
			break
		}
		prev := doc.Text()
		if !r.Opts.DisableTokenPhase {
			r.tokenPhase(pc, doc)
		}
		if !r.Opts.DisableASTPhase {
			r.astPhase(pc, doc, depth)
		}
		next := doc.Text()
		if next == prev {
			break
		}
		// Growth-only charge, mirroring the top-level fixpoint loop;
		// deobPayload already charged this layer's full size on entry.
		if r.Env.ChargeOutput(len(next)-len(prev)) != nil {
			doc.SetText(prev)
			break
		}
	}
	return doc.Text()
}
