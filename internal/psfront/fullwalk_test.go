package psfront

import (
	"github.com/invoke-deobfuscation/invokedeob/internal/psast"
	"github.com/invoke-deobfuscation/invokedeob/internal/psinterp"
)

// fullSafePiece is the safety walk as it was before it stopped at
// folded literals, kept as the reference isSafePiece is checked
// against: it walks the piece's whole subtree, replaced descendants
// included. It also reports the number of nodes it visited.
func (s *astState) fullSafePiece(n psast.Node, ctx visitCtx) (bool, int) {
	safe, visits := true, 0
	var inspect func(node psast.Node, inScriptBlock bool)
	inspect = func(node psast.Node, inScriptBlock bool) {
		if node == nil || !safe {
			return
		}
		visits++
		switch x := node.(type) {
		case *psast.Command:
			name, ok := s.commandLiteralName(x)
			if !ok {
				safe = false
				return
			}
			canonical := psinterp.NormalizeCommandName(name)
			if s.r.Blocklist[canonical] {
				safe = false
				return
			}
			if !safeCommands[canonical] {
				if _, pure := s.safeFuncs[canonical]; !pure {
					safe = false
					return
				}
			}
		case *psast.VariableExpression:
			if !s.variableKnown(x.Name, ctx, inScriptBlock) {
				safe = false
				return
			}
		case *psast.ScriptBlockExpression:
			if x.Body != nil {
				for _, c := range x.Body.Children() {
					inspect(c, true)
				}
			}
			return
		case *psast.Assignment:
			// Local assignments inside the piece are fine; they are
			// scoped to the throwaway interpreter.
		}
		for _, c := range node.Children() {
			inspect(c, inScriptBlock)
		}
	}
	inspect(n, false)
	return safe, visits
}
