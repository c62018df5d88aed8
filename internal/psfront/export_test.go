package psfront

import (
	"github.com/invoke-deobfuscation/invokedeob/internal/psast"
	"github.com/invoke-deobfuscation/invokedeob/internal/psinterp"
)

// PieceEval is one piece the ast phase interpreted: its snippet and
// bindings, the interpreter options, whether it ran on the parsed
// subtree (Node) or on a parse of the snippet, the interpreter itself
// (valid only during the callback) and the outcome.
type PieceEval struct {
	Snippet string
	Binds   map[string]any
	Opts    psinterp.Options
	Node    bool
	Interp  *psinterp.Interp
	Out     []any
	Err     error
}

// WatchPieceEvals calls f, possibly from several goroutines at once,
// for every piece the ast phase interprets until stop is called.
func WatchPieceEvals(f func(PieceEval)) (stop func()) {
	hook := func(e *pieceEval) {
		f(PieceEval{e.snippet, e.binds, e.opts, e.node, e.in, e.out, e.err})
	}
	pieceEvalHook.Store(&hook)
	return func() { pieceEvalHook.Store(nil) }
}

// SafeWalk is one safety walk of the ast phase, next to the full
// reference walk (fullSafePiece) run on the same piece: each one's
// answer and number of nodes visited.
type SafeWalk struct {
	Safe, FullSafe     bool
	Visits, FullVisits int
}

// WatchSafeWalks calls f, possibly from several goroutines at once,
// for every safety walk the ast phase makes until stop is called.
func WatchSafeWalks(f func(SafeWalk)) (stop func()) {
	hook := func(s *astState, n psast.Node, ctx visitCtx, safe bool, visits int) {
		fullSafe, fullVisits := s.fullSafePiece(n, ctx)
		f(SafeWalk{safe, fullSafe, visits, fullVisits})
	}
	safeWalkHook.Store(&hook)
	return func() { safeWalkHook.Store(nil) }
}
