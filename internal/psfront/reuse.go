package psfront

import (
	"slices"
	"strings"
	"sync/atomic"

	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
	"github.com/invoke-deobfuscation/invokedeob/internal/psast"
	"github.com/invoke-deobfuscation/invokedeob/internal/psinterp"
)

// A piece whose value is an array, a byte[] or another value that is
// not spliced stays in the text, so the enclosing piece evaluates its
// subtree again: the bxor decoder runs its ForEach-Object pipeline once
// as a piece and again inside the -join around it. The ast phase
// instead keeps such a piece's value with what its run charged (a
// psinterp.Record), and an enclosing piece replays it in the
// descendant's place, through a psast.Evaluated node, where the rules
// below show the replay exact (DESIGN §3):
//
//  1. Only a run on the parsed subtree that succeeded and was pure
//     (not a cache hit, not a text fallback), with a value
//     psinterp.CopyValue copies, is recorded (evalPiece, keep).
//  2. Each variable the recorded run read has the same fingerprint in
//     the enclosing piece's bindings (usable).
//  3. The enclosing piece holds no writer anywhere, and no script block
//     or command that reads variables by name outside the descendants it
//     replays (scanPiece).
//  4. The interpreter replays a record only where its charges fit the
//     limits left, and otherwise evaluates the subtree
//     (psinterp.Interp.fits).
//  5. Records live until their top-level statement has been visited,
//     and the records of a run hold at most maxRecordBytes, those of
//     the nested layers it is unwrapping included.
//  6. Only writer-free pieces are recorded, so a scan stops at a
//     replayed descendant instead of walking it again.

// maxRecordBytes caps the bytes (psinterp.ValueSize) the records of a
// run hold at once (run.recBytes), the eval cache's default budget. A
// nested layer is unwrapped while the records of the statement holding
// it are kept, so its records count against the same cap. A value that
// does not fit is not recorded.
const maxRecordBytes = pipeline.DefaultEvalMaxBytes

// record is a piece's recorded value, as enclosing pieces replay it.
type record struct {
	rec *psinterp.Record
	// place is what goes in the piece's place in an enclosing piece: an
	// Evaluated node carrying rec, or for a pipeline of one expression
	// that pipeline around it.
	place psast.Node
	// fps are the fingerprints of the variables rec read, in its order.
	fps []string
	// glued is pieceTree.glued of the recorded run.
	glued bool
	// scan is the scanPiece call (astState.scans) that last found the
	// record usable; substitute replays it in that call's piece only.
	scan int
}

// keep records the value of piece n's run on tree, whose result is not
// spliced, for the enclosing pieces of its top-level statement.
func (s *astState) keep(n psast.Node, tree *pieceTree, in *psinterp.Interp, binds map[string]any) {
	w := recordHook.Load()
	if w != nil && !w.reuse {
		return
	}
	rec, ok := in.Record()
	if !ok {
		return
	}
	size := rec.Size()
	if s.r.recBytes+size > maxRecordBytes {
		return
	}
	writers := tree.writers
	if !tree.scanned {
		writers, _ = s.scanPiece(n, binds)
	}
	if writers {
		return
	}
	fps := make([]string, len(rec.Reads()))
	for i, name := range rec.Reads() {
		if fps[i], ok = valueFP(binds[name]); !ok {
			return
		}
	}
	tree.mark.Record = rec
	s.recs[n] = &record{rec: rec, place: tree.place, fps: fps, glued: tree.glued}
	start := n.Extent().Start
	i, _ := slices.BinarySearch(s.recStarts, start)
	s.recStarts = slices.Insert(s.recStarts, i, start)
	s.recBytes += size
	s.r.recBytes += size
	if w != nil {
		w.f(size, maxRecordBytes)
	}
}

// usable reports whether every variable r's run read has, in binds, the
// value it read (rule 2).
func (s *astState) usable(r *record, binds map[string]any) bool {
	for i, name := range r.rec.Reads() {
		v, ok := binds[name]
		if !ok {
			return false
		}
		if fp, ok := valueFP(v); !ok || fp != r.fps[i] {
			return false
		}
	}
	return true
}

// scanPiece walks piece n for rule 3. writers reports, anywhere in n, a
// node that writes variables or runs code the tree does not show: an
// assignment, ++ or --, a function definition, a foreach loop, which
// sets its variable, a call of a user function, whose body may assign
// an outer variable, or code built from a string at run time (a
// [scriptblock] cast, -as, a computed method name or a method that
// creates or invokes a script block). hazards reports a script block
// literal, or a Get-Variable or Get-Item, which read variables by name,
// outside the descendants n can replay under binds: a replay does not
// leave the $_ or $matches a full evaluation leaves behind, and only
// these could read them. The walk does not enter replaced nodes, whose
// subtrees the piece does not hold, nor replayable descendants, which
// hold no writer (rule 6); it stamps those with its call's number for
// substitute.
func (s *astState) scanPiece(n psast.Node, binds map[string]any) (writers, hazards bool) {
	s.scans++
	var walk func(x psast.Node)
	walk = func(x psast.Node) {
		if x == nil || writers {
			return
		}
		if x != n {
			if _, ok := s.repl[x]; ok {
				return
			}
			if r := s.recs[x]; r != nil && s.usable(r, binds) {
				r.scan = s.scans
				return
			}
		}
		switch y := x.(type) {
		case *psast.Assignment, *psast.FunctionDefinition, *psast.ForEach:
			writers = true
		case *psast.UnaryExpression:
			writers = y.Operator == "++" || y.Operator == "--"
		case *psast.BinaryExpression:
			writers = y.Operator == "-as"
		case *psast.ConvertExpression:
			writers = strings.Contains(strings.ToLower(y.TypeName), "scriptblock")
		case *psast.InvokeMemberExpression:
			writers = runsCode(y.Member)
		case *psast.Command:
			name, ok := s.commandLiteralName(y)
			writers = !ok || s.callsFunction(name)
			switch psinterp.NormalizeCommandName(name) {
			case "get-variable", "get-item":
				hazards = true
			}
		case *psast.ScriptBlockExpression:
			hazards = true
		}
		for _, c := range x.Children() {
			walk(c)
		}
	}
	walk(n)
	return writers, hazards
}

// runsCode reports a method name that may create or run a script block:
// a computed one, or [scriptblock]::Create, NewScriptBlock,
// InvokeScript, Invoke or InvokeReturnAsIs.
func runsCode(member psast.Node) bool {
	m, ok := member.(*psast.StringConstant)
	if !ok {
		return true
	}
	switch strings.ToLower(m.Value) {
	case "create", "newscriptblock", "invokescript", "invoke", "invokereturnasis":
		return true
	}
	return false
}

// callsFunction reports whether a command of this name runs a safe user
// function, which the interpreter looks up before the builtins.
func (s *astState) callsFunction(name string) bool {
	if len(s.safeFuncs) == 0 {
		return false
	}
	_, canonical := s.safeFuncs[psinterp.NormalizeCommandName(name)]
	_, raw := s.safeFuncs[strings.ToLower(name)]
	return canonical || raw
}

// recordedWithin reports whether a recorded piece starts inside ext.
func (s *astState) recordedWithin(ext psast.Extent) bool {
	i, _ := slices.BinarySearch(s.recStarts, ext.Start)
	return i < len(s.recStarts) && s.recStarts[i] < ext.End
}

// dropRecords forgets the records of the statement just visited, or of
// the layer at the end of its pass.
func (s *astState) dropRecords() {
	if len(s.recs) == 0 {
		return
	}
	clear(s.recs)
	s.recStarts = s.recStarts[:0]
	s.r.recBytes -= s.recBytes
	if w := recordHook.Load(); w != nil && w.f != nil {
		w.f(-s.recBytes, maxRecordBytes)
	}
	s.recBytes = 0
}

// recordWatch is a WatchRecords registration.
type recordWatch struct {
	reuse bool
	f     func(delta, limit int)
}

var recordHook atomic.Pointer[recordWatch]

// WatchRecords is a test seam. Until stop is called, every ast pass in
// the process records no piece value when reuse is false, so each piece
// evaluates its whole subtree; when reuse is true it records as usual
// and calls f, possibly from several goroutines at once, with the bytes
// each record it keeps adds (positive) and those each drop of records
// releases (negative), and the cap on what a run's records hold.
func WatchRecords(reuse bool, f func(delta, limit int)) (stop func()) {
	recordHook.Store(&recordWatch{reuse: reuse, f: f})
	return func() { recordHook.Store(nil) }
}
