package psfront

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"github.com/invoke-deobfuscation/invokedeob/internal/frontend"
	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
	"github.com/invoke-deobfuscation/invokedeob/internal/psast"
	"github.com/invoke-deobfuscation/invokedeob/internal/psinterp"
	"github.com/invoke-deobfuscation/invokedeob/internal/psparser"
)

// varEntry is one symbol-table record of the variable-tracing pass
// (paper Algorithm 1): the traced value and the scope path where the
// assignment happened.
type varEntry struct {
	value any
	scope []int
}

// visitCtx carries the traversal context of Algorithm 1.
type visitCtx struct {
	scope       []int
	inLoop      bool
	inCond      bool
	inFunc      bool
	assignLHS   bool
	assignRHS   bool
	isStatement bool
	// argMode marks nodes the parser read in command-argument mode: a
	// command's name and arguments, and the targets of the member and
	// index chains built on them. There a literal glued to the next or
	// previous character re-lexes as part of a bare word.
	argMode bool
}

type astState struct {
	r   *run
	pc  *pipeline.PassContext
	doc *pipeline.Document
	// view is the run's parse-cache view; literal detection, payload
	// parsing and piece evaluation all draw their parses from it.
	view  *pipeline.View
	src   string
	depth int
	repl  map[psast.Node]replacement
	// starts holds the start offset of every replaced node, sorted:
	// textOf and piece evaluation use it to tell exactly which subtrees
	// hold a replacement (replacedWithin) and share every other one as
	// it is. On typical layers only a handful of nodes are rewritten, so
	// this prunes almost the entire post-order splice.
	starts  []int
	vars    map[string]varEntry
	scopeID int
	// safeFuncs holds pure user-defined functions whose calls may be
	// recovered when the FunctionTracing extension is enabled.
	safeFuncs map[string]*psast.FunctionDefinition
	// prelude is the memoized definition prelude prepended to every
	// evaluated piece when safeFuncs is non-empty. It is invariant
	// within a pass run (safeFuncs is collected once, up front), so it
	// is built once — sorted by function name for determinism — instead
	// of re-concatenated with a fresh strings.Builder on every
	// evaluation. Its text is part of the evaluated snippet and thus of
	// the evaluation-cache key: two layers defining different decoders
	// can never share a cached result.
	prelude string
	// preludeDefs are the safe functions' own definition nodes, in the
	// prelude's order: the statements Parse(prelude) yields.
	preludeDefs []psast.Node
	// recs holds the records of the pieces of the current top-level
	// statement whose values were not spliced, for enclosing pieces to
	// replay (reuse.go); recStarts are their start offsets, sorted, and
	// recBytes the bytes their values hold, their share of
	// run.recBytes. top is the root's block, after each of whose
	// statements the records are dropped. scans numbers the scanPiece
	// calls.
	recs      map[psast.Node]*record
	recStarts []int
	recBytes  int
	top       *psast.NamedBlock
	scans     int
}

// maxPieceLen bounds recoverable pieces, in bytes: larger pieces are
// not evaluated, and recovered literals larger than this are not
// spliced in.
const maxPieceLen = 1 << 20

// replacement is the text recorded for a replaced node, with what is
// known about it statically, worked out once when it is recorded.
type replacement struct {
	text string
	// value, isLit and certain are staticReplLiteral(text).
	value          any
	isLit, certain bool
	// lit is the node the text parses to in the replaced node's place,
	// for piece evaluation on the parsed subtree; nil where there is none
	// (see spliceLiteral). A number literal may lex together with the
	// character before it (gluedBefore); lit then stands for the text
	// only in a piece that starts with it.
	lit         psast.Node
	gluedBefore bool
}

// setRepl records unwrapped payload code as n's replacement. Payload
// code has no literal node.
func (s *astState) setRepl(n psast.Node, text string) {
	s.record(n, newReplacement(text))
}

func newReplacement(text string) replacement {
	r := replacement{text: text}
	r.value, r.isLit, r.certain = staticReplLiteral(text)
	return r
}

// spliceLiteral records a rendered literal as n's replacement, written
// as inPlace says, with the node Parse reads it as in n's place: a
// single-quoted string, or a non-negative integer typed by ParseNumber
// as the parser types it. A replaced pipeline reads as a pipeline
// around the literal. Negative, float and parenthesized renderings have
// no literal node.
func (s *astState) spliceLiteral(n psast.Node, lit string, ctx visitCtx) {
	r := newReplacement(s.inPlace(n, lit, ctx))
	if r.isLit && r.text == lit {
		if v, ok := r.value.(string); ok {
			r.lit = &psast.StringConstant{Value: v, SingleQuoted: true}
		} else if lit[0] != '-' {
			r.lit = &psast.ConstantExpression{Value: r.value, Text: lit}
			r.gluedBefore = s.numberGlued(n)
		}
		if _, ok := n.(*psast.Pipeline); ok && r.lit != nil {
			r.lit = &psast.Pipeline{Elements: []psast.Node{&psast.CommandExpression{Expression: r.lit}}}
		}
	}
	s.record(n, r)
}

// numberGlued reports whether a number spliced bare over n could lex
// together with the character before it: a minus, which unless it is a
// binary operator reads as the number's sign (`-3` and `*-3` are one
// number token), or a member dot (`$a.3` reads 3 as a member name).
// inPlace parenthesizes a number next to a word character or before a
// member dot, so a bare one has no other neighbour to lex with. Range
// dots are fine.
func (s *astState) numberGlued(n psast.Node) bool {
	i := n.Extent().Start - 1
	if i < 0 {
		return false
	}
	c := s.src[i]
	return c == '-' || c == '.' && (i == 0 || s.src[i-1] != '.')
}

// isIdentByte reports a byte the lexer can read as part of a word.
func isIdentByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c >= 0x80
}

// record stores n's replacement and adds n's start to the sorted
// replaced starts.
func (s *astState) record(n psast.Node, r replacement) {
	s.repl[n] = r
	start := n.Extent().Start
	i, _ := slices.BinarySearch(s.starts, start)
	s.starts = slices.Insert(s.starts, i, start)
}

// replacedWithin reports whether a replaced node starts inside ext.
func (s *astState) replacedWithin(ext psast.Extent) bool {
	i, _ := slices.BinarySearch(s.starts, ext.Start)
	return i < len(s.starts) && s.starts[i] < ext.End
}

// astPhase runs recovery based on AST over one script layer under the
// run's execution envelope. doc may be the run's main Document or a
// fork holding a nested payload layer; either way tokens, ASTs and
// validity checks come from the shared parse cache.
func (r *run) astPhase(pc *pipeline.PassContext, doc *pipeline.Document, depth int) {
	root, err := docAST(doc)
	if err != nil {
		return
	}
	s := &astState{
		r:         r,
		pc:        pc,
		doc:       doc,
		view:      doc.View(),
		src:       doc.Text(),
		depth:     depth,
		repl:      make(map[psast.Node]replacement),
		vars:      make(map[string]varEntry),
		safeFuncs: make(map[string]*psast.FunctionDefinition),
		recs:      make(map[psast.Node]*record),
		top:       root.Body,
	}
	if r.Opts.FunctionTracing {
		s.collectPureFunctions(root)
		s.buildPrelude()
	}
	s.visit(root, visitCtx{scope: []int{0}})
	s.dropRecords()
	if len(s.repl) == 0 {
		return
	}
	out := s.textOf(root)
	doc.SetText(pc.ValidOrRevert(s.view, out, s.src))
}

// enterScope derives a child scope path.
func (s *astState) enterScope(ctx visitCtx) visitCtx {
	s.scopeID++
	child := ctx
	child.scope = append(append([]int(nil), ctx.scope...), s.scopeID)
	return child
}

// scopeVisible reports whether a variable recorded at `recorded` is
// visible from `current` (recorded path is a prefix of the current
// path).
func scopeVisible(recorded, current []int) bool {
	if len(recorded) > len(current) {
		return false
	}
	for i, id := range recorded {
		if current[i] != id {
			return false
		}
	}
	return true
}

// visit performs the post-order traversal of Algorithm 1: children
// first (with scope/loop/conditional context updates), then node
// processing.
func (s *astState) visit(n psast.Node, ctx visitCtx) {
	if n == nil {
		return
	}
	switch x := n.(type) {
	case *psast.ScriptBlock:
		inner := ctx
		if x.Params != nil {
			s.visit(x.Params, inner)
		}
		s.visit(x.Body, inner)
	case *psast.NamedBlock:
		inner := s.enterScope(ctx)
		for _, st := range x.Statements {
			stCtx := inner
			stCtx.isStatement = true
			s.visit(st, stCtx)
			if x == s.top {
				s.dropRecords()
			}
		}
	case *psast.StatementBlock:
		inner := s.enterScope(ctx)
		for _, st := range x.Statements {
			stCtx := inner
			stCtx.isStatement = true
			s.visit(st, stCtx)
		}
	case *psast.If:
		inner := s.enterScope(ctx)
		for _, clause := range x.Clauses {
			s.visit(clause.Cond, inner)
			body := inner
			body.inCond = true
			s.visit(clause.Body, body)
		}
		if x.Else != nil {
			body := inner
			body.inCond = true
			s.visit(x.Else, body)
		}
	case *psast.While:
		inner := s.enterScope(ctx)
		loop := inner
		loop.inLoop = true
		s.visit(x.Cond, loop)
		s.visit(x.Body, loop)
	case *psast.DoLoop:
		inner := s.enterScope(ctx)
		loop := inner
		loop.inLoop = true
		s.visit(x.Body, loop)
		s.visit(x.Cond, loop)
	case *psast.For:
		inner := s.enterScope(ctx)
		loop := inner
		loop.inLoop = true
		s.visit(x.Init, loop)
		s.visit(x.Cond, loop)
		s.visit(x.Iter, loop)
		s.visit(x.Body, loop)
	case *psast.ForEach:
		inner := s.enterScope(ctx)
		loop := inner
		loop.inLoop = true
		lhs := loop
		lhs.assignLHS = true
		s.visit(x.Variable, lhs)
		s.visit(x.Collection, inner)
		s.visit(x.Body, loop)
	case *psast.Switch:
		inner := s.enterScope(ctx)
		s.visit(x.Cond, inner)
		body := inner
		body.inCond = true
		for _, c := range x.Cases {
			s.visit(c.Pattern, body)
			s.visit(c.Body, body)
		}
		if x.Default != nil {
			s.visit(x.Default, body)
		}
	case *psast.FunctionDefinition:
		inner := s.enterScope(ctx)
		inner.inFunc = true
		for _, p := range x.Params {
			s.visit(p, inner)
		}
		s.visit(x.Body, inner)
	case *psast.Try:
		inner := s.enterScope(ctx)
		body := inner
		body.inCond = true
		s.visit(x.Body, body)
		for _, c := range x.Catches {
			s.visit(c, body)
		}
		if x.Finally != nil {
			s.visit(x.Finally, body)
		}
	case *psast.Assignment:
		lhs := ctx
		lhs.assignLHS = true
		lhs.isStatement = false
		s.visit(x.Left, lhs)
		rhs := ctx
		rhs.isStatement = true
		rhs.assignRHS = true
		s.visit(x.Right, rhs)
		s.processAssignment(x, ctx)
		return
	case *psast.ExpandableString:
		// Parts are not spliced textually (quoting differs inside
		// strings); the whole string is recovered via its parent
		// recoverable node instead.
		return
	default:
		childCtx := ctx
		childCtx.isStatement = false
		childCtx.assignLHS = false
		// A pipeline that is itself a statement passes statement-ness to
		// unwrapping; its children are expressions.
		for _, c := range n.Children() {
			childCtx.argMode = argModeChild(n, c, ctx.argMode)
			s.visit(c, childCtx)
		}
	}
	s.process(n, ctx)
}

// process applies Algorithm 1's per-node actions after the children are
// done: variable inlining, recoverable-piece recovery and multi-layer
// unwrapping. Once the envelope is violated all remaining per-node work
// is skipped, so the traversal winds down in O(nodes) instead of the
// O(nodes x subtree) cost of safety analysis and recovery.
func (s *astState) process(n psast.Node, ctx visitCtx) {
	if s.r.Env.Violated() {
		return
	}
	if v, ok := n.(*psast.VariableExpression); ok {
		s.processVariable(v, ctx)
		return
	}
	if psast.IsRecoverableKind(n.Kind()) && !ctx.assignLHS {
		s.tryRecover(n, ctx)
	}
	if p, ok := n.(*psast.Pipeline); ok && ctx.isStatement {
		s.tryUnwrapPipeline(p, ctx)
	}
}

// processVariable implements lines 8–25 of Algorithm 1 for reads.
func (s *astState) processVariable(v *psast.VariableExpression, ctx visitCtx) {
	if ctx.assignLHS || s.r.Opts.DisableVariableTracing {
		return
	}
	name := canonicalVarName(v.Name)
	if name == "" {
		return
	}
	if ctx.inLoop || ctx.inCond || ctx.inFunc {
		// The value may differ per run; drop it (Algorithm 1, line 10).
		delete(s.vars, name)
		return
	}
	e, ok := s.vars[name]
	if !ok || !scopeVisible(e.scope, ctx.scope) {
		return
	}
	lit, ok := renderLiteral(e.value)
	if !ok {
		return
	}
	s.spliceLiteral(v, lit, ctx)
	s.r.Stats.VariablesInlined++
}

// canonicalVarName returns the lower-cased plain variable name, or ""
// for variables that must never be traced ($env:, automatic, special).
func canonicalVarName(name string) string {
	n := strings.ToLower(name)
	for _, prefix := range []string{"global:", "script:", "local:", "private:", "variable:"} {
		n = strings.TrimPrefix(n, prefix)
	}
	if strings.Contains(n, ":") {
		return "" // env: and other drives
	}
	switch n {
	case "_", "$", "?", "^", "args", "input", "this", "true", "false",
		"null", "error", "matches", "pshome", "home", "pwd", "host",
		"executioncontext", "psversiontable", "shellid", "pid", "ofs":
		return ""
	}
	return n
}

// processAssignment implements lines 13–20 of Algorithm 1.
func (s *astState) processAssignment(a *psast.Assignment, ctx visitCtx) {
	if s.r.Opts.DisableVariableTracing || s.r.Env.Violated() {
		return
	}
	v, ok := a.Left.(*psast.VariableExpression)
	if !ok {
		return
	}
	name := canonicalVarName(v.Name)
	if name == "" {
		return
	}
	if ctx.inLoop || ctx.inCond || ctx.inFunc {
		delete(s.vars, name)
		return
	}
	value, ok := s.evaluateStatementValue(a.Right, ctx)
	if !ok {
		delete(s.vars, name)
		return
	}
	if a.Operator != "=" {
		old, exists := s.vars[name]
		if !exists || !scopeVisible(old.scope, ctx.scope) {
			delete(s.vars, name)
			return
		}
		combined, ok := applyCompound(a.Operator, old.value, value)
		if !ok {
			delete(s.vars, name)
			return
		}
		value = combined
	}
	if !isStringOrNumber(value) {
		delete(s.vars, name)
		return
	}
	s.vars[name] = varEntry{value: value, scope: append([]int(nil), ctx.scope...)}
	s.r.Stats.VariablesTraced++
}

// applyCompound folds a compound assignment over traced values.
func applyCompound(op string, old, inc any) (any, bool) {
	switch op {
	case "+=":
		if so, ok := old.(string); ok {
			return so + psinterp.ToString(inc), true
		}
		no, errO := toNum(old)
		ni, errI := toNum(inc)
		if errO && errI {
			return no + ni, true
		}
	case "-=", "*=", "/=", "%=":
		// Rare in obfuscation; give up tracing rather than risk error.
		return nil, false
	}
	return nil, false
}

func toNum(v any) (int64, bool) {
	n, err := psinterp.ToInt(v)
	return n, err == nil
}

// evaluateStatementValue evaluates an assignment RHS if safe, returning
// (value, true) on success.
func (s *astState) evaluateStatementValue(n psast.Node, ctx visitCtx) (any, bool) {
	if n == nil {
		return nil, false
	}
	// Fast path: the RHS is — or was already recovered to — a literal.
	// literalOfNode resolves that statically from the AST and the
	// replacement records wherever the answer is certain, so the common
	// `$x = <recovered literal>` case costs no probe parse.
	if v, ok := s.literalOfNode(n); ok {
		return v, true
	}
	if !s.isSafePiece(n, ctx) {
		return nil, false
	}
	out, err := s.evalNode(n, ctx)
	if err != nil {
		frontend.ClassifyEvalFailure(s.r.Stats, err)
		return nil, false
	}
	value := psinterp.Unwrap(out)
	if value == nil {
		return nil, false
	}
	return value, true
}

// tryRecover evaluates a recoverable node and replaces it in place when
// the result is a string or number (paper §III-B2). The safety check
// runs first: it is a pure AST walk, while materializing the piece's
// text and the triviality probe cost a splice and a parse.
func (s *astState) tryRecover(n psast.Node, ctx visitCtx) {
	if !s.isSafePiece(n, ctx) {
		return
	}
	text := s.textOf(n)
	if len(text) > maxPieceLen || s.isTrivialPiece(n, text) {
		return
	}
	s.r.Stats.PiecesAttempted++
	out, err := s.evalPiece(n, s.snippetFor(text), s.bindingsForNode(n, ctx), true)
	if err != nil {
		frontend.ClassifyEvalFailure(s.r.Stats, err)
		return
	}
	value := psinterp.Unwrap(out)
	lit, ok := renderLiteral(value)
	if !ok || lit == text || len(lit) > maxPieceLen {
		return
	}
	s.spliceLiteral(n, lit, ctx)
	s.r.Stats.PiecesRecovered++
}

// argModeChild reports whether the parser read child c of n in
// command-argument mode, given whether it read n so.
func argModeChild(n, c psast.Node, argMode bool) bool {
	switch x := n.(type) {
	case *psast.Command, *psast.CommandParameter:
		return true
	case *psast.ArrayLiteral:
		return argMode
	case *psast.MemberExpression:
		return argMode && c == x.Target
	case *psast.InvokeMemberExpression:
		return argMode && c == x.Target
	case *psast.IndexExpression:
		return argMode && c == x.Target
	}
	return false
}

// inPlace returns a rendered literal as it must be spliced over n so
// that the new text re-parses with the literal as one primary. It
// parenthesizes the literal only where the bare rendering would re-lex
// with its neighbours: a number before a member access (`3.length` is
// one bare word) or after a word character (`-bxor5` is one word), a
// negative number after a minus (`5--3` is a postfix decrement), and,
// in command-argument mode, any literal glued to the next or previous
// character (`Write-Output 'abc'.length` is three arguments).
// Everywhere else the bare literal is what the paper splices.
func (s *astState) inPlace(n psast.Node, lit string, ctx visitCtx) string {
	ext := n.Extent()
	prev, next, after := byte(' '), byte(' '), byte(' ')
	if ext.Start > 0 {
		prev = s.src[ext.Start-1]
	}
	if ext.End < len(s.src) {
		next = s.src[ext.End]
	}
	if ext.End+1 < len(s.src) {
		after = s.src[ext.End+1]
	}
	glued := false
	switch {
	case ctx.argMode:
		glued = !strings.ContainsRune(" \t\r\n,:(|;&", rune(prev)) ||
			!strings.ContainsRune(" \t\r\n,)}|;&>", rune(next))
	case lit[0] == '-':
		glued = prev == '-' || next == '.' && after != '.'
	case lit[0] >= '0' && lit[0] <= '9':
		glued = next == '.' && after != '.' || isIdentByte(prev) || isIdentByte(next)
	}
	if glued {
		return "(" + lit + ")"
	}
	return lit
}

// bindingsFor snapshots the traced variables visible from ctx.
func (s *astState) bindingsFor(ctx visitCtx) map[string]any {
	if ctx.inFunc || s.r.Opts.DisableVariableTracing || len(s.vars) == 0 {
		return nil
	}
	binds := make(map[string]any, len(s.vars))
	for name, e := range s.vars {
		if scopeVisible(e.scope, ctx.scope) {
			binds[name] = e.value
		}
	}
	return binds
}

// referencedVars statically collects the canonical names of every
// variable a pure-expression subtree can read. The second result is
// false when the subtree can reach variables dynamically — commands
// (Get-Variable, the safe cmdlets' script blocks), member invocations
// (a traced script block's .Invoke), nested script blocks or function
// definitions — in which case the caller must fall back to the full
// visible snapshot.
func referencedVars(n psast.Node) (map[string]bool, bool) {
	names := map[string]bool{}
	ok := true
	psast.Walk(n, func(x psast.Node) bool {
		if !ok {
			return false
		}
		switch v := x.(type) {
		case *psast.Command, *psast.InvokeMemberExpression,
			*psast.ScriptBlockExpression, *psast.FunctionDefinition:
			ok = false
			return false
		case *psast.VariableExpression:
			if name := canonicalVarName(v.Name); name != "" {
				names[name] = true
			}
		}
		return true
	}, nil)
	return names, ok
}

// bindingsForNode is bindingsFor restricted to the variables the piece
// can actually read. A 3-layer downloader traces hundreds of variables
// by the time its last concat piece evaluates; binding only the two or
// three the piece references cuts the snapshot copy and the per-eval
// SetVar loop from O(visible) to O(referenced). When the subtree may
// read variables dynamically it falls back to the full snapshot, so
// outcomes (including StrictVars failures) are identical either way.
func (s *astState) bindingsForNode(n psast.Node, ctx visitCtx) map[string]any {
	if ctx.inFunc || s.r.Opts.DisableVariableTracing || len(s.vars) == 0 {
		return nil
	}
	names, ok := referencedVars(n)
	if !ok {
		return s.bindingsFor(ctx)
	}
	binds := make(map[string]any, len(names))
	for name := range names {
		if e, found := s.vars[name]; found && scopeVisible(e.scope, ctx.scope) {
			binds[name] = e.value
		}
	}
	return binds
}

// buildPrelude memoizes the safe-function definition prelude. Sorted
// by function name so the snippet text — and therefore both the parse
// cache and the evaluation cache keys — is deterministic regardless of
// map iteration order.
func (s *astState) buildPrelude() {
	if len(s.safeFuncs) == 0 {
		s.prelude = ""
		s.preludeDefs = nil
		return
	}
	names := make([]string, 0, len(s.safeFuncs))
	for name := range s.safeFuncs {
		names = append(names, name)
	}
	sort.Strings(names)
	var defs strings.Builder
	s.preludeDefs = make([]psast.Node, 0, len(names))
	for _, name := range names {
		fd := s.safeFuncs[name]
		defs.WriteString(fd.Extent().Text(s.src))
		defs.WriteByte('\n')
		s.preludeDefs = append(s.preludeDefs, fd)
	}
	s.prelude = defs.String()
}

// valueFP fingerprints a preloaded value for the evaluation-cache key.
// The rendering is injective per type tag for every type the symbol
// table can hold (isStringOrNumber gate), so equal fingerprints imply
// equal values: a fingerprint match can never replay a wrong result.
func valueFP(v any) (string, bool) {
	switch x := v.(type) {
	case string:
		return "s:" + x, true
	case int64:
		return "i:" + strconv.FormatInt(x, 10), true
	case int:
		return "I:" + strconv.Itoa(x), true
	case float64:
		return "f:" + strconv.FormatFloat(x, 'g', -1, 64), true
	case psinterp.Char:
		return "c:" + string(rune(x)), true
	case bool:
		if x {
			return "b:1", true
		}
		return "b:0", true
	case nil:
		return "n:", true
	}
	return "", false
}

// evalNode evaluates piece n with node-aware restricted bindings: the
// piece's subtree is statically scanned for the variables it can read,
// so the evaluation binds (and fingerprints) only those instead of the
// whole visible snapshot.
func (s *astState) evalNode(n psast.Node, ctx visitCtx) ([]any, error) {
	return s.evalPiece(n, s.snippetFor(s.textOf(n)), s.bindingsForNode(n, ctx), false)
}

// snippetFor prepends the memoized safe-function prelude to a piece.
func (s *astState) snippetFor(text string) string {
	if s.prelude == "" {
		return text
	}
	return s.prelude + text
}

// pieceEval is one interpreted piece, as pieceEvalHook sees it.
type pieceEval struct {
	snippet string
	binds   map[string]any
	opts    psinterp.Options
	// node reports that the piece ran on its parsed subtree rather than
	// on a parse of snippet.
	node bool
	// in is the interpreter that ran it, still holding its purity
	// report and step count.
	in  *psinterp.Interp
	out []any
	err error
}

// pieceEvalHook, when set, observes every interpreted piece. Tests use
// it to check the subtree path against the text path; it is nil
// otherwise.
var pieceEvalHook atomic.Pointer[func(*pieceEval)]

// evalPiece evaluates piece n, whose snippet (text with any prelude) is
// given, in a fresh bounded interpreter preloaded with binds. The
// interpreter inherits the run's context (deadline / cancelation) and
// memory budget, and is drawn from a pool and reset per piece, so a
// hostile corpus's thousands of evaluations recycle a handful of
// interpreter shells instead of allocating one each.
//
// Evaluation is memoized through the run's EvalView (paper Recovery
// phase, §III-B, made incremental): before interpreting, the cache is
// consulted under the key (snippet text, fingerprints of the visible
// bindings a previous pure run read). On a hit the memoized output is
// replayed — deep-copied, so splices can never alias cached state — and
// no interpreter is constructed at all. On a miss the piece is
// interpreted; if the interpreter's purity report confirms the run was
// deterministic and side-effect-free, the result is inserted keyed by
// the exact variables it read. Impure, failed or budget-violating runs
// are never cached — they are recorded as skips.
//
// The paper hands the piece's text to Invoke. A miss here runs the
// script that text parses to, built from the subtree the run already
// holds (pieceScript); only where that is not shown to equal the parse
// is the snippet parsed, through the run's parse cache. With record set
// (tryRecover), a run on the subtree whose value is no string or number,
// and so is not spliced, is recorded for enclosing pieces (keep).
func (s *astState) evalPiece(n psast.Node, snippet string, binds map[string]any, record bool) ([]any, error) {
	if err := s.r.Env.Check(); err != nil {
		return nil, err
	}
	eval := s.pc.Eval
	values, ok := eval.Lookup(snippet, func(name string) (string, bool) {
		v, ok := binds[name]
		if !ok {
			return "", false
		}
		return valueFP(v)
	})
	if ok {
		return values, nil
	}
	tree, node := s.pieceScript(n, binds)
	sb := tree.sb
	if !node {
		var err error
		if sb, err = viewParse(s.view, snippet); err != nil {
			eval.Skip()
			return nil, err
		}
	}
	opts := psinterp.Options{
		MaxSteps:      s.r.Opts.StepBudget,
		StrictVars:    true,
		Blocklist:     s.r.Blocklist,
		MaxAllocBytes: s.r.Opts.MaxAllocBytes,
		Ctx:           s.r.Env.Context(),
	}
	in := psinterp.Acquire(opts)
	defer psinterp.Release(in)
	for name, v := range binds {
		in.SetVar(name, v)
	}
	out, err := in.EvalScript(sb)
	if hook := pieceEvalHook.Load(); hook != nil {
		(*hook)(&pieceEval{snippet, binds, opts, node, in, out, err})
	}
	if err != nil {
		// Failed runs are never cached: the purity report of an aborted
		// evaluation is incomplete by construction.
		eval.Skip()
		return out, err
	}
	s.memoizeEval(snippet, binds, in, out)
	if record && node && tree.mark != nil && !isStringOrNumber(psinterp.Unwrap(out)) {
		s.keep(n, &tree, in, binds)
	}
	return out, nil
}

// pieceScript returns the script Parse(snippetFor(textOf(n))) yields,
// built from n's already-parsed subtree (a DESIGN §3 substitution):
// each replaced node is swapped for its literal node, each descendant
// whose recorded value the reuse rules let n replay for its record
// (reuse.go), the piece becomes the one statement its text parses to,
// and the safe functions' definitions go first, as in the prelude. Only
// the spine above a replacement or a record is copied. The statement's
// top node is marked for recording. It returns nil where that equality
// is not shown and the snippet must be parsed instead: a statement
// other than a pipeline, a replacement that substitute refuses, or a
// piece whose first token lexes by what precedes it
// (leadLexedInContext).
func (s *astState) pieceScript(n psast.Node, binds map[string]any) (t pieceTree, ok bool) {
	if leadLexedInContext(n) {
		return t, false
	}
	piece := n.Extent()
	reuse := false
	if s.recordedWithin(piece) {
		var hazards bool
		t.writers, hazards = s.scanPiece(n, binds)
		t.scanned = true
		reuse = !t.writers && !hazards
	}
	if s.replacedWithin(piece) || reuse {
		if n = psast.Substitute(n, s.substitute(n, piece, reuse, &t.glued)); n == nil {
			return t, false
		}
	}
	var stmt psast.Node
	switch x := n.(type) {
	case *psast.Pipeline:
		ce, single := soleExpression(x)
		if !single {
			t.mark = &psast.Evaluated{Ext: x.Ext, Node: x}
			stmt, t.place = t.mark, t.mark
		} else if _, replayed := ce.Expression.(*psast.Evaluated); replayed {
			// The piece is a descendant's recorded value; that record
			// serves the enclosing pieces.
			stmt = x
		} else {
			m := markedPipeline(ce.Expression)
			m.pipe.Ext, m.pipe.Background, m.ce.Ext = x.Ext, x.Background, ce.Ext
			t.mark = &m.mark
			stmt, t.place = &m.pipe, &m.pipe
		}
	case *psast.UnaryExpression, *psast.BinaryExpression, *psast.ConvertExpression,
		*psast.InvokeMemberExpression, *psast.SubExpression,
		*psast.StringConstant, *psast.ConstantExpression:
		m := markedPipeline(n)
		t.mark = &m.mark
		stmt, t.place = &m.pipe, t.mark
	default:
		return t, false
	}
	stmts := make([]psast.Node, 0, len(s.preludeDefs)+1)
	stmts = append(append(stmts, s.preludeDefs...), stmt)
	t.sb = &psast.ScriptBlock{Body: &psast.NamedBlock{Statements: stmts}}
	return t, true
}

// pieceTree is the script pieceScript built for a piece, with what keep
// needs to record the piece's value.
type pieceTree struct {
	sb *psast.ScriptBlock
	// mark is the Evaluated node around the statement's top node, whose
	// value the run records; nil when there is nothing to record. place
	// is the node an enclosing piece puts in the piece's place once mark
	// holds its record.
	mark  *psast.Evaluated
	place psast.Node
	// glued reports a number literal glued to the character before the
	// piece's start (replacement.gluedBefore), here or in a replayed
	// descendant that starts there.
	glued bool
	// scanned reports that pieceScript ran scanPiece on the piece, and
	// writers what it found, which keep uses instead of scanning again.
	scanned, writers bool
}

// markedPipe is Pipeline{CommandExpression{Evaluated{x}}} in one
// allocation: the statement an expression parses to, its top node
// marked for recording.
type markedPipe struct {
	pipe  psast.Pipeline
	ce    psast.CommandExpression
	mark  psast.Evaluated
	elems [1]psast.Node
}

func markedPipeline(x psast.Node) *markedPipe {
	m := &markedPipe{}
	m.mark = psast.Evaluated{Ext: x.Extent(), Node: x}
	m.ce.Expression = &m.mark
	m.elems[0] = &m.ce
	m.pipe.Elements = m.elems[:]
	return m
}

// soleExpression returns the expression of a pipeline of one.
func soleExpression(p *psast.Pipeline) (*psast.CommandExpression, bool) {
	if len(p.Elements) != 1 {
		return nil, false
	}
	ce, ok := p.Elements[0].(*psast.CommandExpression)
	return ce, ok
}

// leadLexedInContext reports whether n's text begins with a token the
// lexer read by what came before it, so that the text alone, lexed at
// statement start, may read otherwise: a bare word, which an expression
// reads as a string but a statement as a command name, or a prefix ++
// or --, which leaves the lexer's state for the next token as it found
// it.
func leadLexedInContext(n psast.Node) bool {
	for {
		switch x := n.(type) {
		case *psast.StringConstant:
			return x.Bare
		case *psast.Pipeline:
			n = x.Elements[0]
		case *psast.CommandExpression:
			n = x.Expression
		case *psast.BinaryExpression:
			n = x.Left
		case *psast.UnaryExpression:
			if !x.Postfix {
				return x.Operator == "++" || x.Operator == "--"
			}
			n = x.Operand
		case *psast.MemberExpression:
			n = x.Target
		case *psast.InvokeMemberExpression:
			n = x.Target
		case *psast.IndexExpression:
			n = x.Target
		case *psast.ArrayLiteral:
			n = x.Elements[0]
		default:
			return false
		}
	}
}

// substitute is pieceScript's psast.Substitute callback for the piece
// root, spanning piece. Subtrees holding no replacement, and no record
// when reuse is set, are shared; a replaced node becomes its literal
// node, and with reuse a descendant whose record the piece's scan found
// usable (record.scan) becomes that record's place. glued is set where
// either brings a number literal glued to the piece's first character.
// It abandons the substitution, so the snippet is parsed, where the
// literal could read differently in the piece's text:
//   - a replacement with no literal node (unwrapped payload code,
//     negative, float or parenthesized renderings);
//   - a replacement inside a script block literal, whose Source (the
//     value's .ToString()) still holds the old text;
//   - a replacement inside a command, parsed in argument mode, where a
//     literal can merge with its neighbours into a bare word;
//   - a number that could lex together with a neighbour inside the
//     piece (see numberGlued), also inside a record's subtree.
func (s *astState) substitute(root psast.Node, piece psast.Extent, reuse bool, glued *bool) func(psast.Node) (psast.Node, bool) {
	return func(c psast.Node) (psast.Node, bool) {
		ext := c.Extent()
		replaced := s.replacedWithin(ext)
		if !replaced && !(reuse && s.recordedWithin(ext)) {
			return c, true
		}
		if !piece.Contains(ext) {
			return nil, true
		}
		if r, ok := s.repl[c]; ok {
			if r.lit == nil || r.gluedBefore && ext.Start > piece.Start {
				return nil, true
			}
			*glued = *glued || r.gluedBefore
			return r.lit, true
		}
		if reuse && c != root {
			if rec := s.recs[c]; rec != nil && rec.scan == s.scans {
				if rec.glued && ext.Start > piece.Start {
					return nil, true
				}
				*glued = *glued || rec.glued
				return rec.place, true
			}
		}
		switch c.(type) {
		case *psast.Command, *psast.ScriptBlockExpression:
			if replaced {
				return nil, true
			}
		}
		return nil, false
	}
}

// memoizeEval inserts a completed evaluation into the cache when the
// purity report allows it, attributing the outcome (miss vs skip) to
// the run's EvalView.
func (s *astState) memoizeEval(snippet string, binds map[string]any, in *psinterp.Interp, out []any) {
	eval := s.pc.Eval
	if !eval.Enabled() {
		return
	}
	p := in.Purity()
	if !p.Pure {
		eval.Skip()
		return
	}
	bindings := make([]pipeline.Binding, 0, len(p.ReadVars))
	for _, name := range p.ReadVars {
		v, ok := binds[name]
		if !ok {
			// A read variable we cannot fingerprint (should not happen:
			// reads are tracked only for preloaded names, which all come
			// from the binding snapshot). Refuse to cache rather than
			// risk it.
			eval.Skip()
			return
		}
		fp, ok := valueFP(v)
		if !ok {
			eval.Skip()
			return
		}
		bindings = append(bindings, pipeline.Binding{Name: name, FP: fp})
	}
	eval.Insert(snippet, bindings, out)
}

// collectPureFunctions records user functions whose bodies are pure:
// only safe commands, and no free variables beyond their parameters.
// Calls to such functions are themselves recoverable (the FunctionTracing
// extension; the paper leaves this to future work, §V-C).
func (s *astState) collectPureFunctions(root psast.Node) {
	psast.Walk(root, func(n psast.Node) bool {
		fd, ok := n.(*psast.FunctionDefinition)
		if !ok {
			return true
		}
		if s.isPureFunction(fd) {
			s.safeFuncs[strings.ToLower(fd.Name)] = fd
		}
		return true
	}, nil)
}

// isPureFunction checks a function body for purity.
func (s *astState) isPureFunction(fd *psast.FunctionDefinition) bool {
	params := map[string]bool{}
	for _, p := range fd.Params {
		params[strings.ToLower(p.Name)] = true
	}
	if fd.Body != nil && fd.Body.Params != nil {
		for _, p := range fd.Body.Params.Parameters {
			params[strings.ToLower(p.Name)] = true
		}
	}
	pure := true
	var inspect func(node psast.Node, inScriptBlock bool)
	inspect = func(node psast.Node, inScriptBlock bool) {
		if node == nil || !pure {
			return
		}
		switch x := node.(type) {
		case *psast.Command:
			name, ok := s.commandLiteralName(x)
			if !ok || s.r.Blocklist[psinterp.NormalizeCommandName(name)] ||
				!safeCommands[psinterp.NormalizeCommandName(name)] {
				pure = false
				return
			}
		case *psast.VariableExpression:
			lower := strings.ToLower(x.Name)
			if params[lower] {
				break
			}
			switch lower {
			case "_", "args", "input":
				if !inScriptBlock && lower == "_" {
					pure = false
				}
			case "true", "false", "null":
			default:
				if !strings.HasPrefix(lower, "env:") {
					// Assignments create locals; reads of outer state
					// disqualify. A write-before-read analysis would be
					// finer; reject only names never assigned locally.
					if !assignedWithin(fd.Body, lower) {
						pure = false
					}
				}
			}
		case *psast.ScriptBlockExpression:
			if x.Body != nil {
				for _, c := range x.Body.Children() {
					inspect(c, true)
				}
			}
			return
		}
		for _, c := range node.Children() {
			inspect(c, inScriptBlock)
		}
	}
	if fd.Body != nil {
		inspect(fd.Body, false)
	}
	return pure
}

// assignedWithin reports whether a variable name is assigned anywhere in
// the subtree.
func assignedWithin(root psast.Node, lower string) bool {
	found := false
	psast.Walk(root, func(n psast.Node) bool {
		if a, ok := n.(*psast.Assignment); ok {
			if v, isVar := a.Left.(*psast.VariableExpression); isVar &&
				strings.ToLower(v.Name) == lower {
				found = true
				return false
			}
		}
		return !found
	}, nil)
	return found
}

// isTrivialPiece reports pieces whose recovery cannot simplify anything:
// bare literals, lone variables, or pipelines around them.
func (s *astState) isTrivialPiece(n psast.Node, text string) bool {
	switch x := n.(type) {
	case *psast.Pipeline:
		if len(x.Elements) != 1 {
			return false
		}
		switch e := x.Elements[0].(type) {
		case *psast.CommandExpression:
			switch e.Expression.(type) {
			case *psast.StringConstant, *psast.ConstantExpression,
				*psast.VariableExpression:
				return true
			}
		case *psast.Command:
			// A lone command with a clean bare-word name is already
			// deobfuscated at the pipeline level; its obfuscated
			// arguments are recovered as child nodes. Replacing the
			// command with its output would erase intent (the mistake
			// the paper attributes to Li et al., §IV-C3).
			if _, ok := e.Name.(*psast.StringConstant); ok {
				return true
			}
		}
		return false
	}
	if _, isLit, certain := s.staticLiteral(n); certain {
		return isLit
	}
	if _, ok := s.literalValue(text); ok {
		return true
	}
	return false
}

// safeCommands are commands that recovery code may execute: pure
// transformations without observable side effects. Everything else
// (plus the blocklist) aborts recovery of the piece, mirroring the
// paper's blocklist design.
var safeCommands = map[string]bool{
	"foreach-object": true, "where-object": true, "sort-object": true,
	"select-object": true, "write-output": true, "out-string": true,
	"measure-object": true, "get-unique": true, "select-string": true,
	"split-path": true, "join-path": true, "get-variable": true,
	"get-command": true, "get-alias": true, "get-item": true,
	"new-object": true, "convertto-securestring": true,
	"convertfrom-securestring": true, "get-location": true,
	"get-culture": true, "get-host": true, "invoke-command": true,
}

// isSafePiece checks that every command in the subtree is a safe pure
// transformation and that every free variable is known, so executing
// the piece can neither cause side effects nor produce wrong results
// from missing context. It does not enter a descendant already replaced
// by a literal: the piece's text holds the literal, not that subtree.
// Payload code and parenthesized replacements are still walked.
func (s *astState) isSafePiece(n psast.Node, ctx visitCtx) bool {
	safe, visits := true, 0
	var inspect func(node psast.Node, inScriptBlock bool)
	inspect = func(node psast.Node, inScriptBlock bool) {
		if node == nil || !safe {
			return
		}
		if r, ok := s.repl[node]; ok && r.isLit && r.certain {
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
	if hook := safeWalkHook.Load(); hook != nil {
		(*hook)(s, n, ctx, safe, visits)
	}
	return safe
}

// safeWalkHook, when set, observes every safety walk: the piece, its
// context, the answer and the number of nodes visited. Tests use it to
// check the walk against the full one; it is nil otherwise.
var safeWalkHook atomic.Pointer[func(s *astState, n psast.Node, ctx visitCtx, safe bool, visits int)]

// commandLiteralName resolves a command's name when it is statically
// known: a bare word, a quoted literal, or an expression already
// recovered to a string literal.
func (s *astState) commandLiteralName(cmd *psast.Command) (string, bool) {
	switch n := cmd.Name.(type) {
	case *psast.StringConstant:
		return n.Value, true
	default:
		if v, ok := s.literalOfNode(cmd.Name); ok {
			return psinterp.ToString(v), true
		}
		return "", false
	}
}

// variableKnown reports whether a variable read inside a piece will
// resolve during evaluation.
func (s *astState) variableKnown(name string, ctx visitCtx, inScriptBlock bool) bool {
	lower := strings.ToLower(name)
	if strings.HasPrefix(lower, "env:") {
		return true
	}
	switch lower {
	case "_", "args", "input":
		// Bound at runtime inside ForEach-Object-style blocks.
		return inScriptBlock
	case "true", "false", "null", "pshome", "home", "pwd", "shellid",
		"pid", "psversiontable", "executioncontext", "ofs", "error",
		"verbosepreference", "erroractionpreference", "host",
		"psculture", "psuiculture":
		return true
	}
	if s.r.Opts.DisableVariableTracing || ctx.inFunc {
		return false
	}
	key := canonicalVarName(name)
	if key == "" {
		return false
	}
	e, ok := s.vars[key]
	return ok && scopeVisible(e.scope, ctx.scope)
}

// textOf returns the node's current text with all recorded replacements
// spliced in (the paper's reconstruction by post-order splicing,
// §III-B5).
func (s *astState) textOf(n psast.Node) string {
	if r, ok := s.repl[n]; ok {
		return r.text
	}
	ext := n.Extent()
	// Fast path: no recorded replacement falls inside this node, so its
	// text is exactly its source slice — zero reconstruction, zero
	// allocation. This covers every node on unmodified layers and all
	// untouched subtrees on modified ones.
	if !s.replacedWithin(ext) {
		return ext.Text(s.src)
	}
	var sb strings.Builder
	sb.Grow(ext.End - ext.Start)
	s.writeTextOf(&sb, n)
	return sb.String()
}

// writeTextOf appends n's reconstructed text to sb. Splitting the
// splice from textOf lets one Builder serve the whole recursion
// instead of allocating a fresh buffer (and copying it upward) at
// every tree level.
func (s *astState) writeTextOf(sb *strings.Builder, n psast.Node) {
	if r, ok := s.repl[n]; ok {
		sb.WriteString(r.text)
		return
	}
	ext := n.Extent()
	if !s.replacedWithin(ext) {
		sb.WriteString(ext.Text(s.src))
		return
	}
	if _, isExpandable := n.(*psast.ExpandableString); isExpandable {
		sb.WriteString(ext.Text(s.src))
		return
	}
	children := n.Children()
	if len(children) == 0 {
		sb.WriteString(ext.Text(s.src))
		return
	}
	sorted := make([]psast.Node, 0, len(children))
	for _, c := range children {
		ce := c.Extent()
		if ce.Start >= ext.Start && ce.End <= ext.End {
			sorted = append(sorted, c)
		}
	}
	// Children arrive in source order almost always; a reflection-free
	// insertion sort costs nothing then and avoids sort.Slice's
	// per-call Swapper allocation.
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Extent().Start < sorted[j-1].Extent().Start; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	last := ext.Start
	for _, c := range sorted {
		ce := c.Extent()
		if ce.Start < last {
			continue // overlapping (defensive)
		}
		sb.WriteString(s.src[last:ce.Start])
		s.writeTextOf(sb, c)
		last = ce.End
	}
	sb.WriteString(s.src[last:ext.End])
}

// renderLiteral renders a recovered value as PowerShell source, only
// for string- and number-typed results (paper §III-B2).
func renderLiteral(v any) (string, bool) {
	switch x := v.(type) {
	case string:
		return QuoteSingle(x), true
	case psinterp.Char:
		return QuoteSingle(string(rune(x))), true
	case int64:
		return strconv.FormatInt(x, 10), true
	case int:
		return strconv.Itoa(x), true
	case float64:
		return psinterp.ToString(x), true
	}
	return "", false
}

func isStringOrNumber(v any) bool {
	switch v.(type) {
	case string, int64, int, float64, psinterp.Char:
		return true
	}
	return false
}

// QuoteSingle renders s as a single-quoted PowerShell string literal.
func QuoteSingle(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// literalValue parses text through the run's cache and, when it is a
// single string/number literal (possibly parenthesized), returns its
// value. Literal detection runs on every candidate payload and command
// name, so the memoized parse is one of the cache's hottest entries.
func (s *astState) literalValue(text string) (any, bool) {
	trimmed := strings.TrimSpace(text)
	if trimmed == "" {
		return nil, false
	}
	root, err := viewParse(s.view, trimmed)
	if err != nil {
		return nil, false
	}
	return literalFromRoot(root)
}

// literalValue is the cache-free form, kept for callers without a run
// (tests, one-off probes).
func literalValue(text string) (any, bool) {
	trimmed := strings.TrimSpace(text)
	if trimmed == "" {
		return nil, false
	}
	root, err := psparser.Parse(trimmed)
	if err != nil {
		return nil, false
	}
	return literalFromRoot(root)
}

// literalFromRoot extracts the single string/number literal of a parsed
// script, if that is all the script contains.
func literalFromRoot(root *psast.ScriptBlock) (any, bool) {
	if root == nil || root.Body == nil || len(root.Body.Statements) != 1 {
		return nil, false
	}
	pipe, ok := root.Body.Statements[0].(*psast.Pipeline)
	if !ok || len(pipe.Elements) != 1 {
		return nil, false
	}
	ce, ok := pipe.Elements[0].(*psast.CommandExpression)
	if !ok {
		return nil, false
	}
	return constantOf(ce.Expression)
}

func constantOf(n psast.Node) (any, bool) {
	switch x := n.(type) {
	case *psast.StringConstant:
		if x.Bare {
			return nil, false
		}
		return x.Value, true
	case *psast.ConstantExpression:
		return x.Value, true
	case *psast.ParenExpression:
		if p, ok := x.Pipeline.(*psast.Pipeline); ok && len(p.Elements) == 1 {
			if ce, ok := p.Elements[0].(*psast.CommandExpression); ok {
				return constantOf(ce.Expression)
			}
		}
	}
	return nil, false
}

// literalOfNode is the node-typed form of literalValue: it resolves
// whether the node's current text (source plus recorded replacements)
// denotes a single string/number literal. Where the answer is provable
// from the AST and the replacement records it is returned without any
// parse; only genuinely ambiguous shapes fall back to the probe parse
// literalValue performs.
func (s *astState) literalOfNode(n psast.Node) (any, bool) {
	if v, isLit, certain := s.staticLiteral(n); certain {
		return v, isLit
	}
	return s.literalValue(s.textOf(n))
}

// staticLiteral predicts literalValue(textOf(n)) without the probe
// parse. certain=false means the prediction would be a guess and the
// caller must fall back to the parse probe — it does NOT mean "not a
// literal". The prediction leans on two invariants: replacement texts
// are expression-shaped (quoted literals, number renderings, or
// parenthesized/subexpression-wrapped code), so they can never change
// the statement structure of an enclosing reparse; and the tokenizer
// treats signed numbers identically at statement start and in
// expression position, so constant nodes re-lex to themselves.
func (s *astState) staticLiteral(n psast.Node) (v any, isLit, certain bool) {
	if r, ok := s.repl[n]; ok {
		return r.value, r.isLit, r.certain
	}
	switch x := n.(type) {
	case *psast.Pipeline:
		if len(x.Elements) == 1 {
			return s.staticLiteral(x.Elements[0])
		}
		return nil, false, true
	case *psast.CommandExpression:
		return s.staticLiteral(x.Expression)
	case *psast.ParenExpression:
		if p, ok := x.Pipeline.(*psast.Pipeline); ok && len(p.Elements) == 1 {
			if _, replaced := s.repl[p]; replaced {
				return nil, false, false
			}
			if ce, ok := p.Elements[0].(*psast.CommandExpression); ok {
				if _, replaced := s.repl[ce]; replaced {
					return nil, false, false
				}
				return s.staticLiteral(ce.Expression)
			}
		}
		return nil, false, true
	case *psast.StringConstant:
		if !x.Bare {
			return x.Value, true, true
		}
		// A bare word standalone usually reparses as a command name
		// (not a literal) — except number-shaped words, which re-lex as
		// constants. Those are rare; defer them to the exact probe.
		if _, err := psparser.ParseNumber(x.Value); err == nil {
			return nil, false, false
		}
		return nil, false, true
	case *psast.ConstantExpression:
		return x.Value, true, true
	}
	// Every other node kind (binary/unary/convert/invoke/subexpression/
	// variable/command/expandable string/...) reparses to the same
	// non-literal shape regardless of replacements inside it.
	return nil, false, true
}

// staticReplLiteral inverts renderLiteral for replacement texts: the
// recovery and inlining paths only ever write single-quoted strings or
// number renderings. Unwrap replacements (raw or wrapped payload code)
// and float renderings defer to the probe parse.
func staticReplLiteral(r string) (any, bool, bool) {
	if r == "" {
		return nil, false, true // textOf "" -> literalValue rejects empty
	}
	if r[0] == '\'' {
		if v, ok := unquoteSingle(r); ok {
			return v, true, true
		}
		return nil, false, false
	}
	if isIntegerText(r) {
		if v, err := psparser.ParseNumber(r); err == nil {
			return v, true, true
		}
		return nil, false, false
	}
	return nil, false, false
}

// isIntegerText reports a plain optionally-signed decimal rendering —
// the exact output shape of renderLiteral for int/int64 values.
func isIntegerText(r string) bool {
	i := 0
	if r[0] == '-' {
		i = 1
	}
	if i == len(r) {
		return false
	}
	for ; i < len(r); i++ {
		if r[i] < '0' || r[i] > '9' {
			return false
		}
	}
	return true
}

// unquoteSingle inverts QuoteSingle exactly: it accepts only a complete
// single-quoted literal whose inner quotes are all doubled, returning
// the decoded value the parser would produce for it.
func unquoteSingle(r string) (string, bool) {
	if len(r) < 2 || r[0] != '\'' || r[len(r)-1] != '\'' {
		return "", false
	}
	body := r[1 : len(r)-1]
	var b strings.Builder
	b.Grow(len(body))
	for i := 0; i < len(body); i++ {
		if body[i] == '\'' {
			if i+1 >= len(body) || body[i+1] != '\'' {
				return "", false
			}
			b.WriteByte('\'')
			i++
			continue
		}
		b.WriteByte(body[i])
	}
	return b.String(), true
}
