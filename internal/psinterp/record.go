package psinterp

import "github.com/invoke-deobfuscation/invokedeob/internal/psast"

// Record is what one evaluation of a subtree computed and charged: its
// value, and the steps, allocated bytes, expression depth and preloaded
// variable reads computing it took. An evaluation that meets the
// subtree again as a psast.Evaluated node carrying the record replays
// it: it charges the same and yields a copy of the value, so its
// output, error, step count, memory charge and purity report are those
// of evaluating the subtree. Whether the subtree would compute the same
// value there is the caller's to establish (the ast phase's reuse rules,
// DESIGN §3).
type Record struct {
	// value is the node's expression value, or its statement output
	// when stmt.
	value any
	stmt  bool
	steps int
	bytes int64
	// depth is the deepest expression nesting the node reached below
	// the depth it was entered at, and calls the call depth it was
	// entered at.
	depth int
	calls int
	// nreads is how many preloaded variables the run had read when the
	// node completed; reads names them.
	nreads int
	reads  []string
	size   int
}

// Reads lists, sorted, the preloaded variables the recorded evaluation
// read.
func (r *Record) Reads() []string { return r.reads }

// Size is the retained size of the recorded value (ValueSize).
func (r *Record) Size() int { return r.size }

// Record returns the record of the node this run marked for recording,
// a psast.Evaluated without a record, or false when there is none: the
// node did not complete, the run read a preloaded variable outside it
// or was impure, or the value is not one CopyValue copies. The record
// holds the value the run computed, which nothing changes once the run
// is over; each replay copies it.
func (in *Interp) Record() (*Record, bool) {
	if !in.recOK || in.impureReason != "" || len(in.readPreloaded) != in.rec.nreads {
		return nil, false
	}
	size, ok := copySize(in.rec.value)
	if !ok {
		return nil, false
	}
	r := in.rec
	r.size = size
	r.reads = in.Purity().ReadVars
	return &r, true
}

// copySize is ValueSize(v) for a value CopyValue copies, and false for
// one it refuses, without copying.
func copySize(v any) (int, bool) {
	switch x := v.(type) {
	case nil, string, bool, int, int64, float64, Char, TypeValue, Bytes:
		return ValueSize(v), true
	case []any:
		n := 24
		for _, e := range x {
			s, ok := copySize(e)
			if !ok {
				return 0, false
			}
			n += s
		}
		return n, true
	}
	return 0, false
}

// evaluatedExpr evaluates an Evaluated node where an expression stands,
// its step and depth already charged by evalExpr.
func (in *Interp) evaluatedExpr(n *psast.Evaluated, sc *scope) (any, error) {
	r, _ := n.Record.(*Record)
	if r == nil {
		mark := in.startRecord()
		v, err := in.evalExprNode(n.Node, sc)
		in.endRecord(mark, v, false, err)
		return v, err
	}
	if r.stmt || !in.fits(r) {
		return in.evalExprNode(n.Node, sc)
	}
	if err := in.replay(r); err != nil {
		return nil, err
	}
	v, _ := CopyValue(r.value)
	return v, nil
}

// evaluatedStatement evaluates an Evaluated node where a statement
// stands, its step already charged by evalStatement.
func (in *Interp) evaluatedStatement(n *psast.Evaluated, sc *scope) ([]any, error) {
	r, _ := n.Record.(*Record)
	if r == nil {
		mark := in.startRecord()
		vals, err := in.evalStatementNode(n.Node, sc)
		in.endRecord(mark, vals, true, err)
		return vals, err
	}
	if !r.stmt || !in.fits(r) {
		return in.evalStatementNode(n.Node, sc)
	}
	if err := in.replay(r); err != nil {
		return nil, err
	}
	v, _ := CopyValue(r.value)
	vals, _ := v.([]any)
	return vals, nil
}

// recordMark is the interpreter's state where a recorded node starts.
type recordMark struct {
	steps       int
	bytes       int64
	depth, peak int
	clean       bool
}

func (in *Interp) startRecord() recordMark {
	m := recordMark{in.steps, in.allocBytes, in.exprDepth, in.peakDepth,
		in.impureReason == "" && len(in.readPreloaded) == 0}
	in.peakDepth = in.exprDepth
	return m
}

// endRecord keeps what evaluating the node since m charged. It is
// recordable when it completed, was pure and read no preloaded variable
// before it started.
func (in *Interp) endRecord(m recordMark, v any, stmt bool, err error) {
	in.rec = Record{
		value:  v,
		stmt:   stmt,
		steps:  in.steps - m.steps,
		bytes:  in.allocBytes - m.bytes,
		depth:  in.peakDepth - m.depth,
		calls:  in.depth,
		nreads: len(in.readPreloaded),
	}
	in.recOK = err == nil && m.clean && in.impureReason == ""
	in.peakDepth = max(in.peakDepth, m.peak)
}

// fits reports whether replaying r here trips no limit: evaluating its
// node would charge the same steps and bytes, nest as deep below the
// current depth and make calls from the same call depth, so it stays
// within every budget exactly when r's charges fit the headroom left.
// Where they do not, the node is evaluated in full and trips where it
// does.
func (in *Interp) fits(r *Record) bool {
	return in.depth == r.calls &&
		in.steps+r.steps <= in.opts.MaxSteps &&
		in.allocBytes+r.bytes <= in.opts.MaxAllocBytes &&
		in.exprDepth+r.depth <= maxExprDepth
}

// replay charges what r's evaluation charged and notes its reads. It
// consults the context wherever the steps cross a point step() would
// have, so a deadline is still observed.
func (in *Interp) replay(r *Record) error {
	before := in.steps
	in.steps += r.steps
	in.replayed += r.steps
	in.allocBytes += r.bytes
	in.peakDepth = max(in.peakDepth, in.exprDepth+r.depth)
	for _, name := range r.reads {
		in.noteVarRead(name)
	}
	if before/stepCheckInterval != in.steps/stepCheckInterval {
		return in.checkContext()
	}
	return nil
}
