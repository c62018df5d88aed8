package psinterp

import (
	"errors"
	"reflect"
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/psast"
	"github.com/invoke-deobfuscation/invokedeob/internal/psparser"
)

// recorded runs sub, a subtree of a parsed script, as a piece of its
// own (the one statement its text parses to, its top node marked for
// recording) under opts and vars. It returns the node the record stands
// for, the record, and an Evaluated node carrying it.
func recorded(t *testing.T, sub psast.Node, opts Options, vars map[string]any) (psast.Node, *psast.Evaluated) {
	t.Helper()
	var top, stmt psast.Node
	mark := &psast.Evaluated{}
	switch x := sub.(type) {
	case *psast.Pipeline:
		if ce, ok := x.Elements[0].(*psast.CommandExpression); ok && len(x.Elements) == 1 {
			top, mark.Node = ce.Expression, ce.Expression
			stmt = &psast.Pipeline{Elements: []psast.Node{&psast.CommandExpression{Expression: mark}}}
		} else {
			top, mark.Node, stmt = x, x, mark
		}
	default:
		top, mark.Node = x, x
		stmt = &psast.Pipeline{Elements: []psast.Node{&psast.CommandExpression{Expression: mark}}}
	}
	in := New(opts)
	for name, v := range vars {
		in.SetVar(name, v)
	}
	if _, err := in.EvalScript(&psast.ScriptBlock{Body: &psast.NamedBlock{Statements: []psast.Node{stmt}}}); err != nil {
		t.Fatalf("recording run: %v", err)
	}
	rec, ok := in.Record()
	if !ok {
		t.Fatal("the recording run kept no record")
	}
	return top, &psast.Evaluated{Ext: top.Extent(), Node: top, Record: rec}
}

// findText returns the first node of root, in pre-order, whose source
// text is text.
func findText(t *testing.T, src string, root psast.Node, text string) psast.Node {
	t.Helper()
	var found psast.Node
	psast.Walk(root, func(n psast.Node) bool {
		if found == nil && n.Extent().Text(src) == text {
			found = n
		}
		return found == nil
	}, nil)
	if found == nil {
		t.Fatalf("no node reads %q in %q", text, src)
	}
	return found
}

// replace returns root with node old swapped for new.
func replace(t *testing.T, root *psast.ScriptBlock, old, new psast.Node) *psast.ScriptBlock {
	t.Helper()
	out, ok := psast.Substitute(root, func(n psast.Node) (psast.Node, bool) {
		if n == old {
			return new, true
		}
		return nil, false
	}).(*psast.ScriptBlock)
	if !ok || out == nil {
		t.Fatal("substitution failed")
	}
	return out
}

// outcome is everything a run yields that a replay must reproduce.
type outcome struct {
	out      string
	err      string
	steps    int
	alloc    int64
	purity   Purity
	replayed int
}

func run(sb *psast.ScriptBlock, opts Options, vars map[string]any) outcome {
	in := New(opts)
	for name, v := range vars {
		in.SetVar(name, v)
	}
	out, err := in.EvalScript(sb)
	o := outcome{steps: in.Steps(), alloc: in.allocBytes, purity: in.Purity(), replayed: in.StepsReplayed()}
	o.out = ToString(Unwrap(out))
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// sameOutcome compares a run through an Evaluated node with the run of
// the same script without it. A run the record fits replays it.
func sameOutcome(t *testing.T, what string, got, want outcome, wantReplay bool) {
	t.Helper()
	if got.out != want.out || got.err != want.err || got.steps != want.steps ||
		got.alloc != want.alloc || !reflect.DeepEqual(got.purity, want.purity) {
		t.Errorf("%s: with the record %+v, without %+v", what, got, want)
	}
	if replayed := got.replayed > 0; replayed != wantReplay {
		t.Errorf("%s: replayed %d steps, want a replay: %t", what, got.replayed, wantReplay)
	}
}

// TestEvaluatedReplaysExactly puts a recorded descendant into the
// script around it, a statement-form pipeline or an expression reading
// a preloaded variable, and checks that the replay gives the output,
// error, steps, memory charge and purity report of the full run.
func TestEvaluatedReplaysExactly(t *testing.T) {
	vars := map[string]any{"s": "72,101,108,108,111", "k": int64(7)}
	for _, tc := range []struct{ src, sub string }{
		{"(($s -split ',' | ForEach-Object { [char]([int]$_ -bxor $k) }) -join '')",
			"$s -split ',' | ForEach-Object { [char]([int]$_ -bxor $k) }"},
		{"-join ($s[9..0])", "$s[9..0]"},
		{"[Text.Encoding]::UTF8.GetString([Convert]::FromBase64String('SGVsbG8='))",
			"[Convert]::FromBase64String('SGVsbG8=')"},
		{"@($s -split ',').Count + $k", "$s -split ','"},
	} {
		root, err := psparser.Parse(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		top, ev := recorded(t, findText(t, tc.src, root, tc.sub), Options{}, vars)
		sameOutcome(t, tc.src, run(replace(t, root, top, ev), Options{}, vars), run(root, Options{}, vars), true)
	}
}

// evaluatedScript is a bxor decoder around a recorded ForEach-Object
// pipeline, parsed, with the record and the node it stands for. The
// pipeline's body builds a string per element, so the record charges
// both steps and bytes.
func evaluatedScript(t *testing.T) (root *psast.ScriptBlock, top psast.Node, ev *psast.Evaluated) {
	t.Helper()
	const (
		sub = "'104,99,112,112,105' -split ',' | ForEach-Object { [string][char]([int]$_ -bxor 7) + '.' }"
		src = "((" + sub + ") -join '') * 3"
	)
	root, err := psparser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	top, ev = recorded(t, findText(t, src, root, sub), Options{}, nil)
	if r := ev.Record.(*Record); r.steps == 0 || r.bytes == 0 {
		t.Fatalf("the record charges %d steps and %d bytes", r.steps, r.bytes)
	}
	return root, top, ev
}

// TestEvaluatedOverStepBudget lowers MaxSteps through the range where
// the budget runs out inside the recorded descendant: each run through
// the Evaluated node must stop with the error and step count of the
// script without it, evaluating the subtree where the record does not
// fit.
func TestEvaluatedOverStepBudget(t *testing.T) {
	root, top, ev := evaluatedScript(t)
	withRec := replace(t, root, top, ev)
	full := run(root, Options{}, nil).steps
	replayedSome, trippedSome := false, false
	for limit := full + 2; limit >= 1; limit-- {
		opts := Options{MaxSteps: limit}
		want := run(root, opts, nil)
		got := run(withRec, opts, nil)
		sameOutcome(t, "MaxSteps "+itoa(limit), got, want, got.replayed > 0)
		replayedSome = replayedSome || got.replayed > 0
		trippedSome = trippedSome || errors.Is(errorOf(got), ErrBudget) && got.replayed == 0
	}
	if !replayedSome || !trippedSome {
		t.Errorf("replayed under some budget: %t; tripped inside the descendant: %t", replayedSome, trippedSome)
	}
}

// TestEvaluatedOverMemoryBudget does the same with MaxAllocBytes.
func TestEvaluatedOverMemoryBudget(t *testing.T) {
	root, top, ev := evaluatedScript(t)
	withRec := replace(t, root, top, ev)
	full := run(root, Options{}, nil).alloc
	if full < 8 {
		t.Fatalf("the script charges only %d bytes", full)
	}
	replayedSome, trippedSome := false, false
	for limit := full + 1; limit >= 1; limit-- {
		opts := Options{MaxAllocBytes: limit}
		want := run(root, opts, nil)
		got := run(withRec, opts, nil)
		sameOutcome(t, "MaxAllocBytes "+itoa(int(limit)), got, want, got.replayed > 0)
		replayedSome = replayedSome || got.replayed > 0
		trippedSome = trippedSome || errors.Is(errorOf(got), ErrMemBudget) && got.replayed == 0
	}
	if !replayedSome || !trippedSome {
		t.Errorf("replayed under some budget: %t; tripped inside the descendant: %t", replayedSome, trippedSome)
	}
}

// TestEvaluatedOverDepthLimit nests a recorded descendant in
// parentheses until the expression depth limit falls inside it.
func TestEvaluatedOverDepthLimit(t *testing.T) {
	const src = "[char[]](('ab' + 'cd') * 2)"
	root, err := psparser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sub := root.Body.Statements[0].(*psast.Pipeline).Elements[0].(*psast.CommandExpression).Expression
	top, ev := recorded(t, sub, Options{}, nil)
	rec := ev.Record.(*Record)
	if rec.depth < 3 {
		t.Fatalf("recorded depth %d, want a nested expression", rec.depth)
	}
	nest := func(x psast.Node, k int) *psast.ScriptBlock {
		for range k {
			x = &psast.ParenExpression{Pipeline: &psast.Pipeline{Elements: []psast.Node{&psast.CommandExpression{Expression: x}}}}
		}
		return &psast.ScriptBlock{Body: &psast.NamedBlock{Statements: []psast.Node{
			&psast.Pipeline{Elements: []psast.Node{&psast.CommandExpression{Expression: x}}}}}}
	}
	replayedSome, trippedSome := false, false
	for k := maxExprDepth - rec.depth - 3; k <= maxExprDepth-rec.depth+2; k++ {
		want := run(nest(top, k), Options{}, nil)
		got := run(nest(ev, k), Options{}, nil)
		sameOutcome(t, "depth "+itoa(k), got, want, got.replayed > 0)
		replayedSome = replayedSome || got.replayed > 0
		trippedSome = trippedSome || errors.Is(errorOf(got), ErrBudget)
	}
	if !replayedSome || !trippedSome {
		t.Errorf("replayed at some depth: %t; tripped: %t", replayedSome, trippedSome)
	}
}

// TestRecordRefusals: no record where the marked node failed, was
// impure or computed a value CopyValue refuses.
func TestRecordRefusals(t *testing.T) {
	for _, src := range []string{
		"1 / 0",
		"Get-Random",
		"@{a = 1}",
		"$undefined + 1",
	} {
		root, err := psparser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		stmt := root.Body.Statements[0]
		mark := &psast.Evaluated{Node: stmt}
		in := New(Options{StrictVars: true})
		in.EvalScript(&psast.ScriptBlock{Body: &psast.NamedBlock{Statements: []psast.Node{mark}}})
		if _, ok := in.Record(); ok {
			t.Errorf("%q: recorded", src)
		}
	}
}

// TestCopySizeMatchesCopyValue: copySize accepts exactly the values
// CopyValue copies, and sizes them as ValueSize does.
func TestCopySizeMatchesCopyValue(t *testing.T) {
	for _, v := range []any{
		nil, "abc", true, 3, int64(-4), 2.5, Char('x'), TypeValue{Name: "int"},
		Bytes{1, 2, 3}, []any{}, []any{"a", int64(1), Bytes{4}, []any{Char('q'), nil}},
		NewHashtable(), []any{"a", NewHashtable()}, &ScriptBlockValue{Text: "1"},
		[]any{[]any{NewObject("System.Random")}},
	} {
		size, ok := copySize(v)
		_, copied := CopyValue(v)
		if ok != copied || ok && size != ValueSize(v) {
			t.Errorf("%#v: copySize %d, %t; CopyValue %t, ValueSize %d", v, size, ok, copied, ValueSize(v))
		}
	}
}

// TestLabelledFlowUnsupported: loops stop at the innermost one, so a
// break or continue that names an outer loop's label is refused rather
// than evaluated to a wrong result; unlabelled ones are unchanged.
func TestLabelledFlowUnsupported(t *testing.T) {
	for _, src := range []string{
		`:outer foreach ($i in 1..3) { foreach ($j in 1..3) { if ($j -eq 2) { break outer }; "$i$j" } }`,
		`:outer foreach ($i in 1..3) { foreach ($j in 1..3) { if ($j -eq 2) { continue outer }; "$i$j" } }`,
	} {
		if _, err := New(Options{}).EvalSnippet(src); !errors.Is(err, ErrUnsupported) {
			t.Errorf("%s: error %v, want ErrUnsupported", src, err)
		}
	}
	for src, want := range map[string]string{
		`foreach ($i in 1..3) { foreach ($j in 1..3) { if ($j -eq 2) { break }; "$i$j" } }`:    "11 21 31",
		`foreach ($i in 1..3) { foreach ($j in 1..3) { if ($j -eq 2) { continue }; "$i$j" } }`: "11 13 21 23 31 33",
	} {
		if got := eval(t, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func errorOf(o outcome) error {
	switch {
	case o.err == "":
		return nil
	case o.err == ErrBudget.Error():
		return ErrBudget
	case o.err == ErrMemBudget.Error():
		return ErrMemBudget
	}
	return errors.New(o.err)
}

func itoa(n int) string { return ToString(int64(n)) }
