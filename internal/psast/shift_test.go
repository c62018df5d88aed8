package psast_test

import (
	"reflect"
	"strings"
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/psast"
	"github.com/invoke-deobfuscation/invokedeob/internal/psparser"
)

// shiftScript exercises a broad slice of node kinds: assignments,
// pipelines, commands with parameters, member and index access,
// operators, conditionals, loops, functions, try/catch, arrays,
// hashtables, sub-expressions and expandable strings.
const shiftScript = `$a = 'x' + 'y'
$b = @(1, 2, 3)
$h = @{k = 'v'; n = 42}
$s = "pre $a post"
if ($a -eq 'xy') { Write-Output $a } else { Write-Output 'no' }
foreach ($i in $b) { $sum += $i }
while ($sum -gt 100) { $sum = $sum - 1 }
function Get-Thing($p) { return $p.Length }
try { $r = [math]::Max(1, 2) } catch { $r = 0 }
$t = $h['k'].ToUpper()
$u = $(Get-Thing 'abc') * 2
& cmd /c echo hi | Out-Null
`

// TestShiftMatchesReparseAtOffset pins Shift's one job: a subtree
// parsed at offset zero and shifted by delta must be deep-equal to the
// same source parsed at byte offset delta. Prefixing whitespace-only
// lines moves every extent without changing structure, which gives the
// parser-built ground truth.
func TestShiftMatchesReparseAtOffset(t *testing.T) {
	pad := strings.Repeat("\n", 7)
	base, err := psparser.Parse(shiftScript)
	if err != nil {
		t.Fatalf("parse base: %v", err)
	}
	moved, err := psparser.Parse(pad + shiftScript)
	if err != nil {
		t.Fatalf("parse padded: %v", err)
	}
	if len(base.Body.Statements) != len(moved.Body.Statements) {
		t.Fatalf("statement count changed under padding: %d vs %d",
			len(base.Body.Statements), len(moved.Body.Statements))
	}
	for i, st := range base.Body.Statements {
		shifted := psast.Shift(st, len(pad))
		if shifted == nil {
			t.Fatalf("Shift returned nil for statement %d (%T)", i, st)
		}
		if !reflect.DeepEqual(shifted, moved.Body.Statements[i]) {
			t.Errorf("statement %d (%T): shifted copy diverges from reparse at offset\nshift: %#v\nparse: %#v",
				i, st, shifted, moved.Body.Statements[i])
		}
	}
}

// TestShiftZeroSharesStructure pins the delta-zero fast path: cached
// ASTs are immutable, so an unshifted reuse may alias the input.
func TestShiftZeroSharesStructure(t *testing.T) {
	root, err := psparser.Parse(shiftScript)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range root.Body.Statements {
		if got := psast.Shift(st, 0); got != st {
			t.Fatalf("Shift(%T, 0) returned a copy, want the same node", st)
		}
	}
	if psast.Shift(nil, 3) != nil {
		t.Fatal("Shift(nil) != nil")
	}
}

// TestShiftDoesNotMutateInput verifies Shift is a copy, not an in-place
// offset: the original extents must be untouched afterwards.
func TestShiftDoesNotMutateInput(t *testing.T) {
	root, err := psparser.Parse(shiftScript)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]psast.Extent, len(root.Body.Statements))
	for i, st := range root.Body.Statements {
		before[i] = st.Extent()
	}
	for _, st := range root.Body.Statements {
		psast.Shift(st, 1000)
	}
	for i, st := range root.Body.Statements {
		if st.Extent() != before[i] {
			t.Fatalf("statement %d extent mutated: %v -> %v", i, before[i], st.Extent())
		}
	}
}

// shape renders a tree's kinds and literal values without extents.
func shape(n psast.Node) string {
	var sb strings.Builder
	psast.Walk(n, func(x psast.Node) bool {
		sb.WriteString("(" + x.Kind().String())
		switch v := x.(type) {
		case *psast.StringConstant:
			sb.WriteString(" " + v.Value)
		case *psast.VariableExpression:
			sb.WriteString(" $" + v.Name)
		case *psast.ConstantExpression:
			sb.WriteString(" " + v.Text)
		}
		return true
	}, func(psast.Node) { sb.WriteString(")") })
	return sb.String()
}

// TestSubstituteCopiesOnlyTheSpine pins Substitute's copy-on-write: the
// replacement lands in place, the nodes on the path to it are copies,
// every other subtree is the input's own node, and the input is left
// as it was.
func TestSubstituteCopiesOnlyTheSpine(t *testing.T) {
	const src = "$a = ('x' + $v) * 2\n$b = 'untouched'"
	root, err := psparser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	v := psast.FindAll(root, func(n psast.Node) bool {
		x, ok := n.(*psast.VariableExpression)
		return ok && x.Name == "v"
	})[0]
	before := shape(root)
	lit := &psast.StringConstant{Value: "y", SingleQuoted: true}
	var copied []psast.Node
	out := psast.Substitute(root, func(n psast.Node) (psast.Node, bool) {
		switch {
		case n == v:
			return lit, true
		case !n.Extent().Contains(v.Extent()):
			return n, true
		}
		copied = append(copied, n)
		return nil, false
	})
	want, err := psparser.Parse("$a = ('x' + 'y') * 2\n$b = 'untouched'")
	if err != nil {
		t.Fatal(err)
	}
	if got := shape(out); got != shape(want) {
		t.Errorf("substituted tree\n%s\nwant\n%s", got, shape(want))
	}
	if shape(root) != before {
		t.Error("Substitute modified its input")
	}
	kept := out.(*psast.ScriptBlock).Body.Statements[1]
	if kept != root.Body.Statements[1] {
		t.Error("an untouched statement was copied, want it shared")
	}
	for _, n := range copied {
		if psast.FindAll(out, func(x psast.Node) bool { return x == n }) != nil {
			t.Errorf("%s on the path to the replacement was not copied", n.Kind())
		}
	}
	if len(copied) == 0 {
		t.Fatal("walked no spine")
	}
}

// TestSubstituteAbandons pins the two ways a substitution yields nil:
// the callback gives up, or a typed field would receive another kind.
func TestSubstituteAbandons(t *testing.T) {
	root, err := psparser.Parse("if ($c) { 'a' } else { 'b' }")
	if err != nil {
		t.Fatal(err)
	}
	if out := psast.Substitute(root, func(n psast.Node) (psast.Node, bool) {
		if _, ok := n.(*psast.VariableExpression); ok {
			return nil, true
		}
		return nil, false
	}); out != nil {
		t.Errorf("abandoned substitution returned %s", shape(out))
	}
	if out := psast.Substitute(root, func(n psast.Node) (psast.Node, bool) {
		if _, ok := n.(*psast.StatementBlock); ok {
			return &psast.Pipeline{}, true
		}
		return nil, false
	}); out != nil {
		t.Errorf("a pipeline in a statement-block field returned %s", shape(out))
	}
}
