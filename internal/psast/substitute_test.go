package psast_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/psast"
	"github.com/invoke-deobfuscation/invokedeob/internal/psparser"
)

// substituteScript holds every node kind rebuild copies, with the
// optional fields set where the parser sets them: a param block,
// assignments, pipelines run in the background, commands with
// invocation operators, parameters and redirections, member and index
// access, unary, binary and parenthesized expressions, casts,
// conditionals, every loop kind, switch, functions and filters,
// try/catch/finally, arrays, hashtables, script blocks, sub-expressions,
// here-strings and expandable strings.
const substituteScript = `param($p = 1, [int]$q)
$a = 'x' + 'y'
$b = @(1, 2, 3)
$h = @{k = 'v'; n = 42}
$s = "pre $a post"
$hs = @'
here
'@
if ($a -eq 'xy') { Write-Output $a } elseif ($q) { 'q' } else { Write-Output 'no' }
:outer foreach ($i in $b) { $sum += $i; break outer }
while ($sum -gt 100) { $sum = $sum - 1 }
do { $n++ } until ($n -ge 3)
for ($j = 0; $j -lt 3; $j++) { continue }
switch ($a) { 'xy' { 'match' } default { 'none' } }
function Get-Thing($p) { return $p.Length }
filter Only-Odd { if ($_ % 2) { $_ } }
try { $r = [math]::Max(1, 2) } catch [System.Exception] { $r = 0 } finally { $done = $true }
$t = $h['k'].ToUpper()
$u = $(Get-Thing 'abc') * -2
$c = ([int]'5' + [math]::PI) * 2
$sb = { param($z) -not $z }
& cmd /c echo hi | Out-Null
Get-Item -Path x 2> err.txt
Invoke-Thing @args
Start-Sleep 1 &
`

// TestSubstituteCopiesEveryField pins rebuild's per-kind copy, which
// Substitute runs on every node on a path to a replacement: a
// substitution that replaces nothing returns a tree deep-equal to the
// parsed input that shares no node with it. A field a rebuild case
// leaves out shows as a difference, and a child it does not map as a
// shared node. Each top-level statement is compared on its own, so a
// failure names the statement that lost a field.
func TestSubstituteCopiesEveryField(t *testing.T) {
	root, err := psparser.Parse(substituteScript)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	in := make(map[psast.Node]bool)
	kinds := make(map[psast.Kind]bool)
	psast.Walk(root, func(n psast.Node) bool {
		in[n] = true
		kinds[n.Kind()] = true
		return true
	}, nil)
	for k := psast.KindScriptBlock; k <= psast.KindHashtable; k++ {
		if !kinds[k] {
			t.Errorf("substituteScript has no %s", k)
		}
	}
	out, ok := psast.Substitute(root, func(psast.Node) (psast.Node, bool) { return nil, false }).(*psast.ScriptBlock)
	if !ok || out == nil {
		t.Fatal("Substitute replacing nothing did not return a script block")
	}
	shared := 0
	psast.Walk(out, func(n psast.Node) bool {
		if in[n] {
			shared++
		}
		return true
	}, nil)
	if shared != 0 {
		t.Errorf("the copy shares %d nodes with its input, want none", shared)
	}
	t.Run("params", func(t *testing.T) {
		if !reflect.DeepEqual(out.Params, root.Params) {
			t.Errorf("param block copy diverges from the parse\ncopy:  %#v\nparse: %#v", out.Params, root.Params)
		}
	})
	for i, st := range root.Body.Statements {
		t.Run(fmt.Sprintf("%02d_%s", i, st.Kind()), func(t *testing.T) {
			if got := out.Body.Statements[i]; !reflect.DeepEqual(got, st) {
				t.Errorf("copy diverges from the parse\ncopy:  %#v\nparse: %#v", got, st)
			}
		})
	}
	if !reflect.DeepEqual(out, root) {
		t.Error("the copied tree diverges from the parse")
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
