package psfront

import (
	"fmt"
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/core"
	"github.com/invoke-deobfuscation/invokedeob/internal/psast"
	"github.com/invoke-deobfuscation/invokedeob/internal/psinterp"
	"github.com/invoke-deobfuscation/invokedeob/internal/psparser"
	"github.com/invoke-deobfuscation/invokedeob/internal/sandbox"
)

// TestSplicedLiteralReparsesInPlace pins the shapes where a recovered
// literal, spliced bare, re-lexes with its neighbours: a number before a
// member access becomes one bare word, a negative number after a minus
// becomes a postfix decrement, and in command-argument mode a literal
// before `.length` splits into three arguments and two adjacent quoted
// literals merge into one. For each input the
// output must re-parse with the literal (or the value it folds to) as
// one primary, and run in the sandbox exactly as the input does. The
// "unfolded" inputs read an unknown variable, so the spliced literal
// stays visible in the output instead of being folded further.
func TestSplicedLiteralReparsesInPlace(t *testing.T) {
	cases := []struct {
		name, src string
		want      any // a primary the output must contain
	}{
		{"number member in argument", "$n = 3\nWrite-Output $n.Length\n", 3},
		{"number member at statement start", "$x = 3\n$x.Length\n", 1},
		{"number member at statement start, unfolded", "$x = 3\n$x.Length + $u\n", 3},
		{"negative number after minus", "$y = -3\n$z = 5-$y\n$z\n", 8},
		{"negative number after minus, unfolded", "$y = -3\n$z = $u+5-$y\n$z\n", -3},
		{"string member in nested argument", "$a = 'abc'\n$b = [string](Write-Output $a.Length)\n$b\n", "3"},
		{"string member in nested argument, unfolded", "$a = 'abc'\n$b = [string](Write-Output $a.Length $u)\n$b\n", "abc"},
		{"adjacent strings in argument", "$a = 'x'\n$b = 'y'\nWrite-Output $a$b\n", "x"},
		{"number after an operator word", "$k = 5\n$r = 'a' -bxor$k\n$r\n", 5},
		{"number after an operator word, unfolded", "$k = 5\n$r = $u -bxor$k\n$r\n", 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := core.New(core.Options{Lang: "powershell"}).Deobfuscate(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			in, err := psparser.Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			out, err := psparser.Parse(res.Script)
			if err != nil {
				t.Fatalf("output does not parse: %v\n%s", err, res.Script)
			}
			if got, want := len(out.Body.Statements), len(in.Body.Statements); got != want {
				t.Errorf("output has %d statements, input %d:\n%s", got, want, res.Script)
			}
			if !hasPrimary(out, tc.want) {
				t.Errorf("output lacks the primary %#v:\n%s", tc.want, res.Script)
			}
			if got, want := runBehaviour(res.Script), runBehaviour(tc.src); got != want {
				t.Errorf("behaviour changed:\ninput  %s\noutput %s\n%s", want, got, res.Script)
			}
		})
	}
}

// hasPrimary reports whether the tree holds v as one literal primary: a
// constant or a quoted (not bare) string.
func hasPrimary(root psast.Node, v any) bool {
	found := false
	psast.Walk(root, func(n psast.Node) bool {
		switch x := n.(type) {
		case *psast.ConstantExpression:
			_, isString := v.(string)
			found = found || !isString && fmt.Sprint(x.Value) == fmt.Sprint(v)
		case *psast.StringConstant:
			found = found || !x.Bare && x.Value == v
		}
		return !found
	}, nil)
	return found
}

// runBehaviour renders what a script does in the sandbox (its recorded
// events and console) together with its pipeline output.
func runBehaviour(src string) string {
	res := sandbox.Run(src, sandbox.Options{})
	vals, err := psinterp.New(psinterp.Options{}).EvalSnippet(src)
	return fmt.Sprintf("events=%v console=%q err=%v output=%#v err=%v", res.Behavior, res.Console, res.Err, vals, err)
}
