package psfront_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/core"
	"github.com/invoke-deobfuscation/invokedeob/internal/corpus"
	"github.com/invoke-deobfuscation/invokedeob/internal/gauntlet"
	"github.com/invoke-deobfuscation/invokedeob/internal/psfront"
	"github.com/invoke-deobfuscation/invokedeob/internal/psinterp"
	"github.com/invoke-deobfuscation/invokedeob/internal/psparser"
)

// hazardScripts place traced values where a spliced literal could
// re-lex with its neighbours or where the parsed subtree and the text
// could disagree: member access on numbers, signs, ranges, member
// names, command arguments, script block literals, expandable strings.
var hazardScripts = []string{
	"$n = 3\nWrite-Output $n.Length",
	"$x = 3\n$x.Length",
	"$y = -3\n$z = 5-$y",
	"$a = 'abc'\n$b = [string](Write-Output $a.Length)",
	"$y = 3\n$z = -$y\n$w = 2*-$y + 1\n$v = 5-$y+$y",
	"$n = 4\n$r = (1..$n) -join ''\n$s = ($n..1) -join ''",
	"$n = 3\n$s = $n.ToString() + 'x'",
	"$m = 'Length'\n$v = 'abcd'.$m + 1",
	"$i = 2\n$c = 'abcdef'[$i] + 'abcdef'[$i+1]",
	"$k = 5\n$r = (1,2,3 | ForEach-Object { $_ * $k }) -join ','",
	"$a = 'x'\n$b = 'y'\n$c = [string](Write-Output $a$b)",
	"$s = 'a''b'\n$t = $s + $s.Length",
	"$h = 'ab'\n$r = \"$h-$($h.Length)\" + $h",
	"$p = 'QQBCAEMA'\n$t = [Text.Encoding]::Unicode.GetString([Convert]::FromBase64String($p))",
	"$n = 7\n$r = $n -bxor 3\n$q = -bnot $n\n$z = +$n",
	"$big = 3000000000\n$r = $big + 1\n$s = $big.ToString()",
	"$f = 1.5\n$g = $f * 2 + 5-$f",
	"$neg = -2\n$r = 3 * $neg + 1\n$s = [string]$neg + 'x'",
	"$v = 'x'\n$r = [string]({ $v + 'y' }) + $v",
	"$c = 'iex'\n$d = ('wri'+'te-host') + ' ' + $c.ToUpper()\n&$c $d",
	"$e = 'a,b,c'\n$f = ($e -split ',')[1] + $e.Replace(',', '')",
}

// functionTracingScripts are the inputs of the FunctionTracing tests in
// internal/core: a pure decoder, impure ones and one with locals.
var functionTracingScripts = []string{
	"function decode($s) { -join ($s -split ',' | ForEach-Object { [char]([int]$_ -bxor 7) }) }\n" +
		"$stage = decode('112,117,110,115,98,42,111,104,116,115,39,111,110')\nInvoke-Expression $stage",
	"function f($a) { $a + $outer }\n$x = f('v')\nwrite-host $x",
	"function f($a) { Invoke-WebRequest $a }\n$x = f('http://x.test')\nwrite-host $x",
	"function f($a) { & $a 'arg' }\n$x = f('cmd')\nwrite-host $x",
	"function rev($s) { $tmp = $s.ToCharArray(); [array]::Reverse($tmp); -join $tmp }\n" +
		"$u = rev('1sp.tset//:ptth')\nwrite-host $u",
}

// TestPieceNodeEvalMatchesText is the proof behind evaluating each
// piece on its parsed subtree instead of a parse of its text: every
// piece the ast phase ran on the subtree is run again on
// psparser.Parse(snippet) in a fresh interpreter under the same
// bindings and options, and the two runs must agree on output values,
// error text, step count and purity report. Deadline and cancel
// outcomes depend on timing and are skipped. The inputs are the golden
// inputs, a second 24-sample corpus, the FunctionTracing fixtures and
// the hazard shapes, each with FunctionTracing off and on, and the
// gauntlet-smoke grid. The test logs the share of pieces that fell back
// to parsing their text.
func TestPieceNodeEvalMatchesText(t *testing.T) {
	if testing.Short() {
		t.Skip("differential run over the goldens, corpus and gauntlet grid")
	}
	scripts := goldenInputs(t)
	for _, cfg := range []corpus.Config{
		{Seed: 20220627, N: 24, MaxL3Layers: 3}, // the golden corpus
		{Seed: 1, N: 24},
	} {
		for _, s := range corpus.Generate(cfg) {
			scripts = append(scripts, s.Source)
		}
	}
	scripts = append(scripts, functionTracingScripts...)
	scripts = append(scripts, hazardScripts...)

	for _, tracing := range []bool{false, true} {
		t.Run(fmt.Sprintf("FunctionTracing=%t", tracing), func(t *testing.T) {
			d := watchDifferential(t)
			for _, src := range scripts {
				if _, err := core.New(core.Options{Lang: "powershell", FunctionTracing: tracing}).Deobfuscate(src); err != nil {
					t.Fatalf("%v on %q", err, clip(src))
				}
			}
			d.stop(t)
			d.requireReplays(t)
		})
	}
	t.Run("gauntlet-smoke", func(t *testing.T) {
		d := watchDifferential(t)
		if _, err := gauntlet.Run(context.Background(), gauntlet.Config{Seed: 7, Samples: 6, MaxDepth: 2, Jobs: 2}); err != nil {
			t.Fatal(err)
		}
		d.stop(t)
		d.requireReplays(t)
	})
}

// goldenInputs returns the inputs of the PowerShell golden suite.
func goldenInputs(t *testing.T) []string {
	files, err := filepath.Glob(filepath.Join("..", "core", "testdata", "*.ps1"))
	if err != nil || len(files) == 0 {
		t.Fatalf("golden testdata: %v (%d files)", err, len(files))
	}
	scripts := make([]string, 0, len(files))
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		scripts = append(scripts, string(src))
	}
	return scripts
}

// differential counts the pieces evaluated each way, and the subtree
// evaluations that replayed a recorded descendant, and checks every
// subtree evaluation against the text path.
type differential struct {
	node, text, replays, checked, failed atomic.Int64
	unwatch                              func()
}

func watchDifferential(t *testing.T) *differential {
	d := &differential{}
	d.unwatch = psfront.WatchPieceEvals(func(e psfront.PieceEval) {
		if !e.Node {
			d.text.Add(1)
			return
		}
		d.node.Add(1)
		if e.Interp.StepsReplayed() > 0 {
			d.replays.Add(1)
		}
		if diff := textPathDiff(e); diff != "" {
			if d.failed.Add(1) <= 10 {
				t.Errorf("subtree and text evaluation differ on %q:\n%s", clip(e.Snippet), diff)
			}
			return
		}
		d.checked.Add(1)
	})
	return d
}

func (d *differential) stop(t *testing.T) {
	d.unwatch()
	node, text := d.node.Load(), d.text.Load()
	t.Logf("%d pieces ran on the parsed subtree (%d checked against the text path, %d replaying a recorded descendant), %d parsed their text: fallback share %.2f%%",
		node, d.checked.Load(), d.replays.Load(), text, 100*float64(text)/float64(max(node+text, 1)))
	if node == 0 {
		t.Error("no piece ran on its parsed subtree")
	}
	if n := d.failed.Load(); n > 0 {
		t.Errorf("%d subtree evaluations differ from the text path", n)
	}
}

// requireReplays fails when no watched evaluation replayed a recorded
// descendant, so the differential covers the replays.
func (d *differential) requireReplays(t *testing.T) {
	if d.replays.Load() == 0 {
		t.Error("no piece replayed a recorded descendant")
	}
}

// fuzzContexts place the traced $n (a number) and $s (a string), and
// the fuzzed expression EXPR, where a spliced literal meets signs,
// dots, ranges, member names, casts, operator words, command arguments,
// script block literals and expandable strings.
var fuzzContexts = []string{
	"EXPR",
	"5-$n",
	"-$n + 1",
	"2*-$n",
	"[int]-$n",
	"$n.ToString() + $s",
	"$n.Length",
	"$s.Length - $n",
	"[string](Write-Output $s.Length)",
	"[string](Write-Output $s$n)",
	"(($n..3) + (1..$n)) -join ','",
	"'abcdef'.$s",
	"'abcdef'.Substring($n)",
	"$s[$n] + $s[-1]",
	"'x' -bxor$n",
	"$n-bxor 3",
	"[char](65+$n) + [char]$n",
	"($s + $n).Length",
	"@($n, $s) -join '|'",
	"(1,2 | ForEach-Object { $_ + $n }) -join ''",
	"[string]({ $s + EXPR })",
	"\"$s$($n + 1)\" + $s",
	"$( $n + 1 ) + EXPR",
	"($s -split '')[$n] + EXPR",
	"EXPR + $n",
	"-join (EXPR)",
	"(f $n) + (f EXPR)",
	// Array and byte-array values inside an enclosing piece, which
	// replays the recorded inner piece.
	"(($s -split '') -join EXPR) + $n",
	"-join ($s[$n..0]) + EXPR",
	"((1..$n | ForEach-Object { [char](65 + $_ % 26) }) -join '') + EXPR",
	"[Text.Encoding]::UTF8.GetString([Convert]::FromBase64String('SGVsbG8=')) + EXPR",
	"@(1..$n).Count + ($s -split EXPR).Count",
	"((1..$n) + ($s -split '')).Count * EXPR",
	"@(1..$n | ForEach-Object { $_ * 2 }).Count + @(1..$n | ForEach-Object { $_ * 3 }).Count + EXPR",
	// A script block, a dynamic one and Get-Variable that would read
	// the $_ a recorded piece leaves, and a foreach loop that sets the
	// variable a recorded piece reads, which keep the enclosing piece
	// from replaying it.
	"(1..$n | ForEach-Object { $_ }) + (Invoke-Command { $_ })",
	"@(1..$n | ForEach-Object { $_ }).Count + [scriptblock]::Create('$_').Invoke()",
	"@(1..$n | ForEach-Object { $_ }).Count + (Get-Variable _ -ValueOnly)",
	"@($(foreach ($n in 1..2) { 'x' })).Count + (@(Get-Variable n -ValueOnly) + EXPR)[0]",
}

// FuzzPieceNodeEval checks piece evaluation on the parsed subtree
// against the text path on generated scripts: a traced number and
// string, spliced into one of fuzzContexts, with a fuzzed expression in
// some of them, next to a pure function f, deobfuscated with
// FunctionTracing off and on (the shape's high bit). A nonzero budget
// gives each piece its low 10 bits as a step budget and 256 bytes per
// unit of its high 6 bits, plus 256, as a memory budget, so limits trip
// inside the descendants an enclosing piece replays. Every piece that
// ran on its subtree, replaying or not, must agree with the text path,
// as in TestPieceNodeEvalMatchesText.
func FuzzPieceNodeEval(f *testing.F) {
	for i := range fuzzContexts {
		f.Add(int64(3), "abc", uint8(i), "$s + $n", uint16(0))
	}
	f.Add(int64(-3), "a'b", uint8(1), "-$n", uint16(0))
	f.Add(int64(0), "Length", uint8(11), "$n.$s", uint16(0))
	f.Add(int64(3000000000), "", uint8(0), "[char]($n % 90 + 32)", uint16(0))
	f.Add(int64(7), "x.y", uint8(22), "'a'.$s", uint16(0))
	// Contexts 19 and 20, the ForEach-Object and script-block literal
	// ones, with FunctionTracing on.
	f.Add(int64(2), "q", uint8(0x80|19), "$n * 2", uint16(0))
	f.Add(int64(5), "zz", uint8(0x80|20), "$s * $n + $s.Length", uint16(0))
	// The array-valued contexts, from 27 on, with FunctionTracing on,
	// which puts the prelude's definitions before each replaying piece.
	for i := 27; i < len(fuzzContexts); i++ {
		f.Add(int64(3), "abc", uint8(0x80|i), "$s + $n", uint16(0))
	}
	// Small budgets on the replaying contexts, 91 to 1,001 steps and
	// 256 bytes to 2 KiB, under which two recorded descendants fit one
	// by one but not together, so the enclosing piece evaluates the
	// second and trips inside it.
	for i, c := range fuzzContexts {
		if !strings.Contains(c, "..$n") && !strings.Contains(c, "-split") {
			continue
		}
		for _, budget := range []uint16{90, 250, 400, 600, 3<<10 | 1000, 7<<10 | 1000} {
			f.Add(int64(40), "abcdefghijklmnopqrst", uint8(i), "''", budget)
		}
	}
	f.Fuzz(func(t *testing.T, n int64, str string, shape uint8, expr string, budget uint16) {
		if len(str) > 64 || len(expr) > 128 {
			return
		}
		ctx := strings.ReplaceAll(fuzzContexts[int(shape&0x7f)%len(fuzzContexts)], "EXPR", expr)
		src := "function f($x) { $x + 1 }\n$n = " + strconv.FormatInt(n, 10) + "\n$s = " + psfront.QuoteSingle(str) +
			"\n$r = " + ctx + "\n$r\n"
		if _, err := psparser.Parse(src); err != nil {
			return
		}
		d := watchDifferential(t)
		defer d.unwatch()
		opts := core.Options{Lang: "powershell", MaxIterations: 3, StepBudget: 50_000, FunctionTracing: shape&0x80 != 0}
		if budget != 0 {
			opts.StepBudget = int(budget&0x3ff) + 1
			opts.MaxAllocBytes = int64(budget>>10)*256 + 256
		}
		core.New(opts).Deobfuscate(src)
	})
}

// textPathDiff runs e's snippet the way the paper does — parsed from
// its text, in a fresh interpreter with the same options and bindings —
// and describes how the outcome differs from e's, or returns "" when
// it is the same or timing-dependent.
func textPathDiff(e psfront.PieceEval) string {
	if timingErr(e.Err) {
		return ""
	}
	sb, err := psparser.Parse(e.Snippet)
	if err != nil {
		return fmt.Sprintf("the snippet does not parse: %v", err)
	}
	in := psinterp.New(e.Opts)
	for name, v := range e.Binds {
		in.SetVar(name, v)
	}
	out, err := in.EvalScript(sb)
	if timingErr(err) {
		return ""
	}
	var diffs []string
	if got, want := render(e.Out), render(out); got != want {
		diffs = append(diffs, fmt.Sprintf("values %s, text path %s", got, want))
	}
	if got, want := errText(e.Err), errText(err); got != want {
		diffs = append(diffs, fmt.Sprintf("error %q, text path %q", got, want))
	}
	if got, want := e.Interp.Steps(), in.Steps(); got != want {
		diffs = append(diffs, fmt.Sprintf("%d steps, text path %d", got, want))
	}
	if got, want := e.Interp.Purity(), in.Purity(); !reflect.DeepEqual(got, want) {
		diffs = append(diffs, fmt.Sprintf("purity %+v, text path %+v", got, want))
	}
	return strings.Join(diffs, "\n")
}

func timingErr(err error) bool {
	return errors.Is(err, psinterp.ErrDeadline) || errors.Is(err, psinterp.ErrCanceled)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// render prints output values with their types. A script block renders
// as its text: its body is a different (but equal) tree on each path.
func render(v any) string {
	switch x := v.(type) {
	case []any:
		parts := make([]string, len(x))
		for i, e := range x {
			parts[i] = render(e)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case *psinterp.ScriptBlockValue:
		return fmt.Sprintf("scriptblock:%q", x.Text)
	}
	return fmt.Sprintf("%T:%q", v, psinterp.ToString(v))
}

func clip(s string) string {
	if len(s) > 200 {
		return s[:200] + "..."
	}
	return s
}
