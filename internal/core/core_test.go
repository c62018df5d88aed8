package core

import (
	"strings"
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/sandbox"
)

func deob(t *testing.T, src string) string {
	t.Helper()
	res, err := New(Options{}).Deobfuscate(src)
	if err != nil {
		t.Fatalf("Deobfuscate(%q): %v", src, err)
	}
	return res.Script
}

func deobWith(t *testing.T, src string, opts Options) string {
	t.Helper()
	res, err := New(opts).Deobfuscate(src)
	if err != nil {
		t.Fatalf("Deobfuscate(%q): %v", src, err)
	}
	return res.Script
}

func TestTokenPhase(t *testing.T) {
	tests := []struct{ src, want string }{
		// Alias expansion.
		{"iex 'x'", "Invoke-Expression"},
		{"gci", "Get-ChildItem"},
		// Random case.
		{"wRiTe-HoSt hi", "Write-Host hi"},
		{"[TeXT.eNcOdINg]::UnIcOdE", "[text.encoding]::unicode"},
		// Ticking.
		{"w`rIt`e-hO`sT hi", "Write-Host hi"},
		// Keyword case.
		{"IF (1) { 2 }", "if (1)"},
		// Parameter case.
		{"powershell -NoP -W hidden", "-nop -w hidden"},
		// Type-name argument case.
		{"New-Object NET.WebCLIENT", "New-Object net.webclient"},
	}
	for _, tt := range tests {
		got := deobWith(t, tt.src, Options{DisableASTPhase: true, DisableRename: true, DisableReformat: true})
		if !strings.Contains(got, tt.want) {
			t.Errorf("tokenPhase(%q) = %q, want substring %q", tt.src, got, tt.want)
		}
	}
}

func TestTokenPhasePreservesStrings(t *testing.T) {
	src := "write-host 'MiXeD CaSe DATA' \"BASE64==Data\""
	got := deobWith(t, src, Options{DisableASTPhase: true, DisableRename: true, DisableReformat: true})
	if !strings.Contains(got, "'MiXeD CaSe DATA'") {
		t.Errorf("string literal mutated: %q", got)
	}
	if !strings.Contains(got, "BASE64==Data") {
		t.Errorf("double-quoted data mutated: %q", got)
	}
}

func TestVariableTracingScope(t *testing.T) {
	// A variable assigned inside a conditional must not be inlined
	// (Algorithm 1 lines 9-11).
	src := `if ($x) { $a = 'maybe' }
write-host $a`
	got := deob(t, src)
	if strings.Contains(got, "write-host 'maybe'") {
		t.Errorf("conditional assignment wrongly inlined: %q", got)
	}
	// A variable assigned in a loop must not be folded.
	src2 := `foreach ($i in 1..3) { $acc += $i }
write-host $acc`
	got2 := deob(t, src2)
	if strings.Contains(got2, "write-host 6") || strings.Contains(got2, "write-host '6'") {
		t.Errorf("loop accumulator wrongly folded: %q", got2)
	}
}

func TestVariableTracingReassignment(t *testing.T) {
	// The trace must honour the latest assignment at each use site.
	src := `$a = 'first'
$b = $a + '!'
$a = 'second'
$c = $a + '?'
write-host $b $c`
	got := deob(t, src)
	if !strings.Contains(got, "'first!'") || !strings.Contains(got, "'second?'") {
		t.Errorf("reassignment tracing wrong: %q", got)
	}
}

func TestVariableNotInlinedWhenUnknownRHS(t *testing.T) {
	src := `$a = Get-Date
write-host $a`
	got := deob(t, src)
	if !strings.Contains(got, "$") {
		t.Errorf("unknown-valued variable disappeared: %q", got)
	}
}

func TestBlocklistPreventsExecution(t *testing.T) {
	// The recoverable piece contains a blocklisted command; it must be
	// kept verbatim instead of executed/replaced.
	src := "$x = (Invoke-WebRequest 'http://x.test').Content + 'y'"
	got := deob(t, src)
	if !strings.Contains(strings.ToLower(got), "invoke-webrequest") {
		t.Errorf("blocklisted piece was replaced: %q", got)
	}
}

// TestLabelledFlowNotFolded: the interpreter's loops stop at the
// innermost one, so a piece whose break or continue names an outer
// loop's label must be kept, not folded to what the innermost loop
// gives. The $i and $j assignments make the loop variables known, so
// the pieces pass the safety walk; sort is a safe command's alias,
// which used to parse as a command after an unlabelled break.
func TestLabelledFlowNotFolded(t *testing.T) {
	for _, tc := range []struct{ src, wrong, keep string }{
		{"$i = 1; $j = 1\n$r = $(:outer foreach ($i in 1..3) { foreach ($j in 1..3) { 'x'; break outer } }) -join ','\nWrite-Host $r", "'x,x,x'", "break outer"},
		{"$i = 1; $j = 1\n$r = $(:outer foreach ($i in 1..3) { foreach ($j in 1..3) { 'x'; continue outer } }) -join ','\nWrite-Host $r", "'x,x,x,x,x,x,x,x,x'", "continue outer"},
		{"$i = 1; $j = 1\n$r = $(:sort foreach ($i in 1..3) { foreach ($j in 1..3) { 'x'; break sort } }) -join ','\nWrite-Host $r", "'x,x,x'", "break sort"},
		{"$i = 1; $j = 1\n$r = $(:sort foreach ($i in 1..3) { foreach ($j in 1..3) { 'x'; continue sort } }) -join ','\nWrite-Host $r", "'x,x,x,x,x,x,x,x,x'", "continue sort"},
	} {
		got := deob(t, tc.src)
		if strings.Contains(got, tc.wrong) || !strings.Contains(got, "foreach") {
			t.Errorf("labelled loop folded:\n%s\n->\n%s", tc.src, got)
		}
		// The label after break or continue is not a command name, even
		// when it is named like an alias.
		if !strings.Contains(got, tc.keep) {
			t.Errorf("loop label rewritten, want %q:\n%s\n->\n%s", tc.keep, tc.src, got)
		}
	}
}

// TestRewritesKeepSandboxConsole runs inputs whose variables the rename
// and ast phases rewrite, each with a form they used to get wrong, and
// requires each output to print what its input prints in the sandbox.
// want is the input's console, so the sandbox runs the construct as
// PowerShell does; keep is a piece of the output that shows the rewrite
// happened where the bug was.
func TestRewritesKeepSandboxConsole(t *testing.T) {
	for _, tc := range []struct{ name, src, want, keep string }{
		// Renamed variables are renamed inside expandable strings too,
		// in the form they are written.
		{"string", "foreach ($i in 1..2) { Write-Host \"n=$i\" }", "n=1\nn=2\n", `"n=$var0"`},
		{"braced-and-subexpression", "foreach ($x in 'ab','cde') { Write-Host \"v=${x}! len=$($x.Length)\" }",
			"v=ab! len=2\nv=cde! len=3\n", `"v=${var0}! len=$($var0.Length)"`},
		{"here-string", "foreach ($x in 'ab','cde') { Write-Host @\"\nv=${x}! len=$($x.Length) $x\n\"@ }",
			"v=ab! len=2 ab\nv=cde! len=3 cde\n", "v=${var0}! len=$($var0.Length) $var0"},
		// An escaped `$x in a here-string is text, not a reference.
		{"here-string-escape", "foreach ($x in 'ab','cde') { Write-Host @\"\n`$x=$x`t.\n\"@ }",
			"$x=ab\t.\n$x=cde\t.\n", "`$x=$var0`t."},
		// ++ and -- write their operand: it is not inlined, and no later
		// read is inlined with the value it had before.
		{"postfix-statement", "$i = 1; $i++; Write-Host $i", "2\n", "$var0++"},
		{"postfix-in-block", "$i = 0; 1..3 | ForEach-Object { $i++ }; Write-Host $i", "3\n", "$var0++"},
		{"postfix-value", "$i = 1; $j = $i++ + 5; Write-Host $j $i", "6 2\n", "$var0++ + 5"},
		{"prefix-statement", "$i = 1; ++$i; Write-Host $i", "2\n", "++$var0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := deob(t, tc.src)
			before := sandbox.Run(tc.src, sandbox.Options{})
			after := sandbox.Run(got, sandbox.Options{})
			if before.Err != nil || before.Console != tc.want {
				t.Fatalf("input console = %q (err %v), want %q", before.Console, before.Err, tc.want)
			}
			if after.Err != nil || after.Console != before.Console {
				t.Errorf("output console = %q (err %v), want %q\n%s\n->\n%s", after.Console, after.Err, before.Console, tc.src, got)
			}
			if !strings.Contains(got, tc.keep) {
				t.Errorf("output lacks %q:\n%s\n->\n%s", tc.keep, tc.src, got)
			}
		})
	}
}

func TestFunctionBodiesAreConservative(t *testing.T) {
	// Globals must not be inlined inside function bodies (parameters
	// may shadow them at run time).
	src := `$a = 'global'
function f($a) { write-host $a }
f 'param'`
	got := deob(t, src)
	if strings.Contains(got, "write-host 'global'") {
		t.Errorf("global inlined into function body: %q", got)
	}
}

func TestMultiLayerFixpoint(t *testing.T) {
	// Three nested IEX layers.
	inner := "write-host deep"
	l1 := "IEX '" + inner + "'"
	l2 := `IEX "` + strings.ReplaceAll(l1, `'`, `''`) + `"`
	_ = l2
	src := "IEX ('I' + \"EX 'write-host deep'\")"
	got := deob(t, src)
	if !strings.Contains(strings.ToLower(got), "write-host deep") {
		t.Errorf("nested layers not unwrapped: %q", got)
	}
	if strings.Contains(strings.ToLower(got), "invoke-expression") {
		t.Errorf("IEX残 left behind: %q", got)
	}
}

func TestUnwrapPositions(t *testing.T) {
	forms := []string{
		"IEX 'write-host hi'",
		"'write-host hi' | IEX",
		"&('ie'+'x') 'write-host hi'",
		".('iex') 'write-host hi'",
		"$r = IEX 'write-host hi'",
		"IEX 'write-host hi' | out-null",
		"powershell -e dwByAGkAdABlAC0AaABvAHMAdAAgAGgAaQA=",
		"powershell -Command 'write-host hi'",
	}
	for _, src := range forms {
		got := deob(t, src)
		if !strings.Contains(strings.ToLower(got), "write-host hi") {
			t.Errorf("unwrap(%q) = %q", src, got)
		}
	}
}

func TestRenamePhase(t *testing.T) {
	src := "$xkq7z = 'v'\n$bwtr9 = $xkq7z\nwrite-host $bwtr9"
	got := deob(t, src)
	if !strings.Contains(got, "$var0") {
		t.Errorf("random names not renamed: %q", got)
	}
	// Readable names stay.
	src2 := "$downloadurl = 'v'\nwrite-host $downloadurl"
	got2 := deob(t, src2)
	if strings.Contains(got2, "$var0") {
		t.Errorf("readable names renamed: %q", got2)
	}
}

func TestRenameFunctions(t *testing.T) {
	src := "function zzqxk7 { 'x' }\nzzqxk7"
	got := deob(t, src)
	if !strings.Contains(got, "func0") {
		t.Errorf("function not renamed: %q", got)
	}
}

func TestReformatPhase(t *testing.T) {
	src := "write-host    hello\n\n\n\nwrite-host     'keep  inner'"
	got := deob(t, src)
	if strings.Contains(got, "host    hello") {
		t.Errorf("whitespace not collapsed: %q", got)
	}
	if !strings.Contains(got, "'keep  inner'") {
		t.Errorf("string spacing mutated: %q", got)
	}
	if strings.Contains(got, "\n\n\n") {
		t.Errorf("blank lines not collapsed: %q", got)
	}
}

func TestReformatIndentation(t *testing.T) {
	src := "if (1) {\nwrite-host a\nif (2) {\nwrite-host b\n}\n}"
	got := deob(t, src)
	if !strings.Contains(got, "    Write-Host a") {
		t.Errorf("indentation missing:\n%s", got)
	}
	if !strings.Contains(got, "        Write-Host b") {
		t.Errorf("nested indentation missing:\n%s", got)
	}
}

func TestInvalidInputRejected(t *testing.T) {
	if _, err := New(Options{}).Deobfuscate("if (1) {"); err == nil {
		t.Error("expected ErrInvalidSyntax")
	}
}

// TestOutputAlwaysParses: for any valid input the output must parse
// (the paper's per-step syntax check).
func TestOutputAlwaysParses(t *testing.T) {
	srcs := []string{
		"write-host hello",
		"IEX ('a'+'b')",
		"$a = 'x'; if ($a) { $a }",
		"( '1,2' -split ',' | % { [char]([int]$_+64) }) -join ''",
		"try { iwr 'http://x.test' } catch { 'e' }",
	}
	d := New(Options{})
	for _, src := range srcs {
		res, err := d.Deobfuscate(src)
		if err != nil {
			t.Fatalf("Deobfuscate(%q): %v", src, err)
		}
		if perr := psParseErr(res.Script); perr != nil {
			t.Errorf("output of %q does not parse: %v\n%s", src, perr, res.Script)
		}
	}
}

// TestDeobfuscateIdempotent: running the engine twice must be a
// fixpoint.
func TestDeobfuscateIdempotent(t *testing.T) {
	srcs := []string{
		"IeX ((\"{1}{0}\" -f 'llo', \"write-host he\"))",
		"$a = 'con'+'cat'\nwrite-host $a",
		"powershell -e dwByAGkAdABlAC0AaABvAHMAdAAgAGgAaQA=",
	}
	d := New(Options{})
	for _, src := range srcs {
		first, err := d.Deobfuscate(src)
		if err != nil {
			t.Fatal(err)
		}
		second, err := d.Deobfuscate(first.Script)
		if err != nil {
			t.Fatalf("second pass on %q: %v", first.Script, err)
		}
		if second.Script != first.Script {
			t.Errorf("not idempotent for %q:\nfirst  %q\nsecond %q", src, first.Script, second.Script)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	res, err := New(Options{}).Deobfuscate("i`ex ('wri'+'te-host hi')")
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.TokensNormalized == 0 || s.PiecesRecovered == 0 || s.LayersUnwrapped == 0 {
		t.Errorf("stats incomplete: %+v", s)
	}
	if s.Duration <= 0 {
		t.Error("duration missing")
	}
}

func TestAblationVariantsRun(t *testing.T) {
	src := "$k = 'se'+'cret'\nwrite-host $k"
	full := deob(t, src)
	noTrace := deobWith(t, src, Options{DisableVariableTracing: true})
	if !strings.Contains(full, "Write-Host 'secret'") {
		t.Errorf("full engine missed inline: %q", full)
	}
	if strings.Contains(noTrace, "Host 'secret'") {
		t.Errorf("tracing-disabled engine inlined anyway: %q", noTrace)
	}
}
