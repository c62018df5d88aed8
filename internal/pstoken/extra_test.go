package pstoken

import (
	"errors"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"github.com/invoke-deobfuscation/invokedeob/internal/limits"
)

func TestSplattingAndLabels(t *testing.T) {
	const src = "f @args"
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Type != Variable || toks[1].Content != "args" || toks[1].Text(src) != "@args" {
		t.Errorf("splat token = %+v", toks[1])
	}
	toks, err = Tokenize(":outer while ($x) { break outer }")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Type != LoopLabel || toks[0].Content != "outer" {
		t.Errorf("label token = %+v", toks[0])
	}
}

func TestLineContinuation(t *testing.T) {
	toks, err := Tokenize("write-host `\nhello")
	if err != nil {
		t.Fatal(err)
	}
	types := []Type{}
	for _, tok := range toks {
		types = append(types, tok.Type)
	}
	if types[0] != Command || types[1] != LineContinuation || types[2] != CommandArgument {
		t.Errorf("types = %v", types)
	}
}

func TestDoubleOperators(t *testing.T) {
	got := collect(t, "a && b || c")
	want := []string{"Command:a", "Operator:&&", "Command:b", "Operator:||", "Command:c"}
	if !equalStrings(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestRedirectionTokens(t *testing.T) {
	got := collect(t, "cmd > out.txt >> log.txt")
	want := []string{
		"Command:cmd", "Operator:>", "CommandArgument:out.txt",
		"Operator:>>", "CommandArgument:log.txt",
	}
	if !equalStrings(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestCompoundAssignOperators(t *testing.T) {
	for _, op := range []string{"+=", "-=", "*=", "/=", "%="} {
		toks, err := Tokenize("$a " + op + " 1")
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if toks[1].Type != Operator || toks[1].Content != op {
			t.Errorf("%s token = %+v", op, toks[1])
		}
	}
}

func TestIncrementDecrement(t *testing.T) {
	got := collect(t, "$i++; $j--")
	want := []string{
		"Variable:i", "Operator:++", "StatementSeparator:;",
		"Variable:j", "Operator:--",
	}
	if !equalStrings(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestTypeString(t *testing.T) {
	if Command.String() != "Command" || TypeLiteral.String() != "Type" {
		t.Error("type names broken")
	}
	if Type(99).String() == "" {
		t.Error("unknown type panicked on String")
	}
}

func TestErrorMessage(t *testing.T) {
	_, err := Tokenize("'open")
	if err == nil {
		t.Fatal("expected error")
	}
	if e, ok := err.(*Error); !ok || e.Line != 1 {
		t.Errorf("error = %#v", err)
	}
}

// TestTokenSize pins the token layout. Token streams are the engine's
// largest allocation, and cached streams live as long as their text.
func TestTokenSize(t *testing.T) {
	if size := unsafe.Sizeof(Token{}); size > 40 {
		t.Errorf("pstoken.Token is %d bytes, want at most 40", size)
	}
}

// TestTokenizeLiteralAllocation checks that a long literal costs one
// token, not slots sized by its bytes: tokenizing a quoted 64 KiB
// base64 blob must allocate less than 16 KiB.
func TestTokenizeLiteralAllocation(t *testing.T) {
	src := "'" + strings.Repeat("QUJDRA==", 64<<10/8) + "'"
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		toks, err := Tokenize(src)
		if err != nil || len(toks) != 1 || toks[0].Type != String {
			t.Fatalf("Tokenize = %v, %v; want one string token", toks, err)
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= 16<<10 {
		t.Errorf("tokenizing a %d-byte literal allocated %d bytes per run, want under 16 KiB", len(src), perRun)
	}
}

// TestSourceSizeLimit checks the int32 offset guard: a source of 2 GiB
// or more is refused with a typed error rather than lexed into wrapping
// offsets. (The guard is tested on the length alone; no 2 GiB string is
// built.)
func TestSourceSizeLimit(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("int cannot hold a length past the limit")
	}
	if err := checkSize(MaxSourceLen); err != nil {
		t.Errorf("checkSize(MaxSourceLen) = %v, want nil", err)
	}
	n := MaxSourceLen
	n++
	err := checkSize(n)
	if err == nil || !errors.Is(error(err), limits.ErrInputBudget) {
		t.Errorf("checkSize(%d) = %v, want an error unwrapping to limits.ErrInputBudget", n, err)
	}
}
