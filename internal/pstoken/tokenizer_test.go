package pstoken

import (
	"strings"
	"testing"
	"testing/quick"
)

// collect tokenizes and returns "Type:Content" strings for significant
// tokens (no newlines).
func collect(t *testing.T, src string) []string {
	t.Helper()
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatalf("Tokenize(%q): %v", src, err)
	}
	var out []string
	for _, tok := range toks {
		if tok.Type == NewLine {
			continue
		}
		out = append(out, tok.Type.String()+":"+tok.Content)
	}
	return out
}

func TestTokenizeCommands(t *testing.T) {
	tests := []struct {
		src  string
		want []string
	}{
		{"write-host hello", []string{"Command:write-host", "CommandArgument:hello"}},
		{"iex", []string{"Command:iex"}},
		{"Write-Host -NoNewline hi", []string{"Command:Write-Host", "CommandParameter:-NoNewline", "CommandArgument:hi"}},
		{"ls *.txt", []string{"Command:ls", "CommandArgument:*.txt"}},
		{"& 'iex' 'code'", []string{"Operator:&", "String:iex", "String:code"}},
		{"cmd | % { $_ }", []string{
			"Command:cmd", "Operator:|", "Command:%", "GroupStart:{",
			"Variable:_", "GroupEnd:}",
		}},
		{"powershell -e abc=", []string{"Command:powershell", "CommandParameter:-e", "CommandArgument:abc="}},
		{"echo 2 3", []string{"Command:echo", "Number:2", "Number:3"}},
	}
	for _, tt := range tests {
		got := collect(t, tt.src)
		if !equalStrings(got, tt.want) {
			t.Errorf("Tokenize(%q)\n got %v\nwant %v", tt.src, got, tt.want)
		}
	}
}

func TestTokenizeTicking(t *testing.T) {
	const src = "i`e`x 'hi'"
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Type != Command || toks[0].Content != "iex" {
		t.Errorf("ticked command = %v (content %q)", toks[0].Type, toks[0].Content)
	}
	if !toks[0].HadTicks {
		t.Error("HadTicks not set")
	}
	if toks[0].Text(src) != "i`e`x" {
		t.Errorf("raw text = %q", toks[0].Text(src))
	}
}

func TestTokenizeStrings(t *testing.T) {
	tests := []struct {
		src   string
		value string
		kind  StringKind
	}{
		{`'plain'`, "plain", SingleQuoted},
		{`'it''s'`, "it's", SingleQuoted},
		{`"double"`, "double", DoubleQuoted},
		{"\"tab`there\"", "tab\there", DoubleQuoted},
		{`"say ""hi"""`, `say "hi"`, DoubleQuoted},
		{"@'\nhere\nstring\n'@", "here\nstring", SingleHereString},
		{"@\"\nexpand $x\n\"@", "expand $x", DoubleHereString},
	}
	for _, tt := range tests {
		toks, err := Tokenize(tt.src)
		if err != nil {
			t.Errorf("Tokenize(%q): %v", tt.src, err)
			continue
		}
		if len(toks) == 0 || toks[0].Type != String {
			t.Errorf("Tokenize(%q): no string token: %v", tt.src, toks)
			continue
		}
		if toks[0].Content != tt.value {
			t.Errorf("Tokenize(%q) content = %q, want %q", tt.src, toks[0].Content, tt.value)
		}
		if toks[0].Kind != tt.kind {
			t.Errorf("Tokenize(%q) kind = %v, want %v", tt.src, toks[0].Kind, tt.kind)
		}
	}
}

func TestTokenizeSubexpressionInString(t *testing.T) {
	src := `"a $('quoted )string') b"`
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 1 || toks[0].Type != String {
		t.Fatalf("tokens = %v", toks)
	}
	if toks[0].Text(src) != src {
		t.Errorf("string span = %q, want whole input", toks[0].Text(src))
	}
}

func TestTokenizeVariables(t *testing.T) {
	tests := []struct {
		src  string
		name string
	}{
		{"$a", "a"},
		{"$env:PATH", "env:PATH"},
		{"${weird name}", "weird name"},
		{"$global:x", "global:x"},
		{"$_", "_"},
		{"$$", "$"},
	}
	for _, tt := range tests {
		toks, err := Tokenize(tt.src)
		if err != nil {
			t.Fatalf("Tokenize(%q): %v", tt.src, err)
		}
		if toks[0].Type != Variable || toks[0].Content != tt.name {
			t.Errorf("Tokenize(%q) = %v %q, want Variable %q", tt.src, toks[0].Type, toks[0].Content, tt.name)
		}
	}
}

func TestTokenizeOperators(t *testing.T) {
	got := collect(t, `$a -bXoR 0x4B -f 2`)
	want := []string{"Variable:a", "Operator:-bxor", "Number:0x4B", "Operator:-f", "Number:2"}
	if !equalStrings(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestTokenizeTypeLiterals(t *testing.T) {
	got := collect(t, `[char[]]$x`)
	want := []string{"Type:char[]", "Variable:x"}
	if !equalStrings(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
	got = collect(t, `[Text.Encoding]::Unicode`)
	want = []string{"Type:Text.Encoding", "Operator:::", "Member:Unicode"}
	if !equalStrings(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestTokenizeKeywordsVsAliases(t *testing.T) {
	// foreach is a keyword at statement start but a command after |.
	got := collect(t, "foreach ($i in $l) { }")
	if got[0] != "Keyword:foreach" {
		t.Errorf("statement-start foreach = %v", got[0])
	}
	got = collect(t, "$l | foreach { $_ }")
	found := false
	for _, g := range got {
		if g == "Command:foreach" {
			found = true
		}
	}
	if !found {
		t.Errorf("pipeline foreach not a command: %v", got)
	}
}

func TestTokenizeComments(t *testing.T) {
	got := collect(t, "write-host hi # trailing\n<# block\ncomment #>")
	want := []string{
		"Command:write-host", "CommandArgument:hi",
		"Comment:# trailing", "Comment:<# block\ncomment #>",
	}
	if !equalStrings(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestTokenizeErrors(t *testing.T) {
	bad := []string{
		"'unterminated",
		"\"unterminated",
		"<# unterminated",
		"(unclosed",
		"@'\nunterminated",
		"[unclosed",
	}
	for _, src := range bad {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q): expected error", src)
		}
	}
}

func TestTokenExtentsCoverSource(t *testing.T) {
	srcs := []string{
		"write-host hello",
		"(nE`w-oBjE`Ct nET.wE`bcLiEnT).DoWNlOaDsTrIng('x')",
		"$a = 1; foreach ($i in 1..3) { $a += $i }",
		"@{k='v'; n=2}",
		"\"expand $($a)\" | % { $_ }",
		"$a = 1\r\n$b = @'\nx\ny\n'@\nwrite-host `\n  $b # c\n<# block\n #> $a",
	}
	for _, src := range srcs {
		toks, err := Tokenize(src)
		if err != nil {
			t.Fatalf("Tokenize(%q): %v", src, err)
		}
		last := 0
		for _, tok := range toks {
			if int(tok.Start) < last {
				t.Errorf("%q: token %v overlaps previous (start %d < %d)", src, tok, tok.Start, last)
			}
			if tok.End() > len(src) {
				t.Errorf("%q: token %v extends past source", src, tok)
			}
			if want := 1 + strings.Count(src[:tok.Start], "\n"); int(tok.Line) != want {
				t.Errorf("%q: token %v on line %d, want %d", src, tok, tok.Line, want)
			}
			last = tok.End()
		}
	}
}

// TestTokenizeNeverPanics fuzzes the tokenizer with random strings: it
// must return tokens or an error, never panic, and extents must stay in
// bounds.
func TestTokenizeNeverPanics(t *testing.T) {
	f := func(src string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on %q: %v", src, r)
			}
		}()
		toks, _ := Tokenize(src)
		for _, tok := range toks {
			if tok.Start < 0 || tok.End() > len(src) || tok.Length < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestTokenizeProgress checks that every significant token consumes at
// least one byte (no infinite-loop constructions).
func TestTokenizeProgress(t *testing.T) {
	f := func(parts []string) bool {
		src := strings.Join(parts, " ")
		if len(src) > 2048 {
			src = src[:2048]
		}
		toks, _ := Tokenize(src)
		for _, tok := range toks {
			if tok.Length == 0 && tok.Type != Unknown {
				t.Logf("zero-length token %v in %q", tok, src)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFindMatchingParen(t *testing.T) {
	tests := []struct {
		src  string
		open int
		want int
		ok   bool
	}{
		{"(abc)", 0, 4, true},
		{"(a(b)c)", 0, 6, true},
		{"('a)b')", 0, 6, true},
		{`("a)b")`, 0, 6, true},
		{"(unclosed", 0, 0, false},
		{"(a`)b)", 0, 5, true},
	}
	for _, tt := range tests {
		got, ok := FindMatchingParen(tt.src, tt.open)
		if ok != tt.ok || (ok && got != tt.want) {
			t.Errorf("FindMatchingParen(%q) = %d,%v want %d,%v", tt.src, got, ok, tt.want, tt.ok)
		}
	}
}

func TestStripTicks(t *testing.T) {
	tests := map[string]string{
		"i`e`x":   "iex",
		"plain":   "plain",
		"a``b":    "a`b",
		"trail`":  "trail",
		"`w`hole": "whole",
	}
	for in, want := range tests {
		if got := StripTicks(in); got != want {
			t.Errorf("StripTicks(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestIsNumberLiteral(t *testing.T) {
	yes := []string{"1", "-5", "0x4B", "3.14", "1e3", "2kb", "10mb", "7L", "4d"}
	no := []string{"", "x", "1x", "0x", "1.2.3", "--2", "kb", "1e", "abc123"}
	for _, s := range yes {
		if !isNumberLiteral(s) {
			t.Errorf("isNumberLiteral(%q) = false, want true", s)
		}
	}
	for _, s := range no {
		if isNumberLiteral(s) {
			t.Errorf("isNumberLiteral(%q) = true, want false", s)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
