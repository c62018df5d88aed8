package jsfront

import (
	"strings"
	"testing"
)

func tokTexts(t *testing.T, src string) []string {
	t.Helper()
	toks, err := Lex(src)
	if err != nil {
		t.Fatalf("Lex(%q): %v", src, err)
	}
	out := make([]string, len(toks))
	for i, tok := range toks {
		out[i] = tok.Text
	}
	return out
}

func TestLexPunctsLongestFirst(t *testing.T) {
	// A `++` split into two `+` would fabricate a concat chain out of
	// `a++ + 'x'`; the greedy longest-first match must keep it whole.
	got := tokTexts(t, "a+++'x'")
	want := []string{"a", "++", "+", "'x'"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("tokens = %v, want %v", got, want)
	}
	got = tokTexts(t, "x>>>=1")
	if got[1] != ">>>=" {
		t.Errorf("tokens = %v, want >>>= whole", got)
	}
	got = tokTexts(t, "a?.b ?? c")
	if got[1] != "?." || got[3] != "??" {
		t.Errorf("tokens = %v, want ?. and ?? whole", got)
	}
}

func TestLexRegexVsDivision(t *testing.T) {
	toks, err := Lex("var r = /ab+c/gi; var d = a / b; return /re/;")
	if err != nil {
		t.Fatal(err)
	}
	var regexes, divisions int
	for _, tok := range toks {
		switch {
		case tok.Type == Regex:
			regexes++
		case tok.Type == Punct && tok.Text == "/":
			divisions++
		}
	}
	if regexes != 2 || divisions != 1 {
		t.Errorf("got %d regexes and %d divisions, want 2 and 1", regexes, divisions)
	}
	// After a closing paren, `/` is division.
	toks, err = Lex("(a) / b")
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks {
		if tok.Type == Regex {
			t.Errorf("(a) / b lexed a regex: %q", tok.Text)
		}
	}
}

func TestLexErrors(t *testing.T) {
	bad := []string{
		"'unterminated",
		"\"newline\nin string\"",
		"`unterminated template",
		"/* unterminated comment",
		"var r = /unterminated",
		"\x01",
	}
	for _, src := range bad {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) succeeded, want error", src)
		}
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := Lex("0xDE 0b101 1.5e-3 .5 42")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0xDE", "0b101", "1.5e-3", ".5", "42"}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v, want %v", toks, want)
	}
	for i, tok := range toks {
		if tok.Type != Number || tok.Text != want[i] {
			t.Errorf("token %d = %v/%q, want Number %q", i, tok.Type, tok.Text, want[i])
		}
	}
}

func TestLexStringValues(t *testing.T) {
	tests := []struct {
		src, want string
	}{
		{`'\x68\x69'`, "hi"},
		{`"hi"`, "hi"},
		{`'\u{1F600}'`, "\U0001F600"},
		{`'\150\151'`, "hi"},
		{`'\0'`, "\x00"},
		{`'\n\t\\\''`, "\n\t\\'"},
		{`'line \
cont'`, "line cont"},
		// Lone surrogate half decays to U+FFFD.
		{`'\uD800'`, "�"},
		{`'plain'`, "plain"},
	}
	for _, tt := range tests {
		toks, err := Lex(tt.src)
		if err != nil {
			t.Errorf("Lex(%q): %v", tt.src, err)
			continue
		}
		if len(toks) != 1 || toks[0].Type != Str {
			t.Errorf("Lex(%q) = %v, want one Str token", tt.src, toks)
			continue
		}
		if toks[0].Value != tt.want {
			t.Errorf("value of %q = %q, want %q", tt.src, toks[0].Value, tt.want)
		}
	}
}

func TestLexExtents(t *testing.T) {
	src := "var x = 'a' + /* gap */ 'b';"
	toks, err := Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks {
		if tok.Start < 0 || tok.End > len(src) || src[tok.Start:tok.End] != tok.Text {
			t.Errorf("token %+v does not match its extent in %q", tok, src)
		}
	}
}

func TestQuoteJS(t *testing.T) {
	tests := []struct {
		in, want string
	}{
		{"hi", "'hi'"},
		{"it's", `'it\'s'`},
		{"a\\b", `'a\\b'`},
		{"a\nb", `'a\nb'`},
		{"\x01", `'\x01'`},
		{"\U0001F600", "'\U0001F600'"},
	}
	for _, tt := range tests {
		if got := QuoteJS(tt.in); got != tt.want {
			t.Errorf("QuoteJS(%q) = %s, want %s", tt.in, got, tt.want)
		}
	}
	// Round-trip: quoting then lexing recovers the value.
	for _, s := range []string{"hi", "it's \"quoted\"", "tab\tnl\n", "unicode é 😀"} {
		toks, err := Lex(QuoteJS(s))
		if err != nil || len(toks) != 1 || toks[0].Value != s {
			t.Errorf("round-trip of %q failed: %v %v", s, toks, err)
		}
	}
}

// parseErr lexes and parses src the way the parse cache does.
func parseErr(src string) error {
	toks, err := (JS{}).Tokenize(src)
	if err != nil {
		return err
	}
	_, err = (JS{}).Parse(src, toks)
	return err
}

func TestParseBracketBalance(t *testing.T) {
	good := []string{"f(a[0], {k: 1})", "", "(([[{{}}]]))"}
	for _, src := range good {
		if err := parseErr(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
	bad := []string{"(", "f(a]", "{)}", "]"}
	for _, src := range bad {
		if err := parseErr(src); err == nil {
			t.Errorf("Parse(%q) accepted unbalanced brackets", src)
		}
	}
}
