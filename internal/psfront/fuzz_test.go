package psfront

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
	"github.com/invoke-deobfuscation/invokedeob/internal/psparser"
	"github.com/invoke-deobfuscation/invokedeob/internal/pstoken"
)

// Native fuzz targets for the PowerShell frontend's lexer and parser.
// `go test` runs the seed corpus; `go test -fuzz` explores further. The
// invariants: no panics and extents in bounds. (The driver-level fuzz
// targets live in internal/core.) FuzzTokenize also asserts that tokens
// come in source order without overlapping, which the token, rename
// and reformat passes rely on when they rewrite or scan in one forward
// pass, and that each token's Line counts the newlines before it.
// FuzzParse asserts that parsing from the token stream, as the parse
// cache does, is exactly Parse.

func fuzzSeeds(f *testing.F) {
	seeds := []string{
		"write-host hello",
		"i`ex ('a'+'b')",
		`IEX (("{1}{0}" -f 'llo','he'))`,
		"powershell -e aABpAA==",
		"$a = 'x'; if ($a) { $a } else { exit }",
		"( '1,2' -split ',' | % { [char]([int]$_+64) }) -join ''",
		"\"expand $($x) and $env:PATH\"",
		"@{k='v'}['k']",
		"@'\nhere\n'@",
		"function f($p=3) { $p * 2 }",
		"&('ie'+'x') 'write-host deep'",
		"[Text.Encoding]::Unicode.GetString([Convert]::FromBase64String('aABpAA=='))",
		"${weird name} = 1",
		"$x[1..3] -join ''",
		"try { throw 'x' } catch { $_ } finally { 1 }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
}

func FuzzTokenize(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		toks, _ := pstoken.Tokenize(src)
		prevEnd, line, counted := 0, 1, 0
		for _, tok := range toks {
			if tok.Start < 0 || tok.End() > len(src) {
				t.Fatalf("token %v out of bounds for input %q", tok, src)
			}
			if int(tok.Start) < prevEnd {
				t.Fatalf("token %v starts before the previous token's end %d in %q", tok, prevEnd, src)
			}
			prevEnd = tok.End()
			line += strings.Count(src[counted:tok.Start], "\n")
			counted = int(tok.Start)
			if int(tok.Line) != line {
				t.Fatalf("token %v on line %d, but %d newlines precede it in %q", tok, tok.Line, line-1, src)
			}
		}
	})
}

func FuzzParse(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		checkParseFromTokens(t, src)
		root, err := psparser.Parse(src)
		if err != nil || root == nil {
			return
		}
		ext := root.Extent()
		if ext.Start < 0 || ext.End > len(src) {
			t.Fatalf("root extent %v out of bounds for %q", ext, src)
		}
	})
}

// checkParseFromTokens fails t unless parsing src from its token stream
// gives exactly psparser.Parse(src): the same tree and the same error.
// It checks psparser.ParseTokens over a fresh Tokenize, which must not
// modify the stream, and the parse cache's path through the
// PowerShell frontend, where a lex error is the parse error.
func checkParseFromTokens(t *testing.T, src string) {
	t.Helper()
	want, wantErr := psparser.Parse(src)
	toks, lexErr := pstoken.Tokenize(src)
	if lexErr != nil {
		if !reflect.DeepEqual(lexErr, wantErr) {
			t.Fatalf("lex error %v, but Parse returned %v, for %q", lexErr, wantErr, src)
		}
	} else {
		before := slices.Clone(toks)
		got, err := psparser.ParseTokens(src, toks)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(err, wantErr) {
			t.Fatalf("ParseTokens differs from Parse for %q\ngot:  %#v, %v\nwant: %#v, %v", src, got, err, want, wantErr)
		}
		if !slices.Equal(toks, before) {
			t.Fatalf("ParseTokens modified its token stream for %q", src)
		}
	}
	got, err := pipeline.NewCache(0, 0).Parse(PS{}, src)
	if err != nil || wantErr != nil {
		if !reflect.DeepEqual(err, wantErr) {
			t.Fatalf("cached parse error %v, want %v, for %q", err, wantErr, src)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cached parse differs from Parse for %q\ngot:  %#v\nwant: %#v", src, got, want)
	}
}

// TestParseFromTokensExact runs the FuzzParse exactness check over the
// 29 PowerShell golden inputs and the 24-sample corpus, obfuscated and
// clean.
func TestParseFromTokensExact(t *testing.T) {
	parsed := 0
	for name, src := range textPassInputs(t) {
		t.Run(name, func(t *testing.T) { checkParseFromTokens(t, src) })
		if _, err := psparser.Parse(src); err == nil {
			parsed++
		}
	}
	if parsed == 0 {
		t.Fatal("vacuous comparison: no input parses")
	}
}
