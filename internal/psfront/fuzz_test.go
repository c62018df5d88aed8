package psfront

import (
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/psparser"
	"github.com/invoke-deobfuscation/invokedeob/internal/pstoken"
)

// Native fuzz targets for the PowerShell frontend's lexer and parser.
// `go test` runs the seed corpus; `go test -fuzz` explores further. The
// invariants: no panics and extents in bounds. (The driver-level fuzz
// targets live in internal/core.) FuzzTokenize also asserts that tokens
// come in source order without overlapping, which the token, rename
// and reformat passes rely on when they rewrite or scan in one forward
// pass.

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
		prevEnd := 0
		for _, tok := range toks {
			if tok.Start < 0 || tok.End() > len(src) {
				t.Fatalf("token %v out of bounds for input %q", tok, src)
			}
			if tok.Start < prevEnd {
				t.Fatalf("token %v starts before the previous token's end %d in %q", tok, prevEnd, src)
			}
			prevEnd = tok.End()
			if src[tok.Start:tok.End()] != tok.Text {
				t.Fatalf("token text mismatch at %d in %q", tok.Start, src)
			}
		}
	})
}

func FuzzParse(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
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
