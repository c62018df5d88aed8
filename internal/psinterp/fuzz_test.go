package psinterp

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/invoke-deobfuscation/invokedeob/internal/limits"
)

// FuzzEvalSnippet drives the interpreter over arbitrary inputs inside a
// tight execution envelope. The invariant is the envelope contract
// itself: no panics escape (the fuzzer fails the run on any panic), and
// every error is nil or within the known error surface.
func FuzzEvalSnippet(f *testing.F) {
	seeds := []string{
		"write-host hello",
		"$s = 'a'; while ($s.Length -lt 100) { $s = $s + $s }; $s.Length",
		"$x = 'a' * 100000000",
		"while ($true) { $i = $i + 1 }",
		"function f { f }; f",
		"iex ('write'+'-host hi')",
		"[Text.Encoding]::Unicode.GetString([Convert]::FromBase64String('aABpAA=='))",
		"$(1..100 | % { $_ * 2 }) -join ','",
		"try { throw 'x' } catch { $_ }",
		"'' .padleft(99999999)",
		"[string]::new('a', 2147483647)",
		"@{a=1;b=2}.Keys",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		in := New(Options{
			MaxSteps:      100_000,
			MaxAllocBytes: 4 << 20,
			Ctx:           ctx,
		})
		start := time.Now()
		_, err := in.EvalSnippet(src)
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("took %v, over 2x the 1s deadline for %q", elapsed, src)
		}
		// Arbitrary evaluation errors (unknown variable, bad syntax,
		// type mismatch) are fine; but an envelope failure must carry
		// a taxonomy sentinel, never a bare string — and a panic would
		// have failed the run outright were it not converted to a
		// *limits.PanicError by the recover barrier.
		if errors.Is(err, limits.ErrPanic) {
			var pe *limits.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("ErrPanic without PanicError detail: %v", err)
			}
		}
	})
}

// splitAlphabet is what FuzzSplitOperator builds separators from:
// plain punctuation, whitespace, regex metacharacters, letters with
// non-ASCII case folds (k and the Kelvin sign, s and the long s), and
// other non-ASCII runes.
var splitAlphabet = []rune(",; \t-:#'\"0aKkSsxX.*+?()[]{}|^$\\éKſ€")

var splitSeeds = []struct {
	s   string
	sep []byte
}{
	{"104,101,108,108,111", []byte{0}},
	{",a,,b,", []byte{0}},
	{"", []byte{0}},
	{"a b\tc", []byte{2}},
	{"a\tb", []byte{3}},
	{"xKkKKk", []byte{11}},
	{"long ſs S", []byte{14}},
	{"a.b.c", []byte{17}},
	{"aaaaa", []byte{10, 10}},
	{"1;2;;3", []byte{1, 1}},
	{"abc", nil},
}

// FuzzSplitOperator compares -split with the regex split it replaces
// on literal separators: compileRegex(pattern, caseSensitive).Split
// with the operator's limit (none, or 0 meaning all, or 1 to 4).
func FuzzSplitOperator(f *testing.F) {
	for _, seed := range splitSeeds {
		for lim := uint8(0); lim < 6; lim++ {
			f.Add(seed.s, seed.sep, lim%2 == 0, lim)
		}
	}
	f.Fuzz(func(t *testing.T, s string, sepCodes []byte, caseSensitive bool, lim uint8) {
		if len(sepCodes) > 4 {
			sepCodes = sepCodes[:4]
		}
		var sb strings.Builder
		for _, c := range sepCodes {
			sb.WriteRune(splitAlphabet[int(c)%len(splitAlphabet)])
		}
		sep := sb.String()
		limit := int(lim%6) - 1
		var r any = sep
		if limit >= 0 {
			r = []any{sep, int64(limit)}
		}
		got, err := New(Options{}).splitOperator(s, r, caseSensitive)
		re, reErr := compileRegex(sep, caseSensitive)
		if (err == nil) != (reErr == nil) {
			t.Fatalf("%q -split %q: error %v, regex error %v", s, sep, err, reErr)
		}
		if reErr != nil {
			return
		}
		if limit <= 0 {
			limit = -1
		}
		want := re.Split(s, limit)
		pieces := got.([]any)
		if len(pieces) != len(want) {
			t.Fatalf("%q -split %q, %d (case-sensitive %v): %d pieces %q, regex %d %q", s, sep, limit, caseSensitive, len(pieces), pieces, len(want), want)
		}
		for i, p := range pieces {
			if p != want[i] {
				t.Fatalf("%q -split %q, %d (case-sensitive %v): piece %d is %q, regex %q", s, sep, limit, caseSensitive, i, p, want[i])
			}
		}
	})
}
