package core

import (
	"context"
	"testing"
	"time"
)

// Native fuzz targets. `go test` runs the seed corpus; `go test -fuzz`
// explores further. The invariants: no panics, extents in bounds, and
// the deobfuscator's output parses whenever its input did, under the
// language frontend that handled the run.

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

func FuzzDeobfuscate(f *testing.F) {
	fuzzSeeds(f)
	f.Add("function()") // not PowerShell: detected, and kept, as JavaScript
	d := New(Options{MaxIterations: 3, StepBudget: 50_000})
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		res, err := d.Deobfuscate(src)
		if err != nil {
			return // invalid input is fine
		}
		if perr := parseErr(res.Lang, res.Script); perr != nil {
			t.Fatalf("%s output does not parse for input %q:\n%s\n%v", res.Lang, src, res.Script, perr)
		}
	})
}

// FuzzDeobfuscateEnvelope drives the whole pipeline under a tight
// execution envelope (wall-clock deadline, small step/output budgets)
// and asserts the envelope contract: every run finishes within 2x the
// deadline with either a result or a typed taxonomy error, and no
// panic escapes (a panic fails the fuzz run outright).
func FuzzDeobfuscateEnvelope(f *testing.F) {
	fuzzSeeds(f)
	f.Add("$x = 'a'*100000000; $x")
	f.Add("$v = $(while($true){1}); $v")
	f.Add("((((((((((1))))))))))")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		const deadline = 500 * time.Millisecond
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		defer cancel()
		d := New(Options{
			MaxIterations:  3,
			StepBudget:     50_000,
			MaxOutputBytes: 1 << 20,
		})
		start := time.Now()
		res, err := d.DeobfuscateContext(ctx, src)
		if elapsed := time.Since(start); elapsed > envelopeSlack*deadline {
			t.Fatalf("took %v, over %dx the %v deadline for %q",
				elapsed, envelopeSlack, deadline, src)
		}
		if !taxonomyOK(err) {
			t.Fatalf("error outside taxonomy for %q: %v", src, err)
		}
		if err == nil && res == nil {
			t.Fatalf("nil result with nil error for %q", src)
		}
	})
}
