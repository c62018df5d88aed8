package obfuscate_test

import (
	"fmt"
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/corpus"
	"github.com/invoke-deobfuscation/invokedeob/internal/obfuscate"
	"github.com/invoke-deobfuscation/invokedeob/internal/pstoken"
)

// reverseSplice is the token rewrite as the obfuscator first wrote it,
// kept as the reference for the forward rewriter: fn is asked about
// each token from the last to the first, and each replacement is
// spliced into the whole text at once, so earlier offsets stay valid.
func reverseSplice(src string, fn obfuscate.TokenFunc) (string, bool, error) {
	toks, err := pstoken.Tokenize(src)
	if err != nil {
		return "", false, err
	}
	out := src
	changed := false
	for i := len(toks) - 1; i >= 0; i-- {
		text := toks[i].Text(src)
		repl, ok := fn(toks[i], text)
		if !ok || repl == text {
			continue
		}
		out = out[:toks[i].Start] + repl + out[toks[i].End():]
		changed = true
	}
	return out, changed, nil
}

// referenceSeeds are the corpus seeds the comparison draws scripts
// from: perfbench's plan seed and the equivalence suite's seed.
var referenceSeeds = []int64{1, 20220627}

// obfuscateAll generates the corpus of every reference seed and runs
// every profile at every depth over its clean originals, returning
// every script produced in a fixed order: the generated corpus (whose
// obfuscated sources come from the same techniques) and then the
// profile outputs.
func obfuscateAll(t *testing.T) []string {
	t.Helper()
	var outs []string
	for _, seed := range referenceSeeds {
		samples := corpus.Generate(corpus.Config{Seed: seed, N: 12})
		for _, s := range samples {
			outs = append(outs, s.Source)
		}
		for _, p := range obfuscate.Profiles() {
			for depth := 0; depth <= p.MaxDepth; depth++ {
				for i, s := range samples {
					out, _, _, err := obfuscate.New(seed*1000+int64(i)).ApplyProfile(s.Original, p, depth)
					if err != nil {
						t.Fatalf("seed %d, %s, depth %d, sample %d: %v", seed, p.Name, depth, i, err)
					}
					outs = append(outs, out)
				}
			}
		}
	}
	return outs
}

// TestRewriteTokensMatchesReverseSplice checks the forward token
// rewriter against the reverse splice on every call the ticking,
// random-case and alias techniques make while the corpus is generated
// and every profile obfuscates it. The techniques draw random numbers
// inside their callbacks, so each call records the callback's answers
// once, in the order the reference asks for them, and replays them to
// the forward rewriter, which must ask in the same order and return
// the same bytes and changed flag. Obfuscate generates perfbench's
// inputs and the gauntlet's cells, so the profile outputs are also
// compared with a run that does not swap the rewriter.
func TestRewriteTokensMatchesReverseSplice(t *testing.T) {
	calls, changed := 0, 0
	restore := obfuscate.SwapTokenRewriter(func(src string, fn obfuscate.TokenFunc) (string, bool, error) {
		type answer struct {
			start int32
			repl  string
			ok    bool
		}
		var answers []answer
		want, wantChanged, wantErr := reverseSplice(src, func(tok pstoken.Token, text string) (string, bool) {
			repl, ok := fn(tok, text)
			answers = append(answers, answer{tok.Start, repl, ok})
			return repl, ok
		})
		asked := 0
		got, gotChanged, gotErr := obfuscate.RewriteTokens(src, func(tok pstoken.Token, text string) (string, bool) {
			if asked >= len(answers) || answers[asked].start != tok.Start {
				t.Fatalf("call %d: the forward rewriter asks about the token at %d out of the reference's order", calls, tok.Start)
			}
			a := answers[asked]
			asked++
			return a.repl, a.ok
		})
		if asked != len(answers) || got != want || gotChanged != wantChanged || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("call %d: forward rewrite (changed %v, err %v, %d answers) differs from the reverse splice (changed %v, err %v, %d answers)\n--- src ---\n%s\n--- got ---\n%s\n--- want ---\n%s",
				calls, gotChanged, gotErr, asked, wantChanged, wantErr, len(answers), src, got, want)
		}
		calls++
		if gotChanged {
			changed++
		}
		return want, wantChanged, wantErr
	})
	reference := obfuscateAll(t)
	restore()
	if calls == 0 || changed == 0 {
		t.Fatalf("vacuous comparison: %d rewrites, %d changed", calls, changed)
	}
	forward := obfuscateAll(t)
	if len(forward) != len(reference) {
		t.Fatalf("%d scripts with the forward rewriter, %d with the reference", len(forward), len(reference))
	}
	for i := range forward {
		if forward[i] != reference[i] {
			t.Fatalf("script %d differs from the reference run\n--- forward ---\n%.300s\n--- reference ---\n%.300s", i, forward[i], reference[i])
		}
	}
	t.Logf("%d rewrites (%d changed), %d scripts identical", calls, changed, len(forward))
}
