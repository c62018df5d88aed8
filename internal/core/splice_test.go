package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/corpus"
)

// spliceFallbackInputs hold statements the splicer rejects — joined by
// `;` on one line, or followed by a comment — so replacement batches on
// them take the full-rebuild path. Nothing in the pinned corpora
// reaches that path.
var spliceFallbackInputs = map[string]string{
	"fallback_semicolon":      "Write-Host ('a'+'b'); Write-Host ('c'+'d')",
	"fallback_comment":        "$x = 'ab' + 'cd' # trailing comment\nWrite-Host $x\n",
	"fallback_inline_comment": "Write-Host ('he'+'llo') <# inline #> ; $y = [char]104 + [char]105\nWrite-Host $y\n",
	"fallback_nested_layer":   "IEX (\"Write-Host ('a'+'b'); Write-Host ('c'+'d')\")\n",
}

// spliceEquivalenceInputs collects every pinned input across both
// frontends: the PowerShell equivalence set (testdata shapes plus the
// deterministic corpus), the splice-fallback shapes, and the
// JavaScript golden corpus.
func spliceEquivalenceInputs(t *testing.T) map[string]BatchInput {
	t.Helper()
	inputs := make(map[string]BatchInput)
	for name, src := range equivalenceInputs(t) {
		inputs[name] = BatchInput{Name: name, Script: src}
	}
	for name, src := range spliceFallbackInputs {
		inputs[name] = BatchInput{Name: name, Script: src}
	}
	files, err := filepath.Glob(filepath.Join("..", "jsfront", "testdata", "*.js"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 10 {
		t.Fatalf("JS corpus has %d samples, want >= 10", len(files))
	}
	for _, f := range files {
		raw, rerr := os.ReadFile(f)
		if rerr != nil {
			t.Fatal(rerr)
		}
		name := "js_" + strings.TrimSuffix(filepath.Base(f), ".js")
		inputs[name] = BatchInput{Name: name, Script: string(raw), Lang: "javascript"}
	}
	return inputs
}

// TestSpliceEquivalence asserts the engine's output is independent of
// the splice fast path: incremental splicing and the full re-render
// fallback must produce byte-identical scripts on every pinned input.
// Splicing is a pure performance feature and must never change a byte.
// At least one input must fall back from a rejected splice to the
// rebuild, so the comparison also covers the fallback.
func TestSpliceEquivalence(t *testing.T) {
	splice, rebuild := New(Options{}), New(Options{DisableSplice: true})
	fellBack := 0
	for name, in := range spliceEquivalenceInputs(t) {
		name, in := name, in
		t.Run(name, func(t *testing.T) {
			want, err := rebuild.DeobfuscateSharedLang(context.Background(), in.Script, in.Lang, nil, nil)
			if err != nil {
				t.Fatalf("rebuild: Deobfuscate: %v", err)
			}
			got, err := splice.DeobfuscateSharedLang(context.Background(), in.Script, in.Lang, nil, nil)
			if err != nil {
				t.Fatalf("splice: Deobfuscate: %v", err)
			}
			if got.Script != want.Script {
				t.Errorf("splice output diverged from the full rebuild\n--- splice ---\n%s\n--- rebuild ---\n%s",
					got.Script, want.Script)
			}
			if got.Stats.SpliceFallbacks > 0 {
				fellBack++
			}
		})
	}
	if fellBack == 0 {
		t.Error("no input fell back from a rejected splice to the full rebuild")
	}
}

// TestCorpusSpliceRate is the structural splice gate over the
// deterministic 24-sample corpus: replacement batches must actually
// splice, and fewer than 20% may fall back to the full rebuild.
func TestCorpusSpliceRate(t *testing.T) {
	d := New(Options{})
	applied, fallbacks := 0, 0
	for _, s := range corpus.Generate(corpus.Config{Seed: 20220627, N: 24}) {
		res, err := d.Deobfuscate(s.Source)
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		applied += res.Stats.SplicesApplied
		fallbacks += res.Stats.SpliceFallbacks
	}
	if applied == 0 {
		t.Fatal("no replacement batch was spliced over the corpus")
	}
	if rate := float64(fallbacks) / float64(applied+fallbacks); rate >= 0.2 {
		t.Errorf("splice fallback rate %.2f (%d of %d batches), want < 0.20", rate, fallbacks, applied+fallbacks)
	}
	t.Logf("%d splices applied, %d fell back", applied, fallbacks)
}
