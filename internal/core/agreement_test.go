package core

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
)

// agreementInputs collects every pinned input across both frontends:
// the PowerShell equivalence set (testdata shapes plus the deterministic
// corpus) and the JavaScript golden corpus.
func agreementInputs(t *testing.T) map[string]BatchInput {
	t.Helper()
	inputs := make(map[string]BatchInput)
	for name, src := range equivalenceInputs(t) {
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

// TestWarmCacheAgreement asserts the engine's output does not depend on
// what its caches already hold: on every pinned input, a run on fresh
// parse and evaluation caches and a run on caches every input has
// already passed through give the same script, the same layers and the
// same counters. Only the cache counters and the duration may differ.
func TestWarmCacheAgreement(t *testing.T) {
	inputs := agreementInputs(t)
	names := make([]string, 0, len(inputs))
	for name := range inputs {
		names = append(names, name)
	}
	sort.Strings(names)
	d := New(Options{})
	ctx := context.Background()
	cache, evalCache := pipeline.NewCache(0, 0), NewEvalCache(0, 0)
	for _, name := range names {
		in := inputs[name]
		if _, err := d.DeobfuscateSharedLang(ctx, in.Script, in.Lang, cache, evalCache); err != nil {
			t.Fatalf("%s: warming run: %v", name, err)
		}
	}
	for _, name := range names {
		in := inputs[name]
		t.Run(name, func(t *testing.T) {
			cold, err := d.DeobfuscateSharedLang(ctx, in.Script, in.Lang, nil, nil)
			if err != nil {
				t.Fatalf("cold run: %v", err)
			}
			warm, err := d.DeobfuscateSharedLang(ctx, in.Script, in.Lang, cache, evalCache)
			if err != nil {
				t.Fatalf("warm run: %v", err)
			}
			if warm.Script != cold.Script {
				t.Errorf("warm-cache output diverged from the cold run\n--- warm ---\n%s\n--- cold ---\n%s",
					warm.Script, cold.Script)
			}
			if !reflect.DeepEqual(warm.Layers, cold.Layers) {
				t.Errorf("warm run has %d layers, cold run %d, or their texts differ", len(warm.Layers), len(cold.Layers))
			}
			if w, c := engineCounters(warm.Stats), engineCounters(cold.Stats); w != c {
				t.Errorf("counters diverge\nwarm: %+v\ncold: %+v", w, c)
			}
		})
	}
}

// engineCounters is s without what a cache or the clock decides: the
// duration and the evaluation-cache counters.
func engineCounters(s Stats) Stats {
	s.Duration = 0
	s.EvalCacheHits, s.EvalCacheMisses, s.EvalCacheSkips = 0, 0, 0
	return s
}
