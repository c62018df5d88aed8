package psfront_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/core"
	"github.com/invoke-deobfuscation/invokedeob/internal/corpus"
	"github.com/invoke-deobfuscation/invokedeob/internal/gauntlet"
	"github.com/invoke-deobfuscation/invokedeob/internal/psfront"
)

// corpusSafeWalkBudget is the ceiling on the nodes the safety walk
// visits over the 24-sample corpus of the equivalence suite, one fresh
// Deobfuscator per script. The walk does not enter subtrees already
// replaced by a literal.
const corpusSafeWalkBudget = 20_000

// TestSafeWalkMatchesFullWalk checks the safety walk against the full
// walk it replaced at every call: over the golden inputs, the 24-sample
// corpus and the FunctionTracing fixtures, each with FunctionTracing
// off and on, and over the gauntlet-smoke grid, the two must give the
// same answer. It also holds the corpus to corpusSafeWalkBudget visits.
func TestSafeWalkMatchesFullWalk(t *testing.T) {
	samples := corpus.Generate(corpus.Config{Seed: 20220627, N: 24, MaxL3Layers: 3})
	t.Run("corpus budget", func(t *testing.T) {
		w := watchSafeWalks(t)
		for i, s := range samples {
			if _, err := core.New(core.Options{Lang: "powershell"}).Deobfuscate(s.Source); err != nil {
				t.Fatalf("corpus_%02d: %v", i, err)
			}
		}
		w.stop(t)
		if v := w.visits.Load(); v > corpusSafeWalkBudget {
			t.Errorf("the safety walk visited %d nodes over the corpus, budget %d", v, corpusSafeWalkBudget)
		}
	})
	if testing.Short() {
		return
	}
	scripts := goldenInputs(t)
	for _, s := range samples {
		scripts = append(scripts, s.Source)
	}
	scripts = append(scripts, functionTracingScripts...)
	for _, tracing := range []bool{false, true} {
		t.Run(fmt.Sprintf("FunctionTracing=%t", tracing), func(t *testing.T) {
			w := watchSafeWalks(t)
			for _, src := range scripts {
				if _, err := core.New(core.Options{Lang: "powershell", FunctionTracing: tracing}).Deobfuscate(src); err != nil {
					t.Fatalf("%v on %q", err, clip(src))
				}
			}
			w.stop(t)
		})
	}
	t.Run("gauntlet-smoke", func(t *testing.T) {
		w := watchSafeWalks(t)
		if _, err := gauntlet.Run(context.Background(), gauntlet.Config{Seed: 7, Samples: 6, MaxDepth: 2, Jobs: 2}); err != nil {
			t.Fatal(err)
		}
		w.stop(t)
	})
}

// safeWalks sums the safety walks it watches, each way, and counts the
// calls where the two answers differ.
type safeWalks struct {
	calls, visits, fullVisits, differ atomic.Int64
	unwatch                           func()
}

func watchSafeWalks(t *testing.T) *safeWalks {
	w := &safeWalks{}
	w.unwatch = psfront.WatchSafeWalks(func(e psfront.SafeWalk) {
		w.calls.Add(1)
		w.visits.Add(int64(e.Visits))
		w.fullVisits.Add(int64(e.FullVisits))
		if e.Safe != e.FullSafe && w.differ.Add(1) <= 10 {
			t.Errorf("safety walk says safe=%t, the full walk safe=%t", e.Safe, e.FullSafe)
		}
	})
	return w
}

func (w *safeWalks) stop(t *testing.T) {
	w.unwatch()
	t.Logf("%d safety walks visited %d nodes (the full walk %d)", w.calls.Load(), w.visits.Load(), w.fullVisits.Load())
	if w.calls.Load() == 0 {
		t.Error("no safety walk ran")
	}
	if n := w.differ.Load(); n > 0 {
		t.Errorf("%d safety walks differ from the full walk", n)
	}
}
