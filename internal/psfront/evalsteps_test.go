package psfront

import (
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/core"
	"github.com/invoke-deobfuscation/invokedeob/internal/corpus"
)

// corpusEvalStepBudget is the ceiling on interpreter steps executed
// over the 24-sample corpus of the equivalence suite, one fresh
// Deobfuscator per script: the steps the piece runs charged minus those
// that replayed a recorded descendant instead of evaluating it. Every
// piece charges what evaluating its whole subtree charges, 103,506
// steps in all; a piece that encloses a descendant whose value was not
// spliced replays that descendant's record (reuse.go), so 69,087 are
// executed. A change that evaluates such subtrees again fails this.
const corpusEvalStepBudget = 69_087

// TestEvalStepsCorpusBudget holds the corpus to corpusEvalStepBudget,
// and checks that the steps charged are the same with records and
// without them.
func TestEvalStepsCorpusBudget(t *testing.T) {
	steps := func(reuse bool) (charged, replayed int64) {
		stopRecords := WatchRecords(reuse, func(int, int) {})
		defer stopRecords()
		stop := WatchPieceEvals(func(e PieceEval) {
			charged += int64(e.Interp.Steps())
			replayed += int64(e.Interp.StepsReplayed())
		})
		defer stop()
		for i, s := range corpus.Generate(corpus.Config{Seed: 20220627, N: 24, MaxL3Layers: 3}) {
			if _, err := core.New(core.Options{Lang: "powershell"}).Deobfuscate(s.Source); err != nil {
				t.Fatalf("corpus_%02d: %v", i, err)
			}
		}
		return charged, replayed
	}
	full, none := steps(false)
	charged, replayed := steps(true)
	t.Logf("the corpus charged %d interpreter steps and executed %d of them (%d without records)", charged, charged-replayed, full)
	if none != 0 || charged != full {
		t.Errorf("records changed the steps charged: %d with them, %d (%d replayed) without", charged, full, none)
	}
	if executed := charged - replayed; executed > corpusEvalStepBudget {
		t.Errorf("the corpus executed %d interpreter steps, budget %d (subtrees evaluated again?)", executed, corpusEvalStepBudget)
	}
}
