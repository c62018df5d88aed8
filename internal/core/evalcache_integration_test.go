package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// The piece-level cache integration tests live with the PowerShell
// frontend (internal/psfront), which owns astState; the tests here
// exercise the memoization layer through the driver's public surface.

// TestDeobfuscateCacheOnOffEquivalence is the semantic guard for the
// memoization layer: over every pinned input (testdata malware shapes
// plus the deterministic corpus) the engine's full output — final
// script, per-iteration layers, and recovery counters — is byte-
// identical with the evaluation cache enabled and disabled.
func TestDeobfuscateCacheOnOffEquivalence(t *testing.T) {
	inputs := equivalenceInputs(t)
	on := New(Options{})
	off := New(Options{DisableEvalCache: true})
	for name, src := range inputs {
		rOn, errOn := on.Deobfuscate(src)
		rOff, errOff := off.Deobfuscate(src)
		if (errOn == nil) != (errOff == nil) {
			t.Errorf("%s: error divergence on=%v off=%v", name, errOn, errOff)
			continue
		}
		if errOn != nil {
			continue
		}
		if rOn.Script != rOff.Script {
			t.Errorf("%s: cache-on output differs from cache-off", name)
		}
		if len(rOn.Layers) != len(rOff.Layers) {
			t.Errorf("%s: layer count %d != %d", name, len(rOn.Layers), len(rOff.Layers))
		}
		if rOn.Stats.PiecesRecovered != rOff.Stats.PiecesRecovered ||
			rOn.Stats.Iterations != rOff.Stats.Iterations {
			t.Errorf("%s: stats diverge: on %d pieces/%d iters, off %d pieces/%d iters",
				name, rOn.Stats.PiecesRecovered, rOn.Stats.Iterations,
				rOff.Stats.PiecesRecovered, rOff.Stats.Iterations)
		}
		if rOff.Stats.EvalCacheHits != 0 || rOff.Stats.EvalCacheMisses != 0 {
			t.Errorf("%s: disabled cache recorded traffic: %d hits / %d misses",
				name, rOff.Stats.EvalCacheHits, rOff.Stats.EvalCacheMisses)
		}
	}
}

// TestSharedEvalCacheConcurrentRuns drives many concurrent runs through
// one shared EvalCache (the batch-driver topology) and checks every
// worker still produces the sequential baseline output. Run under
// -race this is the data-race guard for the shared cache.
func TestSharedEvalCacheConcurrentRuns(t *testing.T) {
	// A corpus slice with duplicates so cross-worker hits actually occur.
	base := equivalenceCorpus()[:6]
	var srcs []string
	for i := 0; i < 3; i++ {
		for _, s := range base {
			srcs = append(srcs, s.Source)
		}
	}
	d := New(Options{})
	want := make([]string, len(srcs))
	for i, src := range srcs {
		res, err := d.Deobfuscate(src)
		if err != nil {
			t.Fatalf("baseline %d: %v", i, err)
		}
		want[i] = res.Script
	}

	shared := NewEvalCache(0, 0)
	var wg sync.WaitGroup
	errs := make(chan error, len(srcs)*4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, src := range srcs {
				res, err := d.DeobfuscateSharedLang(context.Background(), src, "", nil, shared)
				if err != nil {
					errs <- fmt.Errorf("script %d: %v", i, err)
					continue
				}
				if res.Script != want[i] {
					errs <- fmt.Errorf("script %d: shared-cache output diverges from baseline", i)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := shared.Stats()
	if st.Hits == 0 {
		t.Errorf("duplicated corpus produced no cross-run hits: %+v", st)
	}
}
