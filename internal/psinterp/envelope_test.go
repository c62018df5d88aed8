package psinterp

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestDeadlineStopsInfiniteLoop asserts the context deadline cuts off a
// while($true) loop on the step-counter hot path, well before the step
// budget would.
func TestDeadlineStopsInfiniteLoop(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	in := New(Options{MaxSteps: 1 << 40, Ctx: ctx})
	start := time.Now()
	_, err := in.EvalSnippet("while ($true) { $i = $i + 1 }")
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	if elapsed > 200*time.Millisecond {
		t.Fatalf("took %v, over 2x the 100ms deadline", elapsed)
	}
}

// TestCancelStopsEvaluation asserts cancelation (no deadline) surfaces
// as ErrCanceled.
func TestCancelStopsEvaluation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	in := New(Options{MaxSteps: 1 << 40, Ctx: ctx})
	_, err := in.EvalSnippet("while ($true) { $i = $i + 1 }")
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestAllocBudgetStopsStringDoubling asserts the cumulative allocation
// budget catches a string-doubling loop as ErrMemBudget.
func TestAllocBudgetStopsStringDoubling(t *testing.T) {
	in := New(Options{MaxAllocBytes: 1 << 20})
	_, err := in.EvalSnippet("$s = 'a'; while ($true) { $s = $s + $s }")
	if !errors.Is(err, ErrMemBudget) {
		t.Fatalf("want ErrMemBudget, got %v", err)
	}
}

// TestAllocBudgetStopsMultiplyBomb asserts 'a'*huge is rejected by the
// allocation budget rather than materialized.
func TestAllocBudgetStopsMultiplyBomb(t *testing.T) {
	in := New(Options{MaxAllocBytes: 1 << 20})
	_, err := in.EvalSnippet("$x = 'a' * 100000000")
	if err == nil {
		t.Fatal("want an envelope error, got nil")
	}
	if !errors.Is(err, ErrMemBudget) && !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrMemBudget or ErrBudget, got %v", err)
	}
}

// TestPanicBarrier asserts interpreter panics surface as typed errors,
// never escape. The nil-map-write style of bug is simulated by a
// construct that exercises deep recursion near MaxDepth.
func TestPanicBarrier(t *testing.T) {
	src := "function f { f }; f"
	in := New(Options{MaxDepth: 8})
	if _, err := in.EvalSnippet(src); err == nil {
		t.Fatal("want depth error, got nil")
	}
}

// panicHost panics on Write-Host, standing in for a latent bug deep
// inside an evaluation.
type panicHost struct{ DenyHost }

func (panicHost) WriteHost(string) { panic("host bug") }

// TestBarrierRestoresExprDepth asserts a panic inside an IEX payload
// leaves the expression depth where the outer evaluation had it.
// evalExpr does not decrement the depth while a panic unwinds it, so
// the payload's own EvalScript barrier has to put the depth back.
func TestBarrierRestoresExprDepth(t *testing.T) {
	in := New(Options{Host: panicHost{}})
	out, err := in.EvalSnippet("$r = try { iex '(1 + (1 + (Write-Host x)))' } catch { 'caught' }\n$r\n(2 + 3)")
	if err != nil {
		t.Fatalf("EvalSnippet: %v", err)
	}
	if got := renderOutput(out); got != "caught\n5" {
		t.Fatalf("output %q, want caught and 5", got)
	}
	if in.exprDepth != 0 {
		t.Fatalf("exprDepth = %d after the evaluation, want 0", in.exprDepth)
	}
}

// TestBudgetsDefaultSane asserts zero-valued options get the documented
// defaults rather than unbounded execution.
func TestBudgetsDefaultSane(t *testing.T) {
	in := New(Options{})
	if in.opts.MaxSteps != 2_000_000 {
		t.Errorf("MaxSteps default = %d, want 2000000", in.opts.MaxSteps)
	}
	if in.opts.MaxAllocBytes != 64<<20 {
		t.Errorf("MaxAllocBytes default = %d, want %d", in.opts.MaxAllocBytes, 64<<20)
	}
}

// TestIncrementalConcatChargesDelta is a regression test for the O(n²)
// accounting bug: string `+` used to charge the FULL result length on
// every append, so building a string >~11.5KB char-by-char exhausted
// the default 64 MiB cumulative budget. Only the appended delta must be
// charged — char/chunk-wise building is the single most common
// obfuscation pattern.
func TestIncrementalConcatChargesDelta(t *testing.T) {
	in := New(Options{})
	vals, err := in.EvalSnippet(
		"$s = ''; $i = 0; while ($i -lt 20000) { $s = $s + 'a'; $i = $i + 1 }; $s.Length")
	if err != nil {
		t.Fatalf("incremental 20KB build failed under default budget: %v", err)
	}
	if len(vals) == 0 || ToString(vals[len(vals)-1]) != "20000" {
		t.Fatalf("unexpected result %v", vals)
	}
}

// TestConcatResultStillCapped asserts the per-string cap still applies
// to `+` results after the delta-charging fix.
func TestConcatResultStillCapped(t *testing.T) {
	in := New(Options{MaxStringLen: 1 << 10})
	_, err := in.EvalSnippet("$s = 'a'; while ($true) { $s = $s + $s }")
	if !errors.Is(err, ErrBudget) && !errors.Is(err, ErrMemBudget) {
		t.Fatalf("want ErrBudget/ErrMemBudget, got %v", err)
	}
}

// TestStringNewHugeCountNoOverflow asserts [string]::new(char, n) with
// n near 2^62 is rejected by the budget guard instead of the
// n*len(unit) product wrapping int64 and reaching strings.Repeat.
func TestStringNewHugeCountNoOverflow(t *testing.T) {
	in := New(Options{})
	_, err := in.EvalSnippet("[string]::new([char]97, 4611686018427387904)")
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

// TestStringRepeatHugeCountNoOverflow asserts 'aaaa' * n with a huge n
// is rejected before the len*count product can wrap int64.
func TestStringRepeatHugeCountNoOverflow(t *testing.T) {
	in := New(Options{})
	_, err := in.EvalSnippet("$x = 'aaaa' * 4611686018427387904")
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

// TestWorkStillCompletesUnderEnvelope asserts a benign script is
// unaffected by a generous envelope.
func TestWorkStillCompletesUnderEnvelope(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	in := New(Options{Ctx: ctx})
	vals, err := in.EvalSnippet("('ab'+'cd').ToUpper()")
	if err != nil {
		t.Fatalf("EvalSnippet: %v", err)
	}
	if len(vals) != 1 || !strings.Contains(ToString(vals[0]), "ABCD") {
		t.Fatalf("unexpected result %v", vals)
	}
}
