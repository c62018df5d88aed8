package frontend

import (
	"context"
	"errors"
	"time"

	"github.com/invoke-deobfuscation/invokedeob/internal/limits"
)

// defaultMaxOutputBytes bounds the total output across unwrapped layers
// when Options.MaxOutputBytes is zero.
const defaultMaxOutputBytes = 64 << 20 // 64 MiB

// Envelope carries the per-run execution limits through the pipeline:
// the caller's context (deadline / cancelation) and the remaining
// output byte budget shared by all unwrapped layers. An engine is
// reusable across runs, so this state lives on the run, not on the
// engine. A run executes on one goroutine, so the envelope is not
// synchronized.
type Envelope struct {
	ctx             context.Context
	outputRemaining int
	// err latches the first envelope violation so later checks fail
	// fast without re-deriving it.
	err error
}

// NewEnvelope returns an envelope over ctx with maxOutput bytes of
// layer-output budget (<=0 means the 64 MiB default).
func NewEnvelope(ctx context.Context, maxOutput int) *Envelope {
	if ctx == nil {
		ctx = context.Background()
	}
	if maxOutput <= 0 {
		maxOutput = defaultMaxOutputBytes
	}
	return &Envelope{ctx: ctx, outputRemaining: maxOutput}
}

// Context returns the run's context, for wiring into interpreters.
func (e *Envelope) Context() context.Context {
	if e == nil || e.ctx == nil {
		return context.Background()
	}
	return e.ctx
}

// Check returns the latched violation or a fresh context error, nil
// while the envelope is intact.
func (e *Envelope) Check() error {
	if e == nil {
		return nil
	}
	if e.err != nil {
		return e.err
	}
	if cerr := e.ctx.Err(); cerr != nil {
		e.err = limits.FromContext(cerr)
		return e.err
	}
	// ctx.Err() turns non-nil only once the context's timer goroutine
	// has fired; right at the deadline instant it can lag the wall
	// clock by a scheduling quantum. The interpreter checks
	// time.Now() against the deadline directly, so mirror that here —
	// otherwise a piece can fail with ErrDeadline while the run-level
	// check still reads the envelope as intact.
	if dl, ok := e.ctx.Deadline(); ok && !time.Now().Before(dl) {
		e.err = limits.ErrDeadline
		return e.err
	}
	return nil
}

// Violated reports whether the envelope has already been broken.
func (e *Envelope) Violated() bool { return e.Check() != nil }

// ChargeOutput debits n bytes of layer output from the shared budget.
// Non-positive charges (a layer that shrank) are free — the budget is
// never refunded, so oscillating layers cannot mint headroom.
func (e *Envelope) ChargeOutput(n int) error {
	if e == nil || n <= 0 {
		return nil
	}
	if n > e.outputRemaining {
		e.outputRemaining = 0
		if e.err == nil {
			e.err = limits.ErrOutputBudget
		}
		return limits.ErrOutputBudget
	}
	e.outputRemaining -= n
	return nil
}

// ClassifyEvalFailure buckets a per-piece evaluation failure into the
// Stats counters. Failures outside the taxonomy (unsupported feature,
// runtime error in the piece) are the normal give-up path and are not
// counted here.
func ClassifyEvalFailure(stats *Stats, err error) {
	switch {
	case errors.Is(err, limits.ErrDeadline) || errors.Is(err, limits.ErrCanceled):
		stats.PiecesTimedOut++
	case errors.Is(err, limits.ErrMemBudget):
		stats.PiecesOverBudget++
	case errors.Is(err, limits.ErrPanic):
		stats.PiecesPanicked++
	}
}
