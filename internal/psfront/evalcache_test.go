package psfront

import (
	"context"
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/frontend"
	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
	"github.com/invoke-deobfuscation/invokedeob/internal/psast"
	"github.com/invoke-deobfuscation/invokedeob/internal/psinterp"
	"github.com/invoke-deobfuscation/invokedeob/internal/psnames"
	"github.com/invoke-deobfuscation/invokedeob/internal/psparser"
)

// newEvalState builds a minimal astState wired to the given eval view,
// mirroring astPhase's construction, so tests can drive piece
// evaluation directly and observe exactly when the interpreter runs.
func newEvalState(t *testing.T, src string, view *pipeline.EvalView) *astState {
	t.Helper()
	opts := &frontend.Options{MaxIterations: 10, StepBudget: 500_000}
	r := &run{Run: &frontend.Run{
		Opts:      opts,
		Blocklist: psnames.DefaultBlocklist(),
		Stats:     &frontend.Stats{},
		Env:       frontend.NewEnvelope(context.Background(), 0),
	}}
	doc := pipeline.NewDocument(src, pipeline.NewCache(0, 0).View(PS{}))
	return &astState{
		r:         r,
		pc:        &pipeline.PassContext{Doc: doc, Eval: view},
		doc:       doc,
		view:      doc.View(),
		src:       doc.Text(),
		repl:      make(map[psast.Node]replacement),
		vars:      make(map[string]varEntry),
		safeFuncs: make(map[string]*psast.FunctionDefinition),
	}
}

func rootCtx() visitCtx { return visitCtx{scope: []int{0}} }

// evalPieceText parses piece and evaluates its one statement through
// evalNode, the path the ast phase runs, with the piece as the state's
// source text.
func evalPieceText(t *testing.T, s *astState, piece string, ctx visitCtx) ([]any, error) {
	t.Helper()
	root, err := psparser.Parse(piece)
	if err != nil || len(root.Body.Statements) != 1 {
		t.Fatalf("piece %q does not parse to one statement: %v", piece, err)
	}
	s.src = piece
	return s.evalNode(root.Body.Statements[0], ctx)
}

// TestEvalTextImpurityBypassesCache proves the determinism gate: a
// piece whose evaluation consults a nondeterminism source must run the
// interpreter on EVERY occurrence. Two evaluations of the same
// Get-Random arithmetic are two interpreter runs — the trace counters
// show two skips, zero hits, zero cacheable misses, and the shared
// cache retains nothing.
func TestEvalTextImpurityBypassesCache(t *testing.T) {
	c := pipeline.NewEvalCache(0, 0)
	v := c.View(PS{})
	s := newEvalState(t, "x", v)
	const piece = "(Get-Random -Minimum 1 -Maximum 10) + 1"
	for i := 0; i < 2; i++ {
		// The result (or DenyHost error) is irrelevant; what matters is
		// that the evaluation was attempted and never memoized.
		evalPieceText(t, s, piece, rootCtx())
	}
	if v.Hits != 0 || v.Misses != 0 || v.Skips != 2 {
		t.Errorf("trace = %d hits / %d misses / %d skips, want 0/0/2 (two real interpreter runs)",
			v.Hits, v.Misses, v.Skips)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("impure result was cached: %+v", st)
	}
}

// TestEvalTextPureResultIsMemoized is the positive counterpart: a pure
// piece runs once and replays from the cache thereafter, with identical
// output values.
func TestEvalTextPureResultIsMemoized(t *testing.T) {
	c := pipeline.NewEvalCache(0, 0)
	v := c.View(PS{})
	s := newEvalState(t, "x", v)
	const piece = "'ab' + 'cd' * 2"
	first, err := evalPieceText(t, s, piece, rootCtx())
	if err != nil {
		t.Fatal(err)
	}
	second, err := evalPieceText(t, s, piece, rootCtx())
	if err != nil {
		t.Fatal(err)
	}
	if v.Hits != 1 || v.Misses != 1 || v.Skips != 0 {
		t.Errorf("trace = %d hits / %d misses / %d skips, want 1/1/0", v.Hits, v.Misses, v.Skips)
	}
	if got, want := psinterp.Unwrap(second), psinterp.Unwrap(first); got != want {
		t.Errorf("replayed value %v != original %v", got, want)
	}
}

// TestEvalTextBindingSensitivity drives the same piece text under
// changing traced-variable values: a changed binding must miss (and
// re-evaluate against the new value), and restoring the original value
// must hit again with the original result.
func TestEvalTextBindingSensitivity(t *testing.T) {
	c := pipeline.NewEvalCache(0, 0)
	v := c.View(PS{})
	s := newEvalState(t, "x", v)
	const piece = "$key + '!'"

	s.vars["key"] = varEntry{value: "alpha", scope: []int{0}}
	out, err := evalPieceText(t, s, piece, rootCtx())
	if err != nil {
		t.Fatal(err)
	}
	if got := psinterp.Unwrap(out); got != "alpha!" {
		t.Fatalf("first eval = %v, want alpha!", got)
	}

	// Same text, different value of the read variable: the cached
	// result must NOT replay.
	s.vars["key"] = varEntry{value: "beta", scope: []int{0}}
	out, err = evalPieceText(t, s, piece, rootCtx())
	if err != nil {
		t.Fatal(err)
	}
	if got := psinterp.Unwrap(out); got != "beta!" {
		t.Errorf("changed binding replayed a stale result: %v", got)
	}
	if v.Hits != 0 || v.Misses != 2 {
		t.Errorf("trace = %d hits / %d misses, want 0/2", v.Hits, v.Misses)
	}

	// Restoring the original value restores the original cached entry.
	s.vars["key"] = varEntry{value: "alpha", scope: []int{0}}
	out, err = evalPieceText(t, s, piece, rootCtx())
	if err != nil {
		t.Fatal(err)
	}
	if got := psinterp.Unwrap(out); got != "alpha!" {
		t.Errorf("restored binding = %v, want alpha!", got)
	}
	if v.Hits != 1 {
		t.Errorf("restored binding did not hit: %d hits", v.Hits)
	}
}

// TestEvalTextScopeVisibilityGatesCache asserts that a binding recorded
// in an invisible scope neither preloads nor matches: the same piece
// evaluated from a sibling scope must not replay a result computed with
// a variable that scope cannot see.
func TestEvalTextScopeVisibilityGatesCache(t *testing.T) {
	c := pipeline.NewEvalCache(0, 0)
	v := c.View(PS{})
	s := newEvalState(t, "x", v)
	// Recorded inside scope [0 1]; visible from [0 1], not from [0 2].
	s.vars["inner"] = varEntry{value: "seen", scope: []int{0, 1}}
	const piece = "'' + $inner"

	out, err := evalPieceText(t, s, piece, visitCtx{scope: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := psinterp.Unwrap(out); got != "seen" {
		t.Fatalf("visible-scope eval = %v, want seen", got)
	}
	// From the sibling scope the variable is invisible: StrictVars makes
	// the evaluation fail, and crucially it must not hit the cache.
	if _, err := evalPieceText(t, s, piece, visitCtx{scope: []int{0, 2}}); err == nil {
		t.Error("invisible binding evaluated successfully (cache leaked across scopes?)")
	}
	if v.Hits != 0 {
		t.Errorf("cross-scope lookup hit the cache: %d hits", v.Hits)
	}
}
