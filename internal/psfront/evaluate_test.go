package psfront

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/frontend"
	"github.com/invoke-deobfuscation/invokedeob/internal/limits"
	"github.com/invoke-deobfuscation/invokedeob/internal/psinterp"
)

// TestEvaluate pins the evaluator half of the Frontend interface, which
// perfbench's layer probe calls with a zero budget: pipeline values out,
// caller bindings in, strict variable reads, and each budget and the
// context as the errors that bound a run.
func TestEvaluate(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	is := func(target error) func(error) bool {
		return func(err error) bool { return errors.Is(err, target) }
	}
	// loop takes well over 1,024 interpreter steps, the interval at
	// which a run looks at its context.
	const loop = "$n = 0; foreach ($i in 1..5000) { $n += $i }; $n"
	tests := []struct {
		name    string
		ctx     context.Context
		snippet string
		vars    map[string]any
		budget  frontend.EvalBudget
		want    []any
		isErr   func(error) bool // when want is nil; nil accepts any error
	}{
		{name: "constant", snippet: "'de' + 'obfuscated'", want: []any{"deobfuscated"}},
		{name: "several outputs", snippet: "'a'; 'b'", want: []any{"a", "b"}},
		{name: "bound variable", snippet: "$k + 1", vars: map[string]any{"k": int64(5)}, want: []any{int64(6)}},
		{name: "unbound variable", snippet: "$nope", isErr: func(err error) bool {
			var uv *psinterp.UnknownVariableError
			return errors.As(err, &uv) && uv.Name == "nope"
		}},
		{name: "parse error", snippet: "'unterminated"},
		{name: "zero budget uses defaults", snippet: loop, want: []any{int64(12_502_500)}},
		{name: "step budget", snippet: loop, budget: frontend.EvalBudget{MaxSteps: 100}, isErr: is(psinterp.ErrBudget)},
		{name: "alloc budget", snippet: "'x' * 1000", budget: frontend.EvalBudget{MaxAllocBytes: 64}, isErr: is(limits.ErrMemBudget)},
		{name: "canceled context", ctx: canceled, snippet: loop, isErr: is(limits.ErrCanceled)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ctx := tt.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			res, err := PS{}.Evaluate(ctx, tt.snippet, tt.vars, tt.budget)
			if tt.want != nil {
				if err != nil {
					t.Fatalf("Evaluate(%q) error: %v", tt.snippet, err)
				}
				if !reflect.DeepEqual(res.Values, tt.want) {
					t.Errorf("Evaluate(%q) = %#v, want %#v", tt.snippet, res.Values, tt.want)
				}
				return
			}
			if err == nil {
				t.Fatalf("Evaluate(%q) = %#v, want an error", tt.snippet, res.Values)
			}
			if tt.isErr != nil && !tt.isErr(err) {
				t.Errorf("Evaluate(%q) error = %v, not the one expected", tt.snippet, err)
			}
		})
	}
}
