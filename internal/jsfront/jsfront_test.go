package jsfront

import (
	"context"
	"errors"
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/frontend"
)

// TestJSDefaults pins the static decoder's answers to the evaluator
// half of the Frontend interface: no evaluator, scalar-only copies, a
// rough size estimate and no blocklist.
func TestJSDefaults(t *testing.T) {
	fe := JS{}
	if _, err := fe.Evaluate(context.Background(), "x", nil, frontend.EvalBudget{}); !errors.Is(err, frontend.ErrUnsupported) {
		t.Errorf("Evaluate err = %v, want ErrUnsupported", err)
	}
	// Scalars copy, reference types are refused.
	if cp, ok := fe.CopyValue("s"); !ok || cp != "s" {
		t.Errorf("CopyValue scalar = %v/%t", cp, ok)
	}
	if _, ok := fe.CopyValue([]any{1}); ok {
		t.Error("CopyValue accepted a slice")
	}
	if fe.ValueSize("abcd") != 4+16 {
		t.Errorf("ValueSize = %d", fe.ValueSize("abcd"))
	}
	if fe.DefaultBlocklist() != nil {
		t.Error("DefaultBlocklist not nil")
	}
	if fe.FinalPasses(nil) != nil {
		t.Error("FinalPasses not nil")
	}
}
