package psinterp

import (
	"strings"
	"testing"
	"testing/quick"
)

var foldSink string

// TestFoldName checks that foldName is strings.ToLower, and that it
// folds a mixed-case decoder name without allocating.
func TestFoldName(t *testing.T) {
	inputs := []string{
		"", "_", "x", "ToInt32", "TOINT32", "toint32", "Length", "[System.Convert]",
		"Env:Path", "Global:X", "İ", "ÀB", "\xffA", strings.Repeat("Ab", 40),
	}
	for n, v := range foldedNames {
		if v != n || strings.ToLower(n) != n || len(n) > maxFoldedName {
			t.Errorf("foldedNames[%q] = %q: entries must be lower case, map to themselves and fit %d bytes", n, v, maxFoldedName)
		}
		inputs = append(inputs, n, strings.ToUpper(n), strings.ToUpper(n[:1])+n[1:])
	}
	for _, s := range inputs {
		if got, want := foldName(s), strings.ToLower(s); got != want {
			t.Errorf("foldName(%q) = %q, want %q", s, got, want)
		}
	}
	if err := quick.Check(func(s string) bool { return foldName(s) == strings.ToLower(s) }, nil); err != nil {
		t.Error(err)
	}
	if n := testing.AllocsPerRun(100, func() { foldSink = foldName("ToInt32") }); n != 0 {
		t.Errorf("foldName(%q) allocates %.0f times, want 0", "ToInt32", n)
	}
}
