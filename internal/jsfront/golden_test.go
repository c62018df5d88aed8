package jsfront

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/core"
)

// The JavaScript golden suite mirrors the PowerShell equivalence suite:
// the goldens under testdata/golden freeze the frontend's exact output
// bytes, and every engine or decoder change must reproduce them.
// Regenerate deliberately with
//
//	go test ./internal/jsfront -run TestJSGolden -update-golden
//
// only when an intentional behaviour change is reviewed.
var updateGolden = flag.Bool("update-golden", false, "rewrite JS goldens from current engine output")

func corpusFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "*.js"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 10 {
		t.Fatalf("JS corpus has %d samples, want >= 10", len(files))
	}
	return files
}

// TestJSGolden runs the full driver with the JavaScript frontend over
// every corpus sample and pins the output bytes.
func TestJSGolden(t *testing.T) {
	d := core.New(core.Options{Lang: "javascript"})
	for _, f := range corpusFiles(t) {
		name := strings.TrimSuffix(filepath.Base(f), ".js")
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			res, err := d.Deobfuscate(string(raw))
			if err != nil {
				t.Fatalf("Deobfuscate: %v", err)
			}
			goldenPath := filepath.Join("testdata", "golden", name+".golden")
			if *updateGolden {
				if werr := os.WriteFile(goldenPath, []byte(res.Script), 0o644); werr != nil {
					t.Fatal(werr)
				}
				return
			}
			want, rerr := os.ReadFile(goldenPath)
			if rerr != nil {
				t.Fatalf("missing golden (run with -update-golden to regenerate): %v", rerr)
			}
			if res.Script != string(want) {
				t.Errorf("output diverged for %s\n--- got ---\n%s\n--- want ---\n%s",
					name, res.Script, want)
			}
		})
	}
}

// TestJSGoldenOutputsStillParse asserts every golden is itself a valid
// script under the frontend's validity contract — the semantics-
// preservation bar the driver holds each rewrite to.
func TestJSGoldenOutputsStillParse(t *testing.T) {
	for _, f := range corpusFiles(t) {
		name := strings.TrimSuffix(filepath.Base(f), ".js")
		raw, err := os.ReadFile(filepath.Join("testdata", "golden", name+".golden"))
		if err != nil {
			t.Fatalf("missing golden for %s: %v", name, err)
		}
		if err := parseErr(string(raw)); err != nil {
			t.Errorf("golden %s no longer parses: %v", name, err)
		}
	}
}

// TestJSDecoderRecoversPayloads spot-checks the decoded payloads: the
// point of the suite is that the literal an analyst needs is in the
// output, not still sharded across a decoder pattern.
func TestJSDecoderRecoversPayloads(t *testing.T) {
	d := core.New(core.Options{Lang: "javascript"})
	tests := []struct {
		src, want string
	}{
		{`var s = "\x68\x69";`, "'hi'"},
		{`var s = 'pay' + 'load';`, "'payload'"},
		{`var s = String.fromCharCode(104, 105);`, "'hi'"},
		{`var s = ['h', 'i'].join('');`, "'hi'"},
		// Composition across fixpoint iterations.
		{`var s = String.fromCharCode(104) + ['i', '!'].join('');`, "'hi!'"},
		{`eval(String.fromCharCode(0x61) + "\x62" + ['c'].join(''));`, "eval('abc');"},
	}
	for _, tt := range tests {
		res, err := d.Deobfuscate(tt.src)
		if err != nil {
			t.Errorf("Deobfuscate(%q): %v", tt.src, err)
			continue
		}
		if !strings.Contains(res.Script, tt.want) {
			t.Errorf("Deobfuscate(%q) = %q, want substring %q", tt.src, res.Script, tt.want)
		}
	}
}

// TestJSInvalidSyntaxRejected asserts driver-level syntax errors surface
// as ErrInvalidSyntax for this frontend too.
func TestJSInvalidSyntaxRejected(t *testing.T) {
	d := core.New(core.Options{Lang: "javascript"})
	for _, src := range []string{"var x = (1;", "var s = 'unterminated", "a ] b"} {
		if _, err := d.Deobfuscate(src); err == nil {
			t.Errorf("Deobfuscate(%q) accepted invalid input", src)
		}
	}
}
