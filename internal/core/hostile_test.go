package core

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/base64"
	"errors"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode"
	"unicode/utf16"

	"github.com/invoke-deobfuscation/invokedeob/internal/frontend"
	"github.com/invoke-deobfuscation/invokedeob/internal/psfront"
)

// encodeCommand renders script as a powershell -EncodedCommand layer
// (UTF-16LE + Base64, the -EncodedCommand contract).
func encodeCommand(script string) string {
	u16 := utf16.Encode([]rune(script))
	raw := make([]byte, 0, len(u16)*2)
	for _, u := range u16 {
		raw = append(raw, byte(u), byte(u>>8))
	}
	return "powershell -EncodedCommand " + base64.StdEncoding.EncodeToString(raw)
}

func deflateB64(s string) string {
	var buf bytes.Buffer
	w, _ := flate.NewWriter(&buf, flate.BestCompression)
	w.Write([]byte(s))
	w.Close()
	return base64.StdEncoding.EncodeToString(buf.Bytes())
}

// deflateWrap renders script as one iex(deflate+Base64) layer — the
// PSDecode-style zip-bomb construction whose per-layer size stays
// nearly constant (compression cancels the Base64 expansion), so a
// genuine 50-layer chain fits in a few KiB.
func deflateWrap(script string) string {
	return "iex ((New-Object IO.StreamReader((New-Object IO.Compression.DeflateStream((New-Object IO.MemoryStream(,[Convert]::FromBase64String('" +
		deflateB64(script) + "'))),'Decompress')))).ReadToEnd())"
}

// layerBomb builds a 50-layer unwrap chain: two -EncodedCommand layers
// around the payload (the size-exploding kind), then deflate layers up
// to 50 total.
func layerBomb() string {
	s := "write-host bomb"
	for i := 0; i < 2; i++ {
		s = encodeCommand(s)
	}
	for i := 2; i < 50; i++ {
		s = deflateWrap(s)
	}
	return s
}

// randomCaseLines is n lines of `write-host 'a'` with each letter's
// case drawn from a fixed seed, so the token pass rewrites nearly every
// line.
func randomCaseLines(n int) string {
	rng := rand.New(rand.NewSource(1))
	var sb strings.Builder
	for i := 0; i < n; i++ {
		for _, c := range "write-host" {
			if rng.Intn(2) == 0 {
				c = unicode.ToUpper(c)
			}
			sb.WriteRune(c)
		}
		sb.WriteString(" 'a'\n")
	}
	return sb.String()
}

// taxonomyOK reports whether err is nil or a typed envelope error —
// the only outcomes a hostile input may produce (never a panic, never
// an untyped hang-then-error).
func taxonomyOK(err error) bool {
	if err == nil {
		return true
	}
	for _, want := range []error{ErrDeadline, ErrCanceled, ErrMemBudget,
		ErrParseDepth, ErrOutputBudget, ErrPanic, ErrInvalidSyntax} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

// TestHostileCorpus drives the deobfuscator over adversarial inputs
// under a wall-clock deadline and asserts the envelope contract: a
// result or typed error within 2x the deadline, and no panics (a panic
// would fail the test run outright).
func TestHostileCorpus(t *testing.T) {
	const deadline = 250 * time.Millisecond
	cases := []struct {
		name string
		src  string
		opts Options
		// wantTimeout requires the run to be cut off by the deadline.
		wantTimeout bool
	}{
		{
			name: "string multiplication bomb",
			src:  "$x = 'a'*100000000; $x",
		},
		{
			name: "5k-deep nested parens",
			src:  strings.Repeat("(", 5000) + "1" + strings.Repeat(")", 5000),
		},
		{
			name: "50-layer encoded-command bomb",
			src:  layerBomb(),
		},
		{
			name: "tiny output budget on layered input",
			src:  layerBomb(),
			opts: Options{MaxOutputBytes: 256},
		},
		{
			name:        "infinite loop piece",
			src:         "$v = $(while($true){1}); $v",
			opts:        Options{StepBudget: 1 << 40},
			wantTimeout: true,
		},
		{
			name: "exponential concat piece",
			src:  "$s = $('ha'; foreach ($i in 1..64) {}); $x = 'a'*99999999 + 'b'",
		},
		// One row per text pass, each large enough that the pass breaks
		// the bound if it is quadratic in the script's size: the token
		// pass, rename and reformat's re-indent.
		{
			name: "120 KB of random-case commands",
			src:  randomCaseLines(8000),
		},
		{
			name: "170 KB of one random variable",
			src:  strings.Repeat("$bqqzrtk4x = $bqqzrtk4x + 1\n", 6200),
		},
		{
			name: "170 KB of string arguments",
			src:  strings.Repeat("Write-Output 'a' 'b'\n", 8000),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			start := time.Now()
			res, err := New(tc.opts).DeobfuscateContext(ctx, tc.src)
			elapsed := time.Since(start)
			if elapsed > envelopeSlack*deadline {
				t.Fatalf("took %v, over %dx the %v deadline",
					elapsed, envelopeSlack, deadline)
			}
			if !taxonomyOK(err) {
				t.Fatalf("error outside taxonomy: %v", err)
			}
			if err == nil && res == nil {
				t.Fatal("nil result with nil error")
			}
			if tc.wantTimeout {
				if !errors.Is(err, ErrDeadline) {
					t.Fatalf("want ErrDeadline, got %v", err)
				}
				if res == nil || !res.Stats.TimedOut {
					t.Fatalf("want partial result with Stats.TimedOut, got %+v", res)
				}
				if res.Stats.PiecesTimedOut == 0 {
					t.Error("want PiecesTimedOut > 0")
				}
			}
		})
	}
}

// TestRecordCapHolds drives the cap on the values a run records for
// enclosing pieces to replay. In the flat case one statement's 24
// array-valued pieces, distinct so the eval cache answers none of them,
// hold about 11.5 MiB together. In the nested case an Invoke-Expression
// statement holds the records of 24 such pieces while its payload, a
// nested layer with 24 larger ones, is unwrapped: the cap covers both
// layers at once. In the param case the records of a root param
// default lie outside every statement and are dropped when the pass
// ends. The bytes the records hold, summed from what each kept record
// adds and each drop releases, must never exceed the cap and must be
// back at zero after the run, some of the ranges must go unrecorded
// for the cap, and the result must be that of a run that records
// nothing.
func TestRecordCapHolds(t *testing.T) {
	ranges := func(from int) string {
		terms := make([]string, 24)
		for i := range terms {
			terms[i] = "(1.." + strconv.Itoa(from+i) + ").Count"
		}
		return strings.Join(terms, " + ")
	}
	for _, tc := range []struct {
		name, src, want string
		// ranges counts the ranges in src, 0 where they stay under the
		// cap.
		ranges int
	}{
		{"flat", "$n = " + ranges(30000) + "\nWrite-Host $n", "Write-Host 720276", 24},
		{"nested", "Invoke-Expression ('$m = ' + (" + ranges(30000) + ") + '; $k = " + ranges(40000) + "; Write-Host $m $k')",
			"Write-Host 720276 960276", 48},
		{"param", "param($a = ((1..5) + (1..6)).Count)", "param(", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			kept, held, peak, limit := 0, 0, 0, 0
			stop := psfront.WatchRecords(true, func(delta, cap int) {
				mu.Lock()
				defer mu.Unlock()
				if delta > 0 {
					kept++
				}
				held += delta
				peak, limit = max(peak, held), cap
			})
			res, err := New(Options{}).Deobfuscate(tc.src)
			stop()
			if err != nil {
				t.Fatal(err)
			}
			stop = psfront.WatchRecords(false, nil)
			plain, err := New(Options{}).Deobfuscate(tc.src)
			stop()
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d records kept, at most %d bytes held, cap %d", kept, peak, limit)
			if peak > limit {
				t.Errorf("the records held %d bytes, cap %d", peak, limit)
			}
			if held != 0 {
				t.Errorf("%d bytes of records were never dropped", held)
			}
			if kept == 0 || tc.ranges > 0 && kept >= tc.ranges {
				t.Errorf("%d of the %d ranges were recorded; want the cap to refuse some", kept, tc.ranges)
			}
			if res.Script != plain.Script || !reflect.DeepEqual(res.Layers, plain.Layers) {
				t.Errorf("the output differs from a run without records\n--- with ---\n%s\n--- without ---\n%s", res.Script, plain.Script)
			}
			if a, b := engineCounters(res.Stats), engineCounters(plain.Stats); a != b {
				t.Errorf("counters diverge\nwith:    %+v\nwithout: %+v", a, b)
			}
			if !strings.Contains(res.Script, tc.want) {
				t.Errorf("want %q in the output:\n%s", tc.want, res.Script)
			}
		})
	}
}

// TestOutputBudgetTyped asserts the unwrap output cap surfaces as
// ErrOutputBudget with partial progress.
func TestOutputBudgetTyped(t *testing.T) {
	src := layerBomb()
	res, err := New(Options{MaxOutputBytes: 64}).
		DeobfuscateContext(context.Background(), src)
	if !errors.Is(err, ErrOutputBudget) {
		t.Fatalf("want ErrOutputBudget, got %v", err)
	}
	if res == nil || !res.Stats.TimedOut {
		t.Fatalf("want partial result with Stats.TimedOut, got %+v", res)
	}
	if res.Script == "" {
		t.Error("partial result lost the script")
	}
}

// TestOutputBudgetChargesGrowthOnly is a regression test for the
// double-charging bug: the fixpoint loops used to charge the FULL layer
// size against MaxOutputBytes on every changed iteration, so a large
// legitimate script spuriously tripped ErrOutputBudget despite no
// decompression-bomb expansion. Only per-iteration growth may be
// charged; full charges are reserved for deobPayload's nested
// unwrapping where bomb chains actually expand.
func TestOutputBudgetChargesGrowthOnly(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 5000; i++ {
		sb.WriteString("$keep")
		sb.WriteString(string(rune('a' + i%26)))
		sb.WriteString(" = 1\n")
	}
	// One alias so the token phase changes the layer (growth ~10 bytes).
	sb.WriteString("gci .\n")
	src := sb.String()
	// Budget far below the script size but far above the growth.
	res, err := New(Options{MaxOutputBytes: 4096}).
		DeobfuscateContext(context.Background(), src)
	if err != nil {
		t.Fatalf("large benign script tripped the output budget: %v", err)
	}
	if res.Stats.TimedOut {
		t.Fatal("Stats.TimedOut set on a benign run")
	}
	if !strings.Contains(res.Script, "Get-ChildItem") {
		t.Errorf("alias not expanded: %q", res.Script[len(res.Script)-64:])
	}
}

// TestOutputBudgetNoRefundOnShrink asserts a shrinking layer does not
// refund the output budget (growth-only charging must never mint
// headroom for a later bomb).
func TestOutputBudgetNoRefundOnShrink(t *testing.T) {
	env := frontend.NewEnvelope(context.Background(), 100)
	if err := env.ChargeOutput(-1 << 30); err != nil {
		t.Fatalf("negative charge must be free, got %v", err)
	}
	if err := env.ChargeOutput(100); err != nil {
		t.Fatalf("charge within budget failed: %v", err)
	}
	if err := env.ChargeOutput(1); !errors.Is(err, ErrOutputBudget) {
		t.Fatalf("budget refunded by shrink: %v", err)
	}
}

// TestCanceledContext asserts pre-canceled contexts are rejected with
// ErrCanceled before any work.
func TestCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := New(Options{}).DeobfuscateContext(ctx, "write-host hi")
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestParseDepthSurfaces asserts pathological nesting is rejected as
// both ErrInvalidSyntax (it never parsed) and ErrParseDepth (why).
func TestParseDepthSurfaces(t *testing.T) {
	src := strings.Repeat("(", 120_000) + "1" + strings.Repeat(")", 120_000)
	_, err := New(Options{}).Deobfuscate(src)
	if !errors.Is(err, ErrInvalidSyntax) {
		t.Fatalf("want ErrInvalidSyntax, got %v", err)
	}
	if !errors.Is(err, ErrParseDepth) {
		t.Fatalf("want ErrParseDepth in chain, got %v", err)
	}
}

// TestContextFreeWrapperUnchanged asserts Deobfuscate still works as
// the context-free entry point.
func TestContextFreeWrapperUnchanged(t *testing.T) {
	res, err := New(Options{}).Deobfuscate("iex ('write-host '+'hi')")
	if err != nil {
		t.Fatalf("Deobfuscate: %v", err)
	}
	if !strings.Contains(res.Script, "Write-Host") {
		t.Errorf("unexpected output: %q", res.Script)
	}
	if res.Stats.TimedOut {
		t.Error("TimedOut set on an unbounded run")
	}
}
