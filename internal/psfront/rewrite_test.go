package psfront

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/core"
	"github.com/invoke-deobfuscation/invokedeob/internal/corpus"
	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
	"github.com/invoke-deobfuscation/invokedeob/internal/pstoken"
)

// newView returns a view onto a fresh parse cache.
func newView() *pipeline.View {
	return pipeline.NewCache(0, 0).View(PS{})
}

// textPassInputs are the scripts the text-pass reference tests run on:
// the 29 PowerShell golden inputs of the core equivalence suite, the
// deterministic 24-sample corpus (obfuscated and clean), and a few
// shapes the corpus lacks: here-strings, block comments, braces inside
// literals and deep nesting.
func textPassInputs(t *testing.T) map[string]string {
	t.Helper()
	inputs := make(map[string]string)
	files, err := filepath.Glob(filepath.Join("..", "core", "testdata", "*.ps1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no golden inputs found under ../core/testdata")
	}
	for _, f := range files {
		raw, rerr := os.ReadFile(f)
		if rerr != nil {
			t.Fatal(rerr)
		}
		inputs["testdata_"+filepath.Base(f)] = string(raw)
	}
	for i, s := range corpus.Generate(corpus.Config{Seed: 20220627, N: 24, MaxL3Layers: 3}) {
		inputs[fmt.Sprintf("golden_corpus_%02d", i)] = s.Source
	}
	for i, s := range corpus.Generate(corpus.Config{Seed: 20220627, N: 24}) {
		inputs[fmt.Sprintf("corpus_%02d", i)] = s.Source
		inputs[fmt.Sprintf("corpus_%02d_clean", i)] = s.Original
	}
	inputs["here-strings and comments"] = "function F`Oo($A) {\n  <# a { block\n comment #>\n" +
		"  $S = @'\n  { verbatim\n'@\n  $T = @\"\n  $A }\n\"@\n  wRiTe-HoSt \"x`y{\" $S $T # }\n}\n" +
		"if ($true) {\n\tFoo 'a' ; GCI .\n}\n"
	inputs["deep nesting"] = strings.Repeat("if ($X) {\n", 40) + "IEX $X\n" + strings.Repeat("}\n", 40)
	return inputs
}

// reverseSplice is the paper's token rewrite (§III-A), kept as the
// reference for rewriteTokens: each replacement is spliced into the
// whole text, from the last token to the first so that earlier offsets
// stay valid.
func reverseSplice(src string, toks []pstoken.Token, repl func(pstoken.Token, string) (string, bool)) (string, int) {
	out, n := src, 0
	for i := len(toks) - 1; i >= 0; i-- {
		tok := toks[i]
		text, ok := repl(tok, tok.Text(src))
		if !ok {
			continue
		}
		out = out[:tok.Start] + text + out[tok.End():]
		n++
	}
	return out, n
}

// TestRewriteTokensMatchesReverseSplice checks that the forward token
// rewrite produces the reverse splice's bytes and count, with the
// token pass's and the rename pass's replacement functions.
func TestRewriteTokensMatchesReverseSplice(t *testing.T) {
	normalized, renamed := 0, 0
	for name, src := range textPassInputs(t) {
		toks, err := pstoken.Tokenize(src)
		if err != nil {
			continue
		}
		// Rename every collected name, random or not, so the rename
		// replacement fires on every input that has names.
		varMap := make(map[string]string)
		for i, n := range collectVariableNames(toks) {
			varMap[n] = fmt.Sprintf("var%d", i)
		}
		root, _ := docAST(pipeline.NewDocument(src, newView()))
		funcMap := make(map[string]string)
		for i, n := range collectFunctionNames(root) {
			funcMap[n] = fmt.Sprintf("func%d", i)
		}
		for _, pass := range []struct {
			name  string
			repl  func(pstoken.Token, string) (string, bool)
			count *int
		}{
			{"token", normalizeToken(toks), &normalized},
			{"rename", renameToken(varMap, funcMap, stringVarRefs(root, varMap)), &renamed},
		} {
			got, gotN := rewriteTokens(src, toks, pass.repl)
			want, wantN := reverseSplice(src, toks, pass.repl)
			if got != want || gotN != wantN {
				t.Errorf("%s, %s pass: forward rewrite differs from the reverse splice (%d vs %d tokens)\n--- got ---\n%s\n--- want ---\n%s",
					name, pass.name, gotN, wantN, got, want)
			}
			*pass.count += gotN
		}
	}
	if normalized == 0 || renamed == 0 {
		t.Fatalf("vacuous comparison: %d tokens normalized, %d renamed", normalized, renamed)
	}
}

// referenceReindent is reindent with every span list scanned in full at
// every offset, kept as the reference for the cursor version.
func referenceReindent(src string, literal, multiline []span) string {
	inSpans := func(spans []span, off int) bool {
		for _, s := range spans {
			if off >= s.start && off < s.end {
				return true
			}
		}
		return false
	}
	var sb strings.Builder
	depth := 0
	lineStart := 0
	for lineStart <= len(src) {
		lineEnd := strings.IndexByte(src[lineStart:], '\n')
		last := false
		if lineEnd < 0 {
			lineEnd = len(src)
			last = true
		} else {
			lineEnd += lineStart
		}
		line := src[lineStart:lineEnd]
		if inSpans(multiline, lineStart) {
			sb.WriteString(line)
		} else {
			trimmed := strings.TrimLeft(line, " \t")
			closers := 0
			for _, r := range trimmed {
				if r == '}' || r == ')' {
					closers++
					continue
				}
				break
			}
			indentLevel := depth - closers
			if indentLevel < 0 {
				indentLevel = 0
			}
			if trimmed != "" {
				sb.WriteString(strings.Repeat("    ", indentLevel))
			}
			sb.WriteString(trimmed)
		}
		for i := lineStart; i < lineEnd; i++ {
			if inSpans(literal, i) {
				continue
			}
			switch src[i] {
			case '{':
				depth++
			case '}':
				if depth > 0 {
					depth--
				}
			}
		}
		if last {
			break
		}
		sb.WriteByte('\n')
		lineStart = lineEnd + 1
	}
	return sb.String()
}

// TestReindentMatchesReference checks the cursor reindent against the
// full-scan reference on the collapsed text reformat re-indents.
func TestReindentMatchesReference(t *testing.T) {
	multilines := 0
	for name, src := range textPassInputs(t) {
		view := newView()
		collapsed := collapseWhitespace(view, src)
		toks, err := viewTokenize(view, collapsed)
		if err != nil {
			continue
		}
		literal, multiline := literalSpans(collapsed, toks)
		multilines += len(multiline)
		got := reindent(collapsed, literal, multiline)
		if want := referenceReindent(collapsed, literal, multiline); got != want {
			t.Errorf("%s: reindent differs from the reference\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
		}
	}
	if multilines == 0 {
		t.Fatal("no input has a multi-line literal")
	}
}

// TestTokenPassAllocationsLinear bounds how the token pass's allocation
// grows with the script: on four times the lines, a token-only run may
// allocate at most six times the bytes. A rewrite that splices each
// token into the whole text grows about sixteen-fold.
func TestTokenPassAllocationsLinear(t *testing.T) {
	d := core.New(core.Options{
		Lang:            "powershell",
		DisableASTPhase: true,
		DisableRename:   true,
		DisableReformat: true,
		MaxIterations:   1,
	})
	allocated := func(lines int) uint64 {
		src := strings.Repeat("wRiTe-HoSt 'a'\n", lines)
		best := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := d.Deobfuscate(src)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%d lines: %v", lines, err)
			}
			if res.Stats.TokensNormalized != lines {
				t.Fatalf("%d lines: %d tokens normalized, want one per line", lines, res.Stats.TokensNormalized)
			}
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	small, large := allocated(1000), allocated(4000)
	if ratio := float64(large) / float64(small); ratio > 6 {
		t.Errorf("4x the lines allocated %.1fx the bytes (%d vs %d), want at most 6x", ratio, large, small)
	}
}
