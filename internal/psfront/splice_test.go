package psfront

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
	"github.com/invoke-deobfuscation/invokedeob/internal/psparser"
	"github.com/invoke-deobfuscation/invokedeob/internal/pstoken"
)

func spliceView() *pipeline.View {
	return pipeline.NewCache(0, 0).View(PS{})
}

// applyEditsNaive is the ground-truth text transform: left-to-right
// replacement with no statement mapping or artifact synthesis.
func applyEditsNaive(text string, edits []edit) string {
	var b strings.Builder
	cursor := 0
	for _, e := range edits {
		b.WriteString(text[cursor:e.Start])
		b.WriteString(e.New)
		cursor = e.End
	}
	b.WriteString(text[cursor:])
	return b.String()
}

// checkSpliceGroundTruth applies edits via splice and asserts the
// synthesized artifacts — the token stream and AST splice published
// into the view — are deep-equal to a fresh full retokenize/reparse of
// the spliced text. This is the correctness bar for the incremental
// path: downstream passes must not be able to tell a splice from a
// full reparse.
func checkSpliceGroundTruth(t *testing.T, src string, edits []edit) {
	t.Helper()
	view := spliceView()
	// Warm the view the way the ast phase does before building edits.
	if _, err := viewParse(view, src); err != nil {
		t.Fatalf("source does not parse: %v", err)
	}
	if _, err := viewTokenize(view, src); err != nil {
		t.Fatalf("source does not tokenize: %v", err)
	}

	newText, ok := splice(view, src, edits)
	if !ok {
		t.Fatalf("splice rejected a spliceable batch\nsrc: %q\nedits: %+v", src, edits)
	}
	if want := applyEditsNaive(src, edits); newText != want {
		t.Fatalf("spliced text = %q, want %q", newText, want)
	}

	// The view now answers with the synthesized artifacts; compare them
	// against a cold retokenize/reparse of the same text.
	synthToks, err := viewTokenize(view, newText)
	if err != nil {
		t.Fatalf("synthesized tokens: %v", err)
	}
	freshToks, err := pstoken.Tokenize(newText)
	if err != nil {
		t.Fatalf("fresh tokenize: %v", err)
	}
	if !reflect.DeepEqual(synthToks, freshToks) {
		t.Errorf("synthesized token stream diverges from full retokenize\ntext: %q\nsynth: %+v\nfresh: %+v",
			newText, synthToks, freshToks)
	}

	synthAST, err := viewParse(view, newText)
	if err != nil {
		t.Fatalf("synthesized AST: %v", err)
	}
	freshAST, err := psparser.Parse(newText)
	if err != nil {
		t.Fatalf("fresh parse: %v", err)
	}
	if !reflect.DeepEqual(synthAST, freshAST) {
		t.Errorf("synthesized AST diverges from full reparse\ntext: %q\nsynth: %#v\nfresh: %#v",
			newText, synthAST, freshAST)
	}
}

// findSpan locates a unique substring and returns its extent as an edit.
func findSpan(t *testing.T, src, old, new string) edit {
	t.Helper()
	i := strings.Index(src, old)
	if i < 0 || strings.Index(src[i+1:], old) >= 0 {
		t.Fatalf("substring %q not unique in %q", old, src)
	}
	return edit{Start: i, End: i + len(old), New: new}
}

func TestSpliceMatchesFullReparse(t *testing.T) {
	t.Run("single_statement", func(t *testing.T) {
		src := "$a = 'x' + 'y'\n"
		checkSpliceGroundTruth(t, src, []edit{findSpan(t, src, "'x' + 'y'", "'xy'")})
	})
	t.Run("growth_and_shrink_across_statements", func(t *testing.T) {
		src := "$a = 'aa' + 'bb'\nWrite-Output $a\n$b = [char]104 + [char]105\n"
		checkSpliceGroundTruth(t, src, []edit{
			findSpan(t, src, "'aa' + 'bb'", "'aabb'"),
			findSpan(t, src, "[char]104 + [char]105", "'hi'"),
		})
	})
	t.Run("multiple_edits_one_statement", func(t *testing.T) {
		src := "Write-Output ('a'+'b') ('c'+'d')\n"
		checkSpliceGroundTruth(t, src, []edit{
			findSpan(t, src, "'a'+'b'", "'ab'"),
			findSpan(t, src, "'c'+'d'", "'cd'"),
		})
	})
	t.Run("last_statement_no_trailing_newline", func(t *testing.T) {
		src := "$x = 1\n$y = 'p' + 'q'"
		checkSpliceGroundTruth(t, src, []edit{findSpan(t, src, "'p' + 'q'", "'pq'")})
	})
	t.Run("untouched_statements_shift", func(t *testing.T) {
		src := "$a = 'one' + 'two'\n$b = 2\n$c = 3\nWrite-Output $b $c\n"
		checkSpliceGroundTruth(t, src, []edit{findSpan(t, src, "'one' + 'two'", "'onetwo'")})
	})
}

// TestSpliceRejects pins the fallback conditions: anything the locality
// argument does not cover must report ok=false so the caller takes the
// full-reparse path instead of risking a divergent artifact.
func TestSpliceRejects(t *testing.T) {
	view := spliceView()
	src := "$a = 'x' + 'y'\n$b = 'z'\n"
	if _, ok := splice(view, src, nil); ok {
		t.Error("empty edit batch accepted")
	}
	if _, ok := splice(view, src, []edit{
		{Start: 5, End: 10, New: "'q'"},
		{Start: 8, End: 12, New: "'r'"},
	}); ok {
		t.Error("overlapping edits accepted")
	}
	if _, ok := splice(view, src, []edit{
		{Start: 5, End: len(src) + 3, New: "'q'"},
	}); ok {
		t.Error("out-of-bounds edit accepted")
	}
	// Crossing the boundary between statement 0 and statement 1.
	nl := strings.Index(src, "\n")
	if _, ok := splice(view, src, []edit{
		{Start: nl - 2, End: nl + 3, New: "'q'"},
	}); ok {
		t.Error("statement-boundary-crossing edit accepted")
	}
	// Semicolon-joined statements share a line, so neither is
	// line-isolated and the slice lexing argument does not apply.
	joined := "$a = 'x' + 'y'; $b = 'z'\n"
	e := findSpan(t, joined, "'x' + 'y'", "'xy'")
	if _, ok := splice(spliceView(), joined, []edit{e}); ok {
		t.Error("edit inside a semicolon-joined statement accepted")
	}
}

// TestSpliceSeededSmoke generates deterministic pseudo-random documents
// and edit batches, and holds every accepted splice to the full
// retokenize/reparse ground truth. The generator only emits line-
// isolated single-line statements, so splice must accept every batch;
// a rejection here is a lost fast path, not just a correctness miss.
func TestSpliceSeededSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(20220627))
	letters := "abcdefghij"
	randLit := func() string {
		n := 1 + rng.Intn(6)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(letters[rng.Intn(len(letters))])
		}
		return "'" + b.String() + "'"
	}
	for round := 0; round < 50; round++ {
		nStmts := 2 + rng.Intn(6)
		var b strings.Builder
		type span struct{ start, end int }
		var spans []span // extent of each statement's replaceable expression
		for i := 0; i < nStmts; i++ {
			switch rng.Intn(3) {
			case 0:
				b.WriteString(fmt.Sprintf("$v%d = ", i))
				start := b.Len()
				b.WriteString(randLit() + " + " + randLit())
				spans = append(spans, span{start, b.Len()})
			case 1:
				b.WriteString("Write-Output (")
				start := b.Len()
				b.WriteString(randLit() + "+" + randLit() + "+" + randLit())
				spans = append(spans, span{start, b.Len()})
				b.WriteString(")")
			default:
				b.WriteString(fmt.Sprintf("$u%d = %d", i, rng.Intn(1000)))
				spans = append(spans, span{-1, -1}) // not edited this round
			}
			b.WriteString("\n")
		}
		src := b.String()
		var edits []edit
		for _, s := range spans {
			if s.start < 0 || rng.Intn(2) == 0 {
				continue
			}
			edits = append(edits, edit{Start: s.start, End: s.end, New: randLit()})
		}
		if len(edits) == 0 {
			continue
		}
		t.Run(fmt.Sprintf("round_%02d", round), func(t *testing.T) {
			checkSpliceGroundTruth(t, src, edits)
		})
	}
}
