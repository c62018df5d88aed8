package psfront

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/frontend"
	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
	"github.com/invoke-deobfuscation/invokedeob/internal/psnames"
	"github.com/invoke-deobfuscation/invokedeob/internal/psparser"
)

// runASTPhase runs one ast-phase pass over src on a fresh cache, as one
// iteration of the driver's fixpoint does, and returns the layer's text
// afterwards and the pass's reverts.
func runASTPhase(t *testing.T, src string) (string, int) {
	t.Helper()
	r := &run{Run: &frontend.Run{
		Opts:      &frontend.Options{MaxIterations: 10, StepBudget: 500_000},
		Blocklist: psnames.DefaultBlocklist(),
		Stats:     &frontend.Stats{},
		Env:       frontend.NewEnvelope(context.Background(), 0),
	}}
	doc := pipeline.NewDocument(src, newView())
	pc := &pipeline.PassContext{Doc: doc}
	r.astPhase(pc, doc, 0)
	return doc.Text(), pc.Reverts
}

// checkRebuild holds one replacement batch to want: the rebuilt layer is
// want byte for byte, it parses, and nothing was reverted.
func checkRebuild(t *testing.T, src, want string) {
	t.Helper()
	got, reverts := runASTPhase(t, src)
	if got != want {
		t.Errorf("rebuilt layer\n%q\nwant\n%q", got, want)
	}
	if reverts != 0 {
		t.Errorf("%d reverts, want 0", reverts)
	}
	if _, err := psparser.Parse(got); err != nil {
		t.Errorf("rebuilt layer does not parse: %v", err)
	}
}

// TestRebuildBatch pins how one replacement batch rebuilds its layer:
// each recovered piece lands in its node's place and every byte outside
// the replaced nodes is kept (the paper's in-place splicing, §III-B5),
// whatever the statements around the pieces look like.
func TestRebuildBatch(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"single statement", "$v = 'ab' + 'cd'\n", "$v = 'abcd'\n"},
		{"growth and shrink across statements",
			"$a = 'x' + 'y'\n$b = 42\n$c = [char]104 + [char]105 + [char]33\n",
			"$a = 'xy'\n$b = 42\n$c = 'hi!'\n"},
		{"several pieces in one statement",
			"Write-Output ('a'+'b') ('c' + 'd')\n",
			"Write-Output ('ab') ('cd')\n"},
		{"no trailing newline", "$v = 'a' + 'b'", "$v = 'ab'"},
		{"untouched statements between touched ones",
			"$a = 'p' + 'q'\n$n = 1\nfunction F { 'keep' }\n$b = 'r' + 's'\n",
			"$a = 'pq'\n$n = 1\nfunction F { 'keep' }\n$b = 'rs'\n"},
		{"crlf line ends", "$u = 123\r\n$v = 'a' + 'b'\r\n", "$u = 123\r\n$v = 'ab'\r\n"},
		{"piece continued over lines", "Write-Output ('a' +\n  'b')\n$w = 1\n", "Write-Output ('ab')\n$w = 1\n"},
		{"statements joined by semicolons",
			"$v = 'ab'+'cd'; $w = 'e' + 'f'\n",
			"$v = 'abcd'; $w = 'ef'\n"},
		{"trailing comment", "Write-Output ('a'+'b'+'c') # note\n", "Write-Output ('abc') # note\n"},
		{"block comment before the statement", "<# c #> $v = 'ab' + 'cd'\n", "<# c #> $v = 'abcd'\n"},
		{"inline comment between joined statements",
			"Write-Host ('he'+'llo') <# inline #> ; $y = [char]104 + [char]105\nWrite-Host $y\n",
			"Write-Host ('hello') <# inline #> ; $y = 'hi'\nWrite-Host 'hi'\n"},
		{"nested layer with joined statements",
			"IEX (\"Write-Host ('a'+'b'); Write-Host ('c'+'d')\")\n",
			"Write-Host ('ab'); Write-Host ('cd')\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkRebuild(t, tc.src, tc.want)
		})
	}
}

// TestRebuildSeeded runs the ast phase over deterministic pseudo-random
// layers and holds each rebuilt layer to the text the generator expects:
// every concatenation of string literals folded into one literal in
// place, and every other byte kept. The layers mix what a statement-level
// rewrite would have to special-case: statements joined by semicolons,
// CRLF line ends, trailing and block comments, comment-only lines,
// statements with no piece, and irregular spacing.
func TestRebuildSeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(20220627))
	pick := func(options ...string) string { return options[rng.Intn(len(options))] }
	word := func() string {
		const letters = "abcdefghij"
		b := make([]byte, 1+rng.Intn(6))
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		return string(b)
	}
	for round := 0; round < 50; round++ {
		var src, want strings.Builder
		emit := func(s, w string) {
			src.WriteString(s)
			want.WriteString(w)
		}
		pieces := 0
		n := 2 + rng.Intn(7)
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				emit("<# b #> ", "<# b #> ")
			}
			switch rng.Intn(4) {
			case 0:
				a, b := word(), word()
				pre := fmt.Sprintf("$v%d = ", i)
				emit(pre+"'"+a+"'"+pick("+", " + ", "  +\t")+"'"+b+"'", pre+"'"+a+b+"'")
				pieces++
			case 1:
				a, b, c := word(), word(), word()
				plus := pick("+", " + ")
				emit("Write-Output ('"+a+"'"+plus+"'"+b+"'"+plus+"'"+c+"')", "Write-Output ('"+a+b+c+"')")
				pieces++
			case 2:
				s := fmt.Sprintf("$u%d = %d", i, rng.Intn(1000))
				emit(s, s)
			default:
				s := "# note " + word()
				emit(s, s)
				emit("\n", "\n") // a comment runs to the end of its line
				continue
			}
			if i == n-1 && rng.Intn(3) == 0 {
				break // no trailing separator
			}
			sep := pick("\n", "; ", ";", "\r\n", " ;\n", " # c\n")
			emit(sep, sep)
		}
		if pieces == 0 {
			a, b := word(), word()
			emit("\n$w = '"+a+"' + '"+b+"'\n", "\n$w = '"+a+b+"'\n")
		}
		t.Run(fmt.Sprintf("round_%02d", round), func(t *testing.T) {
			checkRebuild(t, src.String(), want.String())
		})
	}
}
