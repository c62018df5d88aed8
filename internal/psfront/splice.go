package psfront

import (
	"sort"
	"strings"

	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
	"github.com/invoke-deobfuscation/invokedeob/internal/psast"
	"github.com/invoke-deobfuscation/invokedeob/internal/pstoken"
)

// edit is one replacement in a batched splice: the half-open byte span
// [Start, End) of the current text is replaced by New. A batch of edits
// must be non-overlapping; splice sorts them by Start.
type edit struct {
	Start, End int
	New        string
}

// splice applies a batch of non-overlapping edits to text in one pass
// and synthesizes the new text's token stream and AST from
// statement-slice reparses plus offset-shifted reuse of the old
// artifacts, publishing both through the view's cache. The ast phase's
// replacement batch then costs one parse per *touched top-level
// statement* instead of a full-document validation parse, and every
// downstream consumer of the new text (fixpoint convergence check,
// nested-layer statement count, final validity check) hits the cache.
//
// Correctness rests on a locality argument: the tokenizer is
// mode-aware, so a source slice lexes identically standalone and
// in-document only when the document lexer would enter the slice at
// statement-start state with an empty delimiter stack and leave it the
// same way. splice establishes that by construction — edits must fall
// inside top-level statement extents, and a touched statement must be
// bounded by line breaks (or text ends) on both sides. Anything else
// reports ok=false without publishing anything, and the caller falls
// back to the full reparse path, so a rejected splice costs nothing but
// the attempt.
func splice(view *pipeline.View, text string, edits []edit) (string, bool) {
	if len(edits) == 0 {
		return "", false
	}
	sorted := make([]edit, len(edits))
	copy(sorted, edits)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	prevEnd := 0
	for _, e := range sorted {
		if e.Start < prevEnd || e.End < e.Start || e.End > len(text) {
			return "", false // overlapping or out of bounds
		}
		prevEnd = e.End
	}

	// The old text's AST is cached (the ast phase walked it to produce
	// the edits), and the cache parsed it from the text's token stream,
	// so both lookups are hits.
	root, err := viewParse(view, text)
	if err != nil || root.Body == nil {
		return "", false
	}
	toks, err := viewTokenize(view, text)
	if err != nil {
		return "", false
	}

	// Map every edit to the unique top-level statement containing it.
	stmts := root.Body.Statements
	touched := make(map[int][]edit) // statement index -> its edits
	si := 0
	for _, e := range sorted {
		for si < len(stmts) && stmts[si].Extent().End < e.End {
			si++
		}
		if si == len(stmts) {
			return "", false
		}
		ext := stmts[si].Extent()
		if e.Start < ext.Start || e.End > ext.End {
			return "", false // crosses a statement boundary or lies outside all statements
		}
		touched[si] = append(touched[si], e)
	}

	for idx := range touched {
		if !stmtLineIsolated(toks, stmts[idx].Extent()) {
			return "", false
		}
	}

	// Build the new text and, per touched statement, its replacement
	// slice and new start offset. Edits are globally sorted and each is
	// inside a statement, so one cursor pass produces everything.
	var out strings.Builder
	out.Grow(len(text))
	newStart := make(map[int]int, len(touched))
	cursor := 0
	ei := 0
	for idx, st := range stmts {
		if _, ok := touched[idx]; !ok {
			continue
		}
		ext := st.Extent()
		out.WriteString(text[cursor:ext.Start])
		newStart[idx] = out.Len()
		slicePos := ext.Start
		for ei < len(sorted) && sorted[ei].End <= ext.End {
			out.WriteString(text[slicePos:sorted[ei].Start])
			out.WriteString(sorted[ei].New)
			slicePos = sorted[ei].End
			ei = ei + 1
		}
		out.WriteString(text[slicePos:ext.End])
		cursor = ext.End
	}
	out.WriteString(text[cursor:])
	newText := out.String()
	if strings.TrimSpace(newText) == "" || len(newText) > pstoken.MaxSourceLen {
		return "", false // empty, or too long for int32 token offsets
	}

	// Reparse and retokenize each touched statement's new slice. These
	// are the only parser invocations a successful splice performs, and
	// each slice is lexed once: the parse fills its token slot. The
	// slices go through the view so identical replacement texts across
	// layers or iterations parse once.
	type slicePart struct {
		root *psast.ScriptBlock
		toks []pstoken.Token
	}
	parts := make(map[int]slicePart, len(touched))
	for idx := range touched {
		ext := stmts[idx].Extent()
		delta := newStart[idx] - ext.Start
		slice := newText[newStart[idx] : ext.End+delta+sliceGrowth(touched[idx])]
		sr, err := viewParse(view, slice)
		if err != nil || sr.Body == nil || sr.Params != nil || len(sr.Body.Statements) == 0 {
			return "", false
		}
		stoks, err := viewTokenize(view, slice)
		if err != nil || len(stoks) == 0 {
			return "", false
		}
		if stoks[len(stoks)-1].Type == pstoken.LineContinuation {
			return "", false // would merge with the following line
		}
		parts[idx] = slicePart{root: sr, toks: stoks}
	}

	// Synthesize the new AST: untouched statements shift by the
	// cumulative byte delta (sharing structure at delta zero), touched
	// statements are replaced by their slice's freshly parsed
	// statements shifted to their document position.
	var newStmts []psast.Node
	delta := 0
	for idx, st := range stmts {
		if part, ok := parts[idx]; ok {
			base := newStart[idx]
			for _, inner := range part.root.Body.Statements {
				shifted := psast.Shift(inner, base)
				if shifted == nil {
					return "", false
				}
				newStmts = append(newStmts, shifted)
			}
			delta += sliceGrowth(touched[idx])
			continue
		}
		shifted := psast.Shift(st, delta)
		if shifted == nil {
			return "", false
		}
		newStmts = append(newStmts, shifted)
	}
	newRoot := &psast.ScriptBlock{
		Ext:    psast.Extent{Start: 0, End: len(newText)},
		Params: root.Params,
		Body: &psast.NamedBlock{
			Ext:        psast.Extent{Start: 0, End: len(newText)},
			Statements: newStmts,
		},
	}

	// Synthesize the new token stream: old tokens outside touched
	// statements shift by the running delta, slice tokens land at their
	// statement's new start. Lines are recomputed afterwards in one
	// linear scan. The tokens are copies: the cached streams they come
	// from are never modified.
	newToks := make([]pstoken.Token, 0, len(toks))
	delta = 0
	ti := 0
	for idx, st := range stmts {
		part, ok := parts[idx]
		if !ok {
			continue
		}
		ext := st.Extent()
		for ti < len(toks) && int(toks[ti].Start) < ext.Start {
			t := toks[ti]
			t.Start += int32(delta)
			newToks = append(newToks, t)
			ti++
		}
		for _, t := range part.toks {
			t.Start += int32(newStart[idx])
			newToks = append(newToks, t)
		}
		for ti < len(toks) && int(toks[ti].Start) < ext.End {
			ti++ // old tokens of the replaced statement
		}
		delta += sliceGrowth(touched[idx])
	}
	for ; ti < len(toks); ti++ {
		t := toks[ti]
		t.Start += int32(delta)
		newToks = append(newToks, t)
	}
	recomputeLines(newText, newToks)

	// Publish both artifacts; later Tokenize/Parse calls on newText are
	// cache hits, which is what turns O(replacements) full parses into
	// O(touched statements) slice parses.
	view.Insert(newText, newToks, newRoot)
	return newText, true
}

// sliceGrowth is the net byte delta a statement's edit batch produces.
func sliceGrowth(edits []edit) int {
	g := 0
	for _, e := range edits {
		g += len(e.New) - (e.End - e.Start)
	}
	return g
}

// stmtLineIsolated reports whether the statement extent is bounded by
// line breaks: the nearest token before it (if any) and after it (if
// any) are NewLine tokens, and no token straddles either boundary. The
// tokenizer enters a fresh line at statement-start state with an empty
// stack and no attachment, and leaves the statement the same way after
// the following line break — exactly the conditions under which a
// standalone slice tokenization matches the in-document one. `;`-joined
// statements, inline comments before the statement and delimiter spans
// crossing the boundary all fail here and fall back to a full reparse.
func stmtLineIsolated(toks []pstoken.Token, ext psast.Extent) bool {
	// Binary search for the first token starting at or after ext.Start.
	lo := sort.Search(len(toks), func(i int) bool { return int(toks[i].Start) >= ext.Start })
	if lo > 0 {
		prev := toks[lo-1]
		if prev.End() > ext.Start || prev.Type != pstoken.NewLine {
			return false
		}
	}
	hi := sort.Search(len(toks), func(i int) bool { return int(toks[i].Start) >= ext.End })
	if hi > 0 && toks[hi-1].End() > ext.End {
		return false
	}
	if hi < len(toks) && toks[hi].Type != pstoken.NewLine {
		return false
	}
	return true
}

// recomputeLines rewrites every token's Line against text in one
// linear scan, matching the tokenizer's convention (1-based, taken at
// the token's start byte). Tokens must be sorted by Start.
func recomputeLines(text string, toks []pstoken.Token) {
	line, pos := int32(1), 0
	for i := range toks {
		for ; pos < int(toks[i].Start); pos++ {
			if text[pos] == '\n' {
				line++
			}
		}
		toks[i].Line = line
	}
}
