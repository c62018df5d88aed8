package jsfront

import (
	"strconv"
	"strings"
	"unicode/utf16"

	"github.com/invoke-deobfuscation/invokedeob/internal/frontend"
	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
)

// maxFoldLen bounds the rendered length of one folded literal, so a
// hostile concat pyramid cannot balloon the document faster than the
// envelope's growth accounting notices.
const maxFoldLen = 1 << 20

// repl is one pending source rewrite: token span [lo, hi] (inclusive
// token indices) replaced by text.
type repl struct {
	lo, hi int
	text   string
}

// decodePhase is the JavaScript frontend's recovery pass: it statically
// folds the string-decoder patterns obfuscators layer over payloads —
// escape-heavy literals, concatenation chains, String.fromCharCode
// calls, and array-join string tables — and splices the decoded
// literals in place. Like every pass, the rewrite is syntax-checked
// through the run's cache and reverted wholesale on regression; the
// driver's fixpoint loop re-runs the pass, so patterns that compose
// (a chain of decoded joins) collapse over successive iterations.
func (r *run) decodePhase(pc *pipeline.PassContext, doc *pipeline.Document) {
	v, err := doc.Tokens()
	if err != nil {
		return
	}
	toks := v.([]Token)
	src := doc.Text()
	sig := significant(toks)
	var repls []repl
	for i := 0; i < len(sig); {
		if r.Env.Violated() {
			return
		}
		if rp, next, ok := r.foldAt(sig, i); ok {
			repls = append(repls, rp)
			i = next
			continue
		}
		i++
	}
	if len(repls) == 0 {
		return
	}
	out := src
	for k := len(repls) - 1; k >= 0; k-- {
		rp := repls[k]
		start := sig[rp.lo].Start
		end := sig[rp.hi].End
		out = out[:start] + rp.text + out[end:]
	}
	r.Stats.PiecesRecovered += len(repls)
	doc.SetText(pc.ValidOrRevert(doc.View(), out, src))
}

// significant filters comments out; every folding pattern is expressed
// over consecutive significant tokens.
func significant(toks []Token) []Token {
	out := make([]Token, 0, len(toks))
	for _, t := range toks {
		if t.Type != Comment {
			out = append(out, t)
		}
	}
	return out
}

// foldAt tries each decoder pattern at sig[i], returning the rewrite
// and the index to resume scanning from.
func (r *run) foldAt(sig []Token, i int) (repl, int, bool) {
	if rp, next, ok := r.foldFromCharCode(sig, i); ok {
		return rp, next, ok
	}
	if rp, next, ok := r.foldArrayJoin(sig, i); ok {
		return rp, next, ok
	}
	if rp, next, ok := r.foldConcat(sig, i); ok {
		return rp, next, ok
	}
	if rp, next, ok := foldEscapes(sig, i); ok {
		return rp, next, ok
	}
	return repl{}, 0, false
}

// tightBefore reports that the token before index i binds tighter than
// `+`, so a fold starting at i would steal that operator's operand
// (`x * 'a' + 'b'`: the first literal belongs to the multiplication).
func tightBefore(sig []Token, i int) bool {
	if i == 0 {
		return false
	}
	p := sig[i-1]
	if p.Type != Punct {
		return false
	}
	switch p.Text {
	case "*", "/", "%", ".", "**", "?.":
		return true
	}
	return false
}

// tightAfter reports that the token after index i binds tighter than
// `+` (`'a' + 'b' * x`: the last literal belongs to the
// multiplication).
func tightAfter(sig []Token, i int) bool {
	if i+1 >= len(sig) {
		return false
	}
	n := sig[i+1]
	if n.Type != Punct {
		return false
	}
	switch n.Text {
	case "*", "/", "%", "**":
		return true
	}
	return false
}

// foldConcat folds a chain of two or more string literals joined by
// binary `+` into one literal. Both ends are precedence-guarded; when
// the trailing context binds tighter the chain is shortened rather
// than abandoned.
func (r *run) foldConcat(sig []Token, i int) (repl, int, bool) {
	if sig[i].Type != Str || tightBefore(sig, i) {
		return repl{}, 0, false
	}
	last := i
	for last+2 < len(sig) && sig[last+1].Type == Punct && sig[last+1].Text == "+" && sig[last+2].Type == Str {
		last += 2
	}
	// The element glued to a tighter-binding trailing operator belongs
	// to that operator, not to the chain.
	if tightAfter(sig, last) {
		last -= 2
	}
	if last <= i {
		return repl{}, 0, false
	}
	var sb strings.Builder
	for j := i; j <= last; j += 2 {
		sb.WriteString(sig[j].Value)
	}
	lit := QuoteJS(sb.String())
	if len(lit) > maxFoldLen {
		return repl{}, 0, false
	}
	return repl{lo: i, hi: last, text: lit}, last + 1, true
}

// foldEscapes re-renders a single string literal whose raw text hides
// its value behind hex/unicode/octal escapes (`"\x68\x69"` → 'hi').
// Literals that are already plain are left untouched, so a converged
// document stops changing and the fixpoint loop terminates.
func foldEscapes(sig []Token, i int) (repl, int, bool) {
	t := sig[i]
	if t.Type != Str || !hasCodeEscape(t.Text) {
		return repl{}, 0, false
	}
	lit := QuoteJS(t.Value)
	if lit == t.Text || len(lit) > maxFoldLen {
		return repl{}, 0, false
	}
	return repl{lo: i, hi: i, text: lit}, i + 1, true
}

// hasCodeEscape reports whether a raw literal contains a character-code
// escape (\x, \u, or legacy octal) worth decoding.
func hasCodeEscape(raw string) bool {
	for j := 0; j+1 < len(raw); j++ {
		if raw[j] != '\\' {
			continue
		}
		switch raw[j+1] {
		case 'x', 'u', '0', '1', '2', '3', '4', '5', '6', '7':
			return true
		case '\\':
			j++
		}
	}
	return false
}

// foldFromCharCode folds String.fromCharCode(<numbers>) with all-static
// arguments into the string the call returns. The code units are
// combined UTF-16 style, so surrogate pairs split across arguments
// reassemble.
func (r *run) foldFromCharCode(sig []Token, i int) (repl, int, bool) {
	if sig[i].Type != Ident || sig[i].Text != "String" || tightBefore(sig, i) {
		return repl{}, 0, false
	}
	j := i + 1
	if j+2 >= len(sig) || sig[j].Type != Punct || sig[j].Text != "." ||
		sig[j+1].Type != Ident || sig[j+1].Text != "fromCharCode" ||
		sig[j+2].Type != Punct || sig[j+2].Text != "(" {
		return repl{}, 0, false
	}
	j += 3
	var units []uint16
	for {
		if j >= len(sig) {
			return repl{}, 0, false
		}
		if sig[j].Type == Punct && sig[j].Text == ")" && len(units) == 0 {
			j++
			break
		}
		n, ok := staticUint16(sig, &j)
		if !ok {
			return repl{}, 0, false
		}
		units = append(units, n)
		if j >= len(sig) || sig[j].Type != Punct {
			return repl{}, 0, false
		}
		if sig[j].Text == "," {
			j++
			continue
		}
		if sig[j].Text == ")" {
			j++
			break
		}
		return repl{}, 0, false
	}
	lit := QuoteJS(string(utf16.Decode(units)))
	if len(lit) > maxFoldLen {
		return repl{}, 0, false
	}
	return repl{lo: i, hi: j - 1, text: lit}, j, true
}

// staticUint16 reads one numeric argument (with optional unary minus,
// rejected: fromCharCode wraps mod 2^16 but negative inputs in the wild
// signal trickery) and advances *j past it.
func staticUint16(sig []Token, j *int) (uint16, bool) {
	t := sig[*j]
	if t.Type != Number {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.ReplaceAll(t.Text, "_", ""), 0, 64)
	if err != nil {
		// Fractional char codes truncate in JS; keep the conservative
		// path and only fold integral arguments.
		return 0, false
	}
	*j++
	return uint16(v % 0x10000), true
}

// foldArrayJoin folds a literal string table joined back together —
// ['a','b','c'].join(”) and friends — into the joined literal. The
// opening bracket is guarded against index positions (`table[...]`).
func (r *run) foldArrayJoin(sig []Token, i int) (repl, int, bool) {
	if sig[i].Type != Punct || sig[i].Text != "[" {
		return repl{}, 0, false
	}
	if i > 0 {
		p := sig[i-1]
		// After a value, `[` is indexing, not an array literal.
		if p.Type == Ident || p.Type == Number || p.Type == Str || p.Type == Template ||
			(p.Type == Punct && (p.Text == ")" || p.Text == "]")) {
			return repl{}, 0, false
		}
	}
	j := i + 1
	var parts []string
	for {
		if j >= len(sig) {
			return repl{}, 0, false
		}
		if sig[j].Type == Punct && sig[j].Text == "]" && len(parts) == 0 {
			break
		}
		if sig[j].Type != Str {
			return repl{}, 0, false
		}
		parts = append(parts, sig[j].Value)
		j++
		if j >= len(sig) || sig[j].Type != Punct {
			return repl{}, 0, false
		}
		if sig[j].Text == "," {
			j++
			continue
		}
		if sig[j].Text == "]" {
			break
		}
		return repl{}, 0, false
	}
	// j is at "]"; require .join(<sep?>).
	if j+3 >= len(sig) || sig[j+1].Type != Punct || sig[j+1].Text != "." ||
		sig[j+2].Type != Ident || sig[j+2].Text != "join" ||
		sig[j+3].Type != Punct || sig[j+3].Text != "(" {
		return repl{}, 0, false
	}
	k := j + 4
	sep := ","
	if k < len(sig) && sig[k].Type == Str {
		sep = sig[k].Value
		k++
	}
	if k >= len(sig) || sig[k].Type != Punct || sig[k].Text != ")" {
		return repl{}, 0, false
	}
	lit := QuoteJS(strings.Join(parts, sep))
	if len(lit) > maxFoldLen {
		return repl{}, 0, false
	}
	return repl{lo: i, hi: k, text: lit}, k + 1, true
}

// run wraps the driver's per-run state for the decode pass.
type run struct {
	*frontend.Run
}
