package psfront

import (
	"strings"

	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
	"github.com/invoke-deobfuscation/invokedeob/internal/pstoken"
)

// span is a byte range within the reformatted source.
type span struct{ start, end int }

// spanCursor answers whether an offset lies in one of a list of spans
// in source order. Offsets asked must not decrease, so spans ending at
// or before one are never looked at again.
type spanCursor []span

func (c *spanCursor) contains(off int) bool {
	for len(*c) > 0 && (*c)[0].end <= off {
		*c = (*c)[1:]
	}
	return len(*c) > 0 && (*c)[0].start <= off
}

// reformatPhase removes random whitespace and re-indents the script
// with a standardized format (paper §III-C). String and comment
// contents are preserved verbatim, including the interior of
// here-strings, which must keep their exact layout. Tokenization of
// the source and of the collapsed intermediate both go through the
// run's cache, as does the final validity check.
func (r *run) reformatPhase(pc *pipeline.PassContext, doc *pipeline.Document) {
	view := doc.View()
	src := doc.Text()
	collapsed := collapseWhitespace(view, src)
	toks, err := viewTokenize(view, collapsed)
	if err != nil {
		doc.SetText(pc.ValidOrRevert(view, collapsed, src))
		return
	}
	literal, multiline := literalSpans(collapsed, toks)
	indented := reindent(collapsed, literal, multiline)
	doc.SetText(pc.ValidOrRevert(view, indented, src))
}

// literalSpans returns, in source order, the spans of the string and
// comment tokens, inside which braces do not nest, and the subset of
// them spanning lines, whose lines stay verbatim.
func literalSpans(src string, toks []pstoken.Token) (literal, multiline []span) {
	for _, t := range toks {
		if t.Type != pstoken.String && t.Type != pstoken.Comment {
			continue
		}
		sp := span{int(t.Start), t.End()}
		literal = append(literal, sp)
		if strings.Contains(t.Text(src), "\n") {
			multiline = append(multiline, sp)
		}
	}
	return literal, multiline
}

// collapseWhitespace reduces runs of spaces and tabs outside strings and
// comments to a single space and trims trailing whitespace.
func collapseWhitespace(view *pipeline.View, src string) string {
	toks, err := viewTokenize(view, src)
	if err != nil {
		return src
	}
	// Protected spans: copy verbatim.
	var protected []span
	for _, t := range toks {
		if t.Type == pstoken.String || t.Type == pstoken.Comment {
			protected = append(protected, span{int(t.Start), t.End()})
		}
	}
	var sb strings.Builder
	sb.Grow(len(src))
	pi := 0
	i := 0
	for i < len(src) {
		if pi < len(protected) && i == protected[pi].start {
			sb.WriteString(src[i:protected[pi].end])
			i = protected[pi].end
			pi++
			continue
		}
		c := src[i]
		if c == ' ' || c == '\t' {
			j := i
			for j < len(src) && (src[j] == ' ' || src[j] == '\t') {
				// Never run into a protected span.
				if pi < len(protected) && j == protected[pi].start {
					break
				}
				j++
			}
			// Trailing whitespace before a newline disappears entirely.
			if j < len(src) && (src[j] == '\n' || src[j] == '\r') {
				i = j
				continue
			}
			if sb.Len() > 0 {
				last := sb.String()[sb.Len()-1]
				if last != '\n' && last != ' ' {
					sb.WriteByte(' ')
				}
			}
			i = j
			continue
		}
		if c == '\r' {
			i++
			continue
		}
		if c == '\n' {
			// Collapse blank-line runs to a single newline.
			if sb.Len() == 0 || strings.HasSuffix(sb.String(), "\n") {
				i++
				continue
			}
			sb.WriteByte('\n')
			i++
			continue
		}
		sb.WriteByte(c)
		i++
	}
	return strings.TrimRight(sb.String(), "\n ") + "\n"
}

// reindent indents each line by brace depth. Braces inside literal
// spans do not affect depth; lines that begin inside a multi-line
// literal are emitted verbatim. Both span lists are in source order.
func reindent(src string, literal, multiline []span) string {
	inLiteral, inMultiline := spanCursor(literal), spanCursor(multiline)
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
		if inMultiline.contains(lineStart) {
			// Interior (or terminator) of a here-string/block comment.
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
		// Update depth from braces outside literals.
		for i := lineStart; i < lineEnd; i++ {
			if inLiteral.contains(i) {
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
