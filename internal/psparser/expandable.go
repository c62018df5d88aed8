package psparser

import (
	"strings"

	"github.com/invoke-deobfuscation/invokedeob/internal/psast"
	"github.com/invoke-deobfuscation/invokedeob/internal/pstoken"
)

// parseExpandableString splits a double-quoted (or double here-string)
// token into literal fragments, variable references and embedded
// subexpressions, each with absolute extents.
func (p *parser) parseExpandableString(t pstoken.Token) psast.Node {
	var body string
	var bodyStart int
	raw := p.text(t)
	if t.Kind == pstoken.DoubleHereString {
		nl := strings.IndexByte(raw, '\n')
		body = t.Content
		bodyStart = int(t.Start) + nl + 1
	} else {
		body = raw[1 : len(raw)-1]
		bodyStart = int(t.Start) + 1
	}
	node := &psast.ExpandableString{Ext: p.tokExt(t), Raw: body}
	node.Parts = p.scanExpandableParts(body, bodyStart, t.Kind == pstoken.DoubleHereString)
	return node
}

func (p *parser) scanExpandableParts(body string, bodyStart int, hereString bool) []psast.Node {
	var parts []psast.Node
	var lit strings.Builder
	litStart := 0
	flush := func(end int) {
		if lit.Len() == 0 {
			return
		}
		parts = append(parts, &psast.StringConstant{
			Ext:   p.ext(bodyStart+litStart, bodyStart+end),
			Value: lit.String(),
		})
		lit.Reset()
	}
	i := 0
	for i < len(body) {
		c := body[i]
		switch c {
		case '`':
			i = writeEscape(&lit, body, i)
			continue
		case '"':
			// A double-quoted body holds quotes only as doubled "", which
			// stand for one; a here-string keeps every quote.
			lit.WriteByte('"')
			i++
			if !hereString && i < len(body) && body[i] == '"' {
				i++
			}
		case '$':
			if i+1 < len(body) && body[i+1] == '(' {
				end, ok := pstoken.FindMatchingParen(body, i+1)
				if !ok {
					lit.WriteByte(c)
					i++
					continue
				}
				flush(i)
				inner := body[i+2 : end]
				sub := &psast.SubExpression{Ext: p.ext(bodyStart+i, bodyStart+end+1)}
				if sb, err := parseAt(inner, p.offset+bodyStart+i+2, p.depth); err == nil && sb.Body != nil {
					sub.Statements = sb.Body.Statements
				}
				parts = append(parts, sub)
				i = end + 1
				litStart = i
				continue
			}
			if i+1 < len(body) && body[i+1] == '{' {
				close := strings.IndexByte(body[i+2:], '}')
				if close < 0 {
					lit.WriteByte(c)
					i++
					continue
				}
				flush(i)
				name := body[i+2 : i+2+close]
				parts = append(parts, &psast.VariableExpression{
					Ext:  p.ext(bodyStart+i, bodyStart+i+2+close+1),
					Name: name,
				})
				i += 2 + close + 1
				litStart = i
				continue
			}
			if j := scanVariableName(body, i+1); j > i+1 {
				flush(i)
				parts = append(parts, &psast.VariableExpression{
					Ext:  p.ext(bodyStart+i, bodyStart+j),
					Name: body[i+1 : j],
				})
				i = j
				litStart = i
				continue
			}
			lit.WriteByte(c)
			i++
		default:
			lit.WriteByte(c)
			i++
		}
	}
	flush(len(body))
	return parts
}

// scanVariableName returns the end index of an unbraced variable name
// starting at i (after the $), or i if none.
func scanVariableName(s string, i int) int {
	if i < len(s) {
		switch s[i] {
		case '$', '?', '^', '_':
			// $_ may continue as $_.x only for the special var itself.
			if s[i] == '_' {
				j := i
				for j < len(s) && isIdentByte(s[j]) {
					j++
				}
				return j
			}
			return i + 1
		}
	}
	j := i
	for j < len(s) && (isIdentByte(s[j]) || s[j] == ':') {
		j++
	}
	// A trailing colon is not part of the name unless it is a drive
	// reference like env:USERNAME.
	for j > i && s[j-1] == ':' {
		j--
	}
	// Re-extend across scope/drive prefixes such as env:NAME.
	if j < len(s) && s[j] == ':' && j+1 < len(s) && isIdentByte(s[j+1]) {
		k := j + 1
		for k < len(s) && isIdentByte(s[k]) {
			k++
		}
		return k
	}
	return j
}

func isIdentByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' || b == '_'
}

// writeEscape writes the character the backtick at body[i] stands for
// and returns the index after the escape. Double-quoted strings and
// @"…"@ here-strings process the same escapes; a backtick ending the
// body escapes nothing and stays.
func writeEscape(lit *strings.Builder, body string, i int) int {
	if i+1 >= len(body) {
		lit.WriteByte('`')
		return i + 1
	}
	if esc, ok := escapeValue(rune(body[i+1])); ok {
		lit.WriteRune(esc)
	} else {
		lit.WriteByte(body[i+1])
	}
	return i + 2
}

// unescapeHereString is the value of a @"…"@ here-string body without
// variables: its backtick escapes resolved, its quotes kept.
func unescapeHereString(body string) string {
	if strings.IndexByte(body, '`') < 0 {
		return body
	}
	var lit strings.Builder
	for i := 0; i < len(body); {
		if body[i] == '`' {
			i = writeEscape(&lit, body, i)
			continue
		}
		lit.WriteByte(body[i])
		i++
	}
	return lit.String()
}

// escapeValue resolves a backtick escape character.
func escapeValue(r rune) (rune, bool) {
	switch r {
	case '0':
		return 0, true
	case 'a':
		return 7, true
	case 'b':
		return 8, true
	case 'e':
		return 27, true
	case 'f':
		return 12, true
	case 'n':
		return '\n', true
	case 'r':
		return '\r', true
	case 't':
		return '\t', true
	case 'v':
		return 11, true
	}
	return 0, false
}
