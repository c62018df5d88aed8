package psfront

import (
	"regexp"
	"strings"

	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
	"github.com/invoke-deobfuscation/invokedeob/internal/psnames"
	"github.com/invoke-deobfuscation/invokedeob/internal/pstoken"
)

// tokenPhase recovers token-level (L1) obfuscation: ticking, random
// case, aliases and parameter casing. The paper rewrites tokens from
// the last to the first so earlier offsets stay valid (§III-A);
// rewriteTokens produces the same bytes in one forward pass. The token
// stream and the rewrite's validity check both come from the run's
// parse cache via doc.
func (r *run) tokenPhase(pc *pipeline.PassContext, doc *pipeline.Document) {
	toks, err := docTokens(doc)
	if err != nil {
		return
	}
	src := doc.Text()
	out, changed := rewriteTokens(src, toks, normalizeToken(toks))
	if changed == 0 {
		return
	}
	r.Stats.TokensNormalized += changed
	doc.SetText(pc.ValidOrRevert(doc.View(), out, src))
}

// rewriteTokens replaces every token for which repl reports true with
// repl's text and returns the result with the number of tokens
// replaced; repl gets the token and its source text. It copies src
// once, front to back, between the original token offsets. Because
// pstoken emits tokens in source order and never overlapping, the
// bytes equal those of splicing each replacement in from the last
// token to the first.
func rewriteTokens(src string, toks []pstoken.Token, repl func(tok pstoken.Token, text string) (string, bool)) (string, int) {
	var sb strings.Builder
	n, copied := 0, 0
	for _, tok := range toks {
		text, ok := repl(tok, tok.Text(src))
		if !ok {
			continue
		}
		if n == 0 {
			sb.Grow(len(src))
		}
		sb.WriteString(src[copied:tok.Start])
		sb.WriteString(text)
		copied = tok.End()
		n++
	}
	if n == 0 {
		return src, 0
	}
	sb.WriteString(src[copied:])
	return sb.String(), n
}

// normalizeToken returns the token phase's replacement over toks: the
// canonical text of a token the phase rewrites, when it differs from
// the source text raw. The token after a break or continue keyword is
// a loop label and stays as written: a label named like an alias
// (sort) lexes as a command name.
func normalizeToken(toks []pstoken.Token) func(pstoken.Token, string) (string, bool) {
	var labels map[int32]bool
	for i := 1; i < len(toks); i++ {
		if prev := toks[i-1]; prev.Type == pstoken.Keyword &&
			(strings.EqualFold(prev.Content, "break") || strings.EqualFold(prev.Content, "continue")) {
			if labels == nil {
				labels = make(map[int32]bool)
			}
			labels[toks[i].Start] = true
		}
	}
	return func(tok pstoken.Token, raw string) (string, bool) {
		if labels[tok.Start] {
			return "", false
		}
		text, ok := canonicalToken(tok, raw)
		return text, ok && text != raw
	}
}

// typeNameArg matches bare-word arguments that are .NET type names
// (net.webclient), safe to lower-case.
var typeNameArg = regexp.MustCompile(`^[A-Za-z]+(\.[A-Za-z]+)+$`)

// canonicalToken computes the normalized text for a token whose source
// text is raw, reporting whether the token type is one the phase
// rewrites.
func canonicalToken(tok pstoken.Token, raw string) (string, bool) {
	switch tok.Type {
	case pstoken.Command:
		name := tok.Content // ticks already stripped
		if alias := psnames.ResolveAlias(name); alias != "" {
			return alias, true
		}
		return psnames.CanonicalCommandCase(name), true
	case pstoken.Keyword:
		return strings.ToLower(tok.Content), true
	case pstoken.CommandParameter:
		text := strings.ToLower(pstoken.StripTicks(raw))
		return text, true
	case pstoken.Member:
		return strings.ToLower(tok.Content), true
	case pstoken.Variable:
		return canonicalVariableToken(tok, raw), true
	case pstoken.TypeLiteral:
		return "[" + strings.ToLower(tok.Content) + "]", true
	case pstoken.Operator:
		// Dash operators get canonical lower case; ticked operators are
		// impossible, so only case changes.
		if strings.HasPrefix(raw, "-") && len(raw) > 1 {
			return strings.ToLower(raw), true
		}
		return raw, true
	case pstoken.CommandArgument:
		text := raw
		if tok.HadTicks {
			text = pstoken.StripTicks(text)
		}
		if typeNameArg.MatchString(text) {
			// Type-name arguments (New-Object Net.WebClient) are
			// case-insensitive; base64 and paths are left alone because
			// they contain digits or other characters.
			text = strings.ToLower(text)
		}
		return text, true
	case pstoken.String:
		if tok.Kind == pstoken.DoubleQuoted {
			return normalizeDoubleQuoted(raw), true
		}
		return raw, true
	default:
		return raw, false
	}
}

// canonicalVariableToken lower-cases a variable reference, whose
// source text is text, while preserving its syntactic form ($name,
// ${name}, $scope:name).
func canonicalVariableToken(tok pstoken.Token, text string) string {
	if strings.HasPrefix(text, "@") {
		return "@" + strings.ToLower(text[1:])
	}
	if strings.HasPrefix(text, "${") {
		return "${" + strings.ToLower(tok.Content) + "}"
	}
	return "$" + strings.ToLower(strings.TrimPrefix(text, "$"))
}

// meaningfulEscapes are the backtick escapes with semantic value inside
// double-quoted strings; any other backtick is ticking noise.
var meaningfulEscapes = map[byte]bool{
	'0': true, 'a': true, 'b': true, 'e': true, 'f': true, 'n': true,
	'r': true, 't': true, 'v': true, 'u': true, '`': true, '\'': true,
	'"': true, '$': true,
}

// normalizeDoubleQuoted removes cosmetic backticks from a double-quoted
// string literal, keeping real escapes.
func normalizeDoubleQuoted(raw string) string {
	if !strings.Contains(raw, "`") {
		return raw
	}
	var sb strings.Builder
	sb.Grow(len(raw))
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c == '`' && i+1 < len(raw) && !meaningfulEscapes[raw[i+1]] {
			continue
		}
		if c == '`' && i+1 < len(raw) {
			sb.WriteByte(c)
			i++
			sb.WriteByte(raw[i])
			continue
		}
		sb.WriteByte(c)
	}
	return sb.String()
}
