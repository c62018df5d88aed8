package obfuscate

import (
	"strings"

	"github.com/invoke-deobfuscation/invokedeob/internal/psnames"
	"github.com/invoke-deobfuscation/invokedeob/internal/pstoken"
)

// tokenRewriter is the rewrite the token techniques call. It is a
// variable so the equivalence test can check every call against the
// reference reverse splice.
var tokenRewriter = rewriteTokens

// rewriteTokens applies fn to each token of src and rewrites it; fn
// gets the token and its source text and returns the replacement text
// and whether to apply it. fn is called from the last token to the
// first, because the techniques draw random numbers inside it and
// their output must stay that of splicing each replacement in from the
// last token to the first; the replacements are then written front to
// back in one copy of src, which gives the same bytes because pstoken
// emits tokens in source order without overlap. changed reports
// whether any replacement differs from the token's text.
func rewriteTokens(src string, fn func(tok pstoken.Token, text string) (string, bool)) (out string, changed bool, err error) {
	toks, err := pstoken.Tokenize(src)
	if err != nil {
		return "", false, err
	}
	type replacement struct {
		tok  pstoken.Token
		text string
	}
	var repls []replacement // last token first
	for i := len(toks) - 1; i >= 0; i-- {
		text := toks[i].Text(src)
		if repl, ok := fn(toks[i], text); ok && repl != text {
			repls = append(repls, replacement{toks[i], repl})
		}
	}
	if len(repls) == 0 {
		return src, false, nil
	}
	var sb strings.Builder
	sb.Grow(len(src))
	copied := 0
	for i := len(repls) - 1; i >= 0; i-- {
		sb.WriteString(src[copied:repls[i].tok.Start])
		sb.WriteString(repls[i].text)
		copied = repls[i].tok.End()
	}
	sb.WriteString(src[copied:])
	return sb.String(), true, nil
}

// tickSafe reports whether a backtick may precede c inside a bare word
// without changing meaning: letters outside the escape set
// (`0`a`b`e`f`n`r`t`u`v).
func tickSafe(c byte) bool {
	if !(c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z') {
		return false
	}
	switch c {
	case '0', 'a', 'b', 'e', 'f', 'n', 'r', 't', 'u', 'v':
		return false
	}
	return true
}

// insertTicks sprinkles backticks into a bare word.
func (o *Obfuscator) insertTicks(word string) string {
	var sb strings.Builder
	for i := 0; i < len(word); i++ {
		c := word[i]
		if i > 0 && tickSafe(c) && o.rng.Intn(3) == 0 {
			sb.WriteByte('`')
		}
		sb.WriteByte(c)
	}
	return sb.String()
}

// ticking inserts meaningless backticks into command and member names.
func (o *Obfuscator) ticking(src string) (string, error) {
	out, changed, err := tokenRewriter(src, func(tok pstoken.Token, text string) (string, bool) {
		switch tok.Type {
		case pstoken.Command:
			if psnames.IsAlias(tok.Content) && len(tok.Content) <= 3 {
				return o.insertTicks(text), true
			}
			return o.insertTicks(text), true
		case pstoken.Member:
			return o.insertTicks(text), true
		case pstoken.CommandArgument:
			if isLetterWord(tok.Content) {
				return o.insertTicks(text), true
			}
		}
		return "", false
	})
	if err != nil {
		return "", err
	}
	if !changed {
		return "", notApplicable("no command, member or bare-word tokens to tick")
	}
	return out, nil
}

func isLetterWord(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '.' || r == '-') {
			return false
		}
	}
	return true
}

// whitespacing inserts random runs of spaces and tabs between tokens.
func (o *Obfuscator) whitespacing(src string) (string, error) {
	toks, err := pstoken.Tokenize(src)
	if err != nil {
		return "", err
	}
	out := src
	lastGap := -1
	for i := len(toks) - 1; i > 0; i-- {
		cur := toks[i]
		prev := toks[i-1]
		if cur.Type == pstoken.NewLine || prev.Type == pstoken.NewLine {
			continue
		}
		// Only widen gaps that already exist so attached syntax
		// (members, indexes) is never broken.
		if prev.End() >= int(cur.Start) {
			continue
		}
		lastGap = int(cur.Start)
		if o.rng.Intn(3) == 0 {
			continue
		}
		pad := strings.Repeat(" ", o.randRange(2, 6))
		if o.rng.Intn(4) == 0 {
			pad += "\t"
		}
		out = out[:cur.Start] + pad + out[cur.Start:]
	}
	if out == src {
		if lastGap < 0 {
			return "", notApplicable("no inter-token gaps to widen")
		}
		// Guarantee at least one widened gap when any gap exists.
		out = out[:lastGap] + strings.Repeat(" ", o.randRange(3, 6)) + out[lastGap:]
	}
	return out, nil
}

// flipCase randomizes the case of letters in s.
func (o *Obfuscator) flipCase(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z':
			if o.rng.Intn(2) == 0 {
				r = r - 'a' + 'A'
			}
		case r >= 'A' && r <= 'Z':
			if o.rng.Intn(2) == 0 {
				r = r - 'A' + 'a'
			}
		}
		sb.WriteRune(r)
	}
	return sb.String()
}

// randomCase randomizes case of case-insensitive tokens.
func (o *Obfuscator) randomCase(src string) (string, error) {
	out, changed, err := tokenRewriter(src, func(tok pstoken.Token, text string) (string, bool) {
		switch tok.Type {
		case pstoken.Command, pstoken.Keyword, pstoken.Member,
			pstoken.CommandParameter, pstoken.Variable, pstoken.TypeLiteral,
			pstoken.Operator:
			return o.flipCase(text), true
		case pstoken.CommandArgument:
			// Only type-name arguments (Net.WebClient) are
			// case-insensitive; flipping ordinary bare words would
			// change the string value they pass.
			if strings.Contains(tok.Content, ".") && isLetterWord(tok.Content) {
				return o.flipCase(text), true
			}
		}
		return "", false
	})
	if err != nil {
		return "", err
	}
	if !changed {
		return "", notApplicable("no case-insensitive tokens")
	}
	return out, nil
}

// protectedVarNames must never be renamed: PowerShell automatic
// variables (about_Automatic_Variables — renaming $PSScriptRoot or
// $MyInvocation silently changes what the script reads) and preference
// variables (about_Preference_Variables — assigning to a renamed
// $ErrorActionPreference no longer alters behaviour).
var protectedVarNames = map[string]bool{
	"_": true, "$": true, "?": true, "^": true, "args": true,
	"input": true, "this": true, "true": true, "false": true,
	"null": true, "error": true, "matches": true, "pshome": true,
	"home": true, "pwd": true, "host": true, "executioncontext": true,
	"psversiontable": true, "shellid": true, "pid": true, "ofs": true,
	// Automatic variables.
	"psscriptroot": true, "pscommandpath": true, "psboundparameters": true,
	"psitem": true, "myinvocation": true, "pscmdlet": true,
	"psculture": true, "psuiculture": true, "psedition": true,
	"lastexitcode": true, "stacktrace": true, "nestedpromptlevel": true,
	"env": true, "foreach": true, "switch": true, "sender": true,
	"psdebugcontext": true, "pssenderinfo": true, "profile": true,
	// Preference variables.
	"erroractionpreference": true, "progresspreference": true,
	"verbosepreference": true, "warningpreference": true,
	"debugpreference": true, "informationpreference": true,
	"confirmpreference": true, "whatifpreference": true,
}

// randomName renames user variables and functions to random
// consonant-heavy identifiers.
func (o *Obfuscator) randomName(src string) (string, error) {
	toks, err := pstoken.Tokenize(src)
	if err != nil {
		return "", err
	}
	renames := make(map[string]string)
	nameFor := func(name string) (string, bool) {
		lower := strings.ToLower(name)
		if protectedVarNames[lower] || strings.Contains(lower, ":") {
			return "", false
		}
		if r, ok := renames[lower]; ok {
			return r, true
		}
		r := o.randomIdentifier()
		renames[lower] = r
		return r, true
	}
	out := src
	changed := false
	for i := len(toks) - 1; i >= 0; i-- {
		tok := toks[i]
		if tok.Type != pstoken.Variable || strings.HasPrefix(tok.Text(src), "@") {
			continue
		}
		newName, ok := nameFor(tok.Content)
		if !ok {
			continue
		}
		out = out[:tok.Start] + "$" + newName + out[tok.End():]
		changed = true
	}
	if !changed {
		return "", notApplicable("no renameable user variables")
	}
	return out, nil
}

// reverseAliases maps canonical cmdlets to usable aliases.
var reverseAliases = map[string]string{
	"invoke-expression": "IEX",
	"invoke-webrequest": "iwr",
	"invoke-restmethod": "irm",
	"write-output":      "echo",
	"foreach-object":    "%",
	"where-object":      "?",
	"select-object":     "select",
	"sort-object":       "sort",
	"get-childitem":     "gci",
	"get-content":       "gc",
	"set-content":       "sc",
	"get-process":       "ps",
	"start-process":     "saps",
	"start-sleep":       "sleep",
	"remove-item":       "del",
	"copy-item":         "cp",
	"move-item":         "mv",
	"get-location":      "pwd",
	"set-location":      "cd",
	"get-variable":      "gv",
	"set-variable":      "sv",
	"invoke-command":    "icm",
	"get-command":       "gcm",
	"get-alias":         "gal",
	"measure-object":    "measure",
	"clear-host":        "cls",
	"format-table":      "ft",
	"format-list":       "fl",
	"get-member":        "gm",
	"import-module":     "ipmo",
}

// alias replaces canonical cmdlet names with their aliases.
func (o *Obfuscator) alias(src string) (string, error) {
	out, changed, err := tokenRewriter(src, func(tok pstoken.Token, _ string) (string, bool) {
		if tok.Type != pstoken.Command {
			return "", false
		}
		a, ok := reverseAliases[strings.ToLower(tok.Content)]
		if !ok {
			return "", false
		}
		return a, true
	})
	if err != nil {
		return "", err
	}
	if !changed {
		return "", notApplicable("no canonical cmdlet names with known aliases")
	}
	return out, nil
}
