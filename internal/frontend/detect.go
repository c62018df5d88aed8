package frontend

import (
	"regexp"
	"strings"
)

// detectWindow bounds how much of the script detection inspects; the
// discriminating signals of both languages appear early, and hostile
// megabyte inputs should not pay a full scan before admission.
const detectWindow = 64 << 10

// Signal patterns. Detection is a cheap vote, not a parser: each
// regexp is anchored on word boundaries so substrings inside string
// literals rarely dominate, and the caller treats the result as a
// default the user can always override with an explicit lang.
var (
	jsShebang = regexp.MustCompile(`^#!.*\b(node|deno|bun|qjs)\b`)
	psShebang = regexp.MustCompile(`^#!.*\b(pwsh|powershell)\b`)

	// signals holds six PowerShell and six JavaScript signals, cheapest
	// first. A pattern that begins with a literal is found by substring
	// scan; one that begins with \b or a case-folded word is matched at
	// every offset, so when it misses it walks the whole window. The
	// case-sensitive ones list the literals one of which every match
	// contains, and a text that holds none of them skips the regexp.
	signals = []signal{
		{regexp.MustCompile(`\$[A-Za-z_{][A-Za-z0-9_]*`), false, nil}, // $-sigil variables
		{regexp.MustCompile("`[a-zA-Z]"), false, nil},                 // backtick ticking
		{regexp.MustCompile(`=>`), true, nil},
		{regexp.MustCompile(`(?i)-(join|split|replace|bxor|enc|encodedcommand|nop)\b`), false, nil},
		{regexp.MustCompile(`(?i)\[(char|int|string|byte|convert|text\.encoding)\]`), false, nil},
		{regexp.MustCompile(`\.(join|split|charCodeAt|charAt)\s*\(`), true, []string{".join", ".split", ".charAt", ".charCodeAt"}},
		{regexp.MustCompile(`\bString\.fromCharCode\b`), true, []string{"String.fromCharCode"}},
		{regexp.MustCompile(`\bfunction\s*\(`), true, []string{"function"}},
		{regexp.MustCompile(`\b(var|let|const)\s+[A-Za-z_$][A-Za-z0-9_$]*\s*=`), true, []string{"var", "let", "const"}},
		{regexp.MustCompile(`\b(document|window|console|eval|unescape|atob)\s*[.(]`), true, []string{"document", "window", "console", "eval", "unescape", "atob"}},
		{regexp.MustCompile(`(?i)\bparam\s*\(`), false, nil},
		{regexp.MustCompile(`(?i)\b(Write-Host|Invoke-Expression|iex|New-Object|Get-ChildItem|Start-Process|Invoke-WebRequest)\b`), false, nil},
	}
)

// signal is one vote: a pattern, the language it speaks for, and, when
// not nil, the literals one of which every match of the pattern
// contains.
type signal struct {
	re   *regexp.Regexp
	js   bool
	lits []string
}

// match reports whether the signal's pattern matches src. It tries the
// regexp only when one of the required literals occurs: a text that
// lacks them all cannot match, so the answer is the regexp's.
func (s signal) match(src string) bool {
	if s.lits == nil {
		return s.re.MatchString(src)
	}
	for _, lit := range s.lits {
		if strings.Contains(src, lit) {
			return s.re.MatchString(src)
		}
	}
	return false
}

// Detect guesses the language of src with cheap lexical heuristics and
// returns the canonical frontend name. It never fails: with no
// discriminating signal it returns "powershell", the platform's
// historical default, so every pre-multi-language caller keeps its
// behavior.
func Detect(src string) string {
	if len(src) > detectWindow {
		src = src[:detectWindow]
	}
	head := strings.TrimLeft(src, " \t\r\n\uFEFF")
	if jsShebang.MatchString(head) {
		return "javascript"
	}
	if psShebang.MatchString(head) {
		return "powershell"
	}
	if js, _ := vote(src); js {
		return "javascript"
	}
	return "powershell"
}

// vote reports whether strictly more JavaScript than PowerShell
// signals match src, and how many signals it tried to decide. It
// stops as soon as the signals not yet matched cannot change the
// outcome, so the answer is always that of matching all twelve.
func vote(src string) (js bool, tried int) {
	psHits, jsHits, psLeft, jsLeft := 0, 0, 0, 0
	for _, s := range signals {
		if s.js {
			jsLeft++
		} else {
			psLeft++
		}
	}
	for _, s := range signals {
		if jsHits > psHits+psLeft || jsHits+jsLeft <= psHits {
			break
		}
		tried++
		hit := s.match(src)
		if s.js {
			jsLeft--
			if hit {
				jsHits++
			}
		} else {
			psLeft--
			if hit {
				psHits++
			}
		}
	}
	return jsHits > psHits, tried
}

// DetectFrontend resolves Detect's guess through the registry.
func DetectFrontend(src string) (Frontend, error) {
	return Get(Detect(src))
}
