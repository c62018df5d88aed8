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
	// every offset, so when it misses it walks the whole window. Those
	// run last, and usually the vote is decided before they run.
	signals = []signal{
		{regexp.MustCompile(`\$[A-Za-z_{][A-Za-z0-9_]*`), false}, // $-sigil variables
		{regexp.MustCompile("`[a-zA-Z]"), false},                 // backtick ticking
		{regexp.MustCompile(`=>`), true},
		{regexp.MustCompile(`(?i)-(join|split|replace|bxor|enc|encodedcommand|nop)\b`), false},
		{regexp.MustCompile(`(?i)\[(char|int|string|byte|convert|text\.encoding)\]`), false},
		{regexp.MustCompile(`\.(join|split|charCodeAt|charAt)\s*\(`), true},
		{regexp.MustCompile(`\bString\.fromCharCode\b`), true},
		{regexp.MustCompile(`\bfunction\s*\(`), true},
		{regexp.MustCompile(`\b(var|let|const)\s+[A-Za-z_$][A-Za-z0-9_$]*\s*=`), true},
		{regexp.MustCompile(`\b(document|window|console|eval|unescape|atob)\s*[.(]`), true},
		{regexp.MustCompile(`(?i)\bparam\s*\(`), false},
		{regexp.MustCompile(`(?i)\b(Write-Host|Invoke-Expression|iex|New-Object|Get-ChildItem|Start-Process|Invoke-WebRequest)\b`), false},
	}
)

// signal is one vote: a pattern and the language it speaks for.
type signal struct {
	re *regexp.Regexp
	js bool
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
// signals match src, and how many signals it matched to decide. It
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
		hit := s.re.MatchString(src)
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
