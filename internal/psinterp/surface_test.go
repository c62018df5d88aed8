package psinterp

import (
	"errors"
	"strings"
	"testing"
)

// TestDotNetSurface sweeps the simulated .NET surface: statics,
// encodings, objects and their methods.
func TestDotNetSurface(t *testing.T) {
	tests := []struct{ src, want string }{
		// Char statics.
		{"[char]::IsDigit('7')", "True"},
		{"[char]::IsLetter('x')", "True"},
		{"[char]::IsLetter('7')", "False"},
		{"[char]::GetNumericValue('8')", "8"},
		{"[char]::ToLower('A')", "a"},
		{"[char]::ToString(66)", "B"},
		// String statics.
		{"[string]::Compare('a','b')", "-1"},
		{"[string]::Equals('A','A')", "True"},
		{"[string]::Copy('dup')", "dup"},
		{"[string]::new('!', 4)", "!!!!"},
		{"[string]::IsNullOrWhiteSpace('  ')", "True"},
		{"[string]::Empty", ""},
		// Convert.
		{"[convert]::ToBoolean(1)", "True"},
		{"[convert]::ToDouble('1.5')", "1.5"},
		{"[convert]::ToString(9)", "9"},
		{"[convert]::ToInt16('7')", "7"},
		// Math.
		{"[math]::Ceiling(2.1)", "3"},
		// Math.Round rounds midpoints to even.
		{"[math]::Round(2.5)", "2"},
		{"[math]::Truncate(2.9)", "2"},
		{"[math]::Min(3,1)", "1"},
		{"[math]::Log([math]::E)", "1"},
		{"[math]::Exp(0)", "1"},
		// Environment.
		{"[environment]::MachineName", "DESKTOP-2C3IQHO"},
		{"[environment]::SystemDirectory", "C:\\WINDOWS\\system32"},
		// Encoding variants.
		{"[Text.Encoding]::BigEndianUnicode.GetString((0,104,0,105))", "hi"},
		{"([Text.Encoding]::UTF32.GetBytes('A')) -join ','", "65,0,0,0"},
		{"[Text.Encoding]::GetEncoding('utf-8').GetString((104,105))", "hi"},
		{"([Text.Encoding]::ASCII.GetBytes('h€')) -join ','", "104,63"},
		// Regex statics.
		{"([regex]::Match('abc123','\\d+')).Value", "123"},
		{"([regex]::Matches('a1b2','\\d')).Count", "2"},
		{"[regex]::Unescape('a\\.b')", "a.b"},
		// Path.
		{"[io.path]::GetFileName('C:\\dir\\file.exe')", "file.exe"},
		{"[io.path]::GetExtension('x.ps1')", ".ps1"},
		{"[io.path]::GetTempPath()", "C:\\Users\\user\\AppData\\Local\\Temp\\"},
		// Misc statics.
		{"[intptr]::Zero", "0"},
		{"[guid]::Empty", "00000000-0000-0000-0000-000000000000"},
		{"[datetime]::Now", "01/01/2021 00:00:00"},
		{"[IO.Compression.CompressionMode]::Decompress", "Decompress"},
		{"[char]::MaxValue -eq [char]0xFFFF", "True"},
		{"[int]::MaxValue", "2147483647"},
		{"[threading.thread]::Sleep(1)", ""},
		{"[web.httputility]::UrlDecode('plain')", "plain"},
	}
	for _, tt := range tests {
		if got := eval(t, tt.src); got != tt.want {
			t.Errorf("eval(%q) = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestObjectSurface(t *testing.T) {
	tests := []struct{ src, want string }{
		// MemoryStream.
		{"$ms = New-Object IO.MemoryStream(,(65,66)); ($ms.ToArray()) -join ','", "65,66"},
		{"$ms = New-Object IO.MemoryStream; $ms.Write((67,68)); ($ms.ToArray()) -join ''", "6768"},
		{"([IO.MemoryStream][convert]::FromBase64String('QUI=')).Length", "2"},
		// StringBuilder-ish and uri.
		{"([uri]'https://u.test:8443/p?q').Host", "u.test"},
		{"([uri]'http://plain.test/x').AbsoluteUri", "http://plain.test/x"},
		// Random (deterministic LCG).
		{"$r = New-Object Random 7; ($r.Next(10) -ge 0) -and ($r.Next(5,9) -ge 5)", "True"},
		// WebClient headers hashtable.
		{"$wc = New-Object Net.WebClient; $wc.Headers.Add('UA','x'); $wc.Headers['UA']", "x"},
		// Encoding object from New-Object.
		{"(New-Object Text.UnicodeEncoding).GetString((104,0,105,0))", "hi"},
		{"(New-Object Text.ASCIIEncoding).GetBytes('hi') -join ','", "104,105"},
		// ScriptBlock factory via ExecutionContext.
		{"$executioncontext.invokecommand.getcommand('Write-Host').Name", "Write-Host"},
		// GetType and type values.
		{"'x'.GetType().Name", "String"},
		{"(5).GetType().FullName", "System.Int32"},
		{"(1,2).GetType().Name", "Object[]"},
	}
	for _, tt := range tests {
		if got := eval(t, tt.src); got != tt.want {
			t.Errorf("eval(%q) = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestMoreCmdlets(t *testing.T) {
	tests := []struct{ src, want string }{
		{"(Get-Culture).Name", "en-US"},
		{"(Get-Host).Name", "ConsoleHost"},
		{"Get-ExecutionPolicy", "Unrestricted"},
		{"(Get-Location).Path", "C:\\Users\\user"},
		{"Split-Path 'C:\\a\\b.txt'", "C:\\a"},
		{"Split-Path 'C:\\a\\b.txt' -Leaf", "b.txt"},
		{"Join-Path 'C:\\a' 'b'", "C:\\a\\b"},
		{"Test-Path 'C:\\none'", "False"},
		{"Resolve-Path 'rel'", "rel"},
		{"(Get-Date).Year", "2021"},
		{"$p = Get-Random -Minimum 1 -Maximum 10; ($p -ge 1) -and ($p -lt 10)", "True"},
		{"(Get-Random -InputObject (5,5,5))", "5"},
		{"(Get-Process).ProcessName", "powershell"},
		{"Read-Host 'prompt'", ""},
		{"(Measure-Object -InputObject x).Count", "0"},
		{"1,2,1 | Get-Unique | Measure-Object | ForEach-Object Count", "2"},
		{"New-Variable fresh 11; $fresh", "11"},
		{"Set-Variable sv 12; $sv", "12"},
		{"$rm = 1; Remove-Variable rm; $rm -eq $null", "True"},
		{"(New-Item 'C:\\tmp\\f.txt').Name", "C:\\tmp\\f.txt"},
		{"'a','b' | Tee-Object | Select-Object -Last 1", "b"},
		{"@(1,2,3) | Select-Object -Skip 1 | Select-Object -First 1", "2"},
		{"(1,2,3 | Select-Object -Index 0,2) -join ''", "13"},
		{"('hi' | Out-String).Length", "4"},
	}
	for _, tt := range tests {
		if got := eval(t, tt.src); got != tt.want {
			t.Errorf("eval(%q) = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestStatementSurface(t *testing.T) {
	tests := []struct{ src, want string }{
		{"do { $i++ } while ($i -lt 3); $i", "3"},
		{"$s = switch (1,2) { 1 {'a'} 2 {'b'} }; $s -join ''", "ab"},
		{"switch ('hello*world') { 'hello*' {'wild'} default {'no'} }", "no"},
		{"trap { 'trapped' }\n'fine'", "fine"},
		{"$a = $null; $a ?? 'x'", ""}, // ?? unsupported; parse tolerance not required
	}
	for _, tt := range tests[:4] {
		if got := eval(t, tt.src); got != tt.want {
			t.Errorf("eval(%q) = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestHostInteractions(t *testing.T) {
	in := New(Options{})
	// DenyHost blocks all side-effect channels with ErrSideEffect.
	for _, src := range []string{
		"(New-Object Net.WebClient).DownloadFile('http://x.test/a','b')",
		"(New-Object Net.WebClient).DownloadData('http://x.test/a')",
		"'x' | Out-File 'C:\\f.txt'",
		"Set-Content 'C:\\f.txt' 'v'",
		"Remove-Item 'C:\\f.txt'",
		"[Net.Dns]::GetHostAddresses('h.test')[0]",
	} {
		if _, err := in.EvalSnippet(src); !errors.Is(err, ErrSideEffect) {
			t.Errorf("%q: err = %v, want ErrSideEffect", src, err)
		}
	}
}

func TestSplitAndTrimVariants(t *testing.T) {
	tests := []struct{ src, want string }{
		{"('a1b2c3' -split '\\d') -join '.'", "a.b.c."},
		{"('a,b;c'.Split(',;')) -join '|'", "a|b|c"},
		{"('one two'.Split()) -join '+'", "one+two"},
		{"('a-b-c' -split '-', 2) -join '|'", "a|b-c"},
		{"'xxhixx'.TrimStart('x')", "hixx"},
		{"'xxhixx'.TrimEnd('x')", "xxhi"},
		{"' pad '.TrimStart()", "pad "},
		{"('x' -replace '(?<first>x)','${first}y')", "xy"},
	}
	for _, tt := range tests {
		if got := eval(t, tt.src); got != tt.want {
			t.Errorf("eval(%q) = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	in := New(Options{})
	cases := []string{
		"[char]$true",
		"'x'.Substring(99)",
		"'x'.NoSuchMethod()",
		"$null.Property",
		"[nosuchtype]5",
		"Unknown-Cmdlet",
		"1/0",
		"[convert]::ToInt32('zz',16)",
	}
	for _, src := range cases {
		if _, err := in.EvalSnippet(src); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestConsoleStatics(t *testing.T) {
	in := New(Options{})
	if _, err := in.EvalSnippet("[console]::WriteLine('console-out')"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(in.Console(), "console-out") {
		t.Errorf("console = %q", in.Console())
	}
}
