package psinterp

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

// eval evaluates src with default options and returns the unwrapped
// result rendered as a string.
func eval(t *testing.T, src string) string {
	t.Helper()
	in := New(Options{})
	out, err := in.EvalSnippet(src)
	if err != nil {
		t.Fatalf("EvalSnippet(%q): %v", src, err)
	}
	return ToString(Unwrap(out))
}

func TestOperators(t *testing.T) {
	tests := []struct{ src, want string }{
		// Arithmetic.
		{"1 + 2", "3"},
		{"7 / 2", "3.5"},
		{"6 / 2", "3"},
		{"7 % 3", "1"},
		{"2 * 3.5", "7"},
		{"10 - 4", "6"},
		{"-5 + 1", "-4"},
		// String operators.
		{"'a' + 'b'", "ab"},
		{"'a' + 5", "a5"},
		{"5 + '3'", "8"},
		{"'ab' * 3", "ababab"},
		{"'a','b' + 'c'", "a b c"},
		// Comparison (case-insensitive by default).
		{"'ABC' -eq 'abc'", "True"},
		{"'ABC' -ceq 'abc'", "False"},
		{"2 -gt 1", "True"},
		{"'2' -eq 2", "True"},
		{"1 -ne 2", "True"},
		{"'b' -gt 'a'", "True"},
		// Logical.
		{"$true -and $false", "False"},
		{"$true -or $false", "True"},
		{"$true -xor $true", "False"},
		{"-not $false", "True"},
		{"!0", "True"},
		// Bitwise.
		{"6 -band 3", "2"},
		{"6 -bor 3", "7"},
		{"6 -bxor 3", "5"},
		{"'0x4B' -bxor 0", "75"},
		// A trailing hex digit d must not be taken as the decimal
		// type suffix: 0x6d is 109, not 0x6.
		{"'0x6D' -bxor 0", "109"},
		{"0x6d", "109"},
		{"0x6dl", "109"},
		{"1 -shl 4", "16"},
		{"16 -shr 2", "4"},
		{"-bnot 0", "-1"},
		// Like/match/replace/split/join.
		{"'hello' -like 'h*o'", "True"},
		{"'hello' -like 'H?LLO'", "True"},
		{"'hello' -notlike 'x*'", "True"},
		{"'hello' -match 'l+'", "True"},
		{"'hello' -replace 'l','L'", "heLLo"},
		{"'a1b2' -replace '\\d',''", "ab"},
		{"('a,b,c' -split ',') -join '-'", "a-b-c"},
		{"'x' -in 'x','y'", "True"},
		{"'x','y' -contains 'Y'", "True"},
		{"'x','y' -notcontains 'z'", "True"},
		// Range and indexing.
		{"(1..4) -join ''", "1234"},
		{"(4..1) -join ''", "4321"},
		{"'abcdef'[2]", "c"},
		{"'abcdef'[-1]", "f"},
		{"('abcdef'[1,3,5]) -join ''", "bdf"},
		{"('abc'[2..0]) -join ''", "cba"},
		{"(1,2,3)[1]", "2"},
		// Format operator.
		{"'{0}-{1}' -f 'a','b'", "a-b"},
		{"'{1}{0}' -f 'b','a'", "ab"},
		{"'{0:X2}' -f 10", "0A"},
		{"'{0:D4}' -f 42", "0042"},
		{"'{0,5}' -f 'ab'", "   ab"},
		{"'{0,-4}|' -f 'ab'", "ab  |"},
		{"'{{literal}}' -f 0", "{literal}"},
		// Type operators.
		{"'s' -is [string]", "True"},
		{"5 -is [int]", "True"},
		{"5 -isnot [string]", "True"},
		{"'5' -as [int]", "5"},
		// Unary join/split.
		{"-join ('a','b','c')", "abc"},
		{"(-split 'a  b  c') -join ','", "a,b,c"},
	}
	for _, tt := range tests {
		if got := eval(t, tt.src); got != tt.want {
			t.Errorf("eval(%q) = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestStringMethods(t *testing.T) {
	tests := []struct{ src, want string }{
		{"'AbC'.ToUpper()", "ABC"},
		{"'AbC'.ToLower()", "abc"},
		{"'hello'.Replace('l','L')", "heLLo"},
		{"'hello'.Substring(1)", "ello"},
		{"'hello'.Substring(1,3)", "ell"},
		{"'  x  '.Trim()", "x"},
		{"'xxayyaxx'.Trim('x')", "ayya"},
		{"'hello'.StartsWith('he')", "True"},
		{"'hello'.EndsWith('lo')", "True"},
		{"'hello'.Contains('ll')", "True"},
		{"'hello'.IndexOf('l')", "2"},
		{"'hello'.LastIndexOf('l')", "3"},
		{"('a b c'.Split(' ')) -join '|'", "a|b|c"},
		{"('hello'.ToCharArray()) -join '-'", "h-e-l-l-o"},
		{"'5'.PadLeft(3,'0')", "005"},
		{"'5'.PadRight(3,'*')", "5**"},
		{"'hello'.Remove(2,2)", "heo"},
		{"'heo'.Insert(2,'ll')", "hello"},
		{"'hello'.Length", "5"},
		{"'hello'.Chars(1)", "e"},
		{"'-encodedcommand'.StartsWith('-enc')", "True"},
		{"'x'.CompareTo('x')", "0"},
		{"(6).ToString('X2')", "06"},
		{"(255).ToString()", "255"},
	}
	for _, tt := range tests {
		if got := eval(t, tt.src); got != tt.want {
			t.Errorf("eval(%q) = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestStaticMethods(t *testing.T) {
	tests := []struct{ src, want string }{
		{"[convert]::ToInt32('ff',16)", "255"},
		{"[convert]::ToInt32('101',2)", "5"},
		{"[convert]::ToInt32('17',8)", "15"},
		{"[convert]::ToChar(65)", "A"},
		{"[convert]::ToString(255,16)", "ff"},
		{"[char]::ConvertFromUtf32(9731)", "☃"},
		{"[char]::ToUpper('a')", "A"},
		{"[string]::Join('-',('a','b'))", "a-b"},
		{"[string]::Format('{0}!', 'hi')", "hi!"},
		{"[string]::Concat('a','b','c')", "abc"},
		{"[string]::IsNullOrEmpty('')", "True"},
		{"[math]::Abs(-3)", "3"},
		{"[math]::Floor(3.9)", "3"},
		{"[math]::Pow(2,10)", "1024"},
		{"[math]::Max(3,7)", "7"},
		{"[math]::Sqrt(49)", "7"},
		{"[regex]::Replace('aaa','a+','X')", "X"},
		{"[regex]::Escape('a.b')", "a\\.b"},
		{"([regex]::Split('a1b2c','\\d')) -join ''", "abc"},
		{"[environment]::GetEnvironmentVariable('username')", "user"},
		{"[environment]::NewLine -eq \"`r`n\"", "True"},
		{"[io.path]::Combine('C:\\a','b')", "C:\\a\\b"},
		{"[int]::Parse('42')", "42"},
		{"[byte]::MaxValue", "255"},
	}
	for _, tt := range tests {
		if got := eval(t, tt.src); got != tt.want {
			t.Errorf("eval(%q) = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestCasts(t *testing.T) {
	tests := []struct{ src, want string }{
		{"[char]65", "A"},
		{"[int]'42'", "42"},
		{"[int]3.7", "4"},
		// .NET rounds midpoints to even.
		{"[int]2.5", "2"},
		{"[int]3.5", "4"},
		{"[int]-2.5", "-2"},
		{"[int]'2.5'", "2"},
		{"5/2 -as [int]", "2"},
		{"[char]66.5", "B"},
		{"[math]::Round(2.5)", "2"},
		{"[math]::Round(3.5)", "4"},
		{"[math]::Round(-2.5)", "-2"},
		{"[string]39", "39"},
		{"[byte]200", "200"},
		{"([char[]]'abc') -join ','", "a,b,c"},
		{"([byte[]](65,66)) -join ','", "65,66"},
		{"[bool]1", "True"},
		{"[bool]''", "False"},
		{"[double]'2.5'", "2.5"},
		{"([int[]]('1','2')) -join '+'", "1+2"},
	}
	for _, tt := range tests {
		if got := eval(t, tt.src); got != tt.want {
			t.Errorf("eval(%q) = %q, want %q", tt.src, got, tt.want)
		}
	}
	if _, err := New(Options{}).EvalSnippet("[char]'toolong'"); err == nil {
		t.Error("[char]'toolong' should fail")
	}
	if _, err := New(Options{}).EvalSnippet("[byte]300"); err == nil {
		t.Error("[byte]300 should fail")
	}
}

func TestEncodings(t *testing.T) {
	tests := []struct{ src, want string }{
		{"[Text.Encoding]::Unicode.GetString([Convert]::FromBase64String('aABpAA=='))", "hi"},
		{"[Text.Encoding]::UTF8.GetString([Convert]::FromBase64String('aGk='))", "hi"},
		{"[Text.Encoding]::ASCII.GetString((104,105))", "hi"},
		{"[Convert]::ToBase64String([Text.Encoding]::UTF8.GetBytes('hi'))", "aGk="},
		{"([Text.Encoding]::Unicode.GetBytes('hi')) -join ','", "104,0,105,0"},
	}
	for _, tt := range tests {
		if got := eval(t, tt.src); got != tt.want {
			t.Errorf("eval(%q) = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestControlFlowEval(t *testing.T) {
	tests := []struct{ src, want string }{
		{"if (1 -gt 0) { 'yes' } else { 'no' }", "yes"},
		{"if (0) { 'yes' } elseif (1) { 'elseif' } else { 'no' }", "elseif"},
		{"$s=0; foreach ($i in 1..4) { $s += $i }; $s", "10"},
		{"$i=0; while ($i -lt 3) { $i++ }; $i", "3"},
		{"$i=0; do { $i++ } until ($i -ge 2); $i", "2"},
		{"$o=''; for ($i=0; $i -lt 3; $i++) { $o += $i }; $o", "012"},
		{"switch (2) { 1 {'one'} 2 {'two'} default {'other'} }", "two"},
		{"switch ('zz') { 1 {'one'} default {'other'} }", "other"},
		{"$x = 1; $y = if ($x) { 'a' } else { 'b' }; $y", "a"},
		{"foreach ($i in 1..5) { if ($i -eq 3) { break }; $i }", "1 2"},
		{"$(foreach ($i in 1..4) { if ($i % 2) { continue }; $i }) -join ''", "24"},
		{"try { throw 'boom' } catch { 'caught' }", "caught"},
		{"try { 'ok' } finally { }", "ok"},
		{"function f($a,$b) { $a + $b }; f 2 3", "5"},
		{"function f { return 7; 9 }; f", "7"},
		{"function f { $args[1] }; f 'x' 'y'", "y"},
		{"function double($n=4) { $n * 2 }; double", "8"},
		{"function g($p) { $p }; g -p 'named'", "named"},
	}
	for _, tt := range tests {
		if got := eval(t, tt.src); got != tt.want {
			t.Errorf("eval(%q) = %q, want %q", tt.src, got, tt.want)
		}
	}
}

// TestIncrementValue pins ++ and -- as PowerShell runs them: where the
// value is used, postfix gives the old value and prefix the new one; a
// statement of either outputs nothing.
func TestIncrementValue(t *testing.T) {
	tests := []struct{ src, want string }{
		{"$a = 1; $c = $a++; \"$c $a\"", "1 2"},
		{"$a = 1; $c = ++$a; \"$c $a\"", "2 2"},
		{"$a = 5; $c = $a--; \"$c $a\"", "5 4"},
		{"$a = 5; $c = --$a; \"$c $a\"", "4 4"},
		{"$a = 1; ($a++) + 10", "11"},
		{"$b = 'x','y','z'; $i = 0; $b[$i++] + $b[$i++] + $i", "xy2"},
		{"$a = 1; $a++", ""},
		{"$a = 1; ++$a; $a++; $a", "3"},
		{"$a = 1; $($a++; $a)", "2"},
		{"$a = 1; $a++ | ForEach-Object { 'ran' }; $a", "2"},
	}
	for _, tt := range tests {
		if got := eval(t, tt.src); got != tt.want {
			t.Errorf("eval(%q) = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestPipelineCmdlets(t *testing.T) {
	tests := []struct{ src, want string }{
		{"(1..5 | where-object { $_ -gt 3 }) -join ','", "4,5"},
		{"(1..3 | foreach-object { $_ * 2 }) -join ','", "2,4,6"},
		{"('b','a','c' | sort-object) -join ''", "abc"},
		{"('b','a','c' | sort-object -descending) -join ''", "cba"},
		{"(1..10 | select-object -first 3) -join ','", "1,2,3"},
		{"(1..10 | select-object -last 2) -join ','", "9,10"},
		{"(1,1,2,2,3 | select-object -unique) -join ''", "123"},
		{"(1..5 | measure-object).Count", "5"},
		{"'a','b' | out-string -stream | select-object -first 1", "a"},
		{"(write-output 1 2 3) -join ','", "1,2,3"},
		{"('x' | out-null) -eq $null", "True"},
		{"( 'keep','drop' | select-string 'ke' ) -join ''", "keep"},
		{"(1,2,3 | foreach-object { $_ } | where-object { $_ -ne 2 }) -join ''", "13"},
		{"('abc' | foreach-object ToUpper)", "ABC"},
		{"('aa','bbb' | foreach-object Length) -join ','", "2,3"},
	}
	for _, tt := range tests {
		if got := eval(t, tt.src); got != tt.want {
			t.Errorf("eval(%q) = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestVariablesAndScopes(t *testing.T) {
	tests := []struct{ src, want string }{
		{"$a = 5; $a", "5"},
		{"$a = 1; $a += 2; $a", "3"},
		{"$a = 'x'; $a *= 3; $a", "xxx"},
		{"$a,$b = 1,2; $b", "2"},
		{"$h = @{k='v'}; $h['k']", "v"},
		{"$h = @{k='v'}; $h.k", "v"},
		{"$arr = 1,2,3; $arr[1] = 9; $arr -join ''", "193"},
		{"$env:custom = 'val'; $env:custom", "val"},
		{"$global:g = 3; $g", "3"},
		{"function f { $script:v = 9 }; f; $v", "9"},
		{"$true", "True"},
		{"$null -eq $null", "True"},
		{"$pshome[4]", "i"},
	}
	for _, tt := range tests {
		if got := eval(t, tt.src); got != tt.want {
			t.Errorf("eval(%q) = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestScriptBlocks(t *testing.T) {
	tests := []struct{ src, want string }{
		{"$sb = { 40 + 2 }; $sb.Invoke() -join ''", "42"},
		{"$sb = { $args[0] * 2 }; ($sb.Invoke(21)) -join ''", "42"},
		{"& { 'direct' }", "direct"},
		{"$sb = [scriptblock]::Create('1+1'); ($sb.Invoke()) -join ''", "2"},
		{"{ 'text' }.ToString()", " 'text' "},
		{"icm { 2 + 2 }", "4"},
	}
	for _, tt := range tests {
		if got := eval(t, tt.src); got != tt.want {
			t.Errorf("eval(%q) = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestInvokeExpressionNesting(t *testing.T) {
	got := eval(t, `iex "iex ""'deep'"""`)
	if got != "deep" {
		t.Errorf("nested iex = %q", got)
	}
}

func TestExpandableStrings(t *testing.T) {
	tests := []struct{ src, want string }{
		{`$n='world'; "hello $n"`, "hello world"},
		{`"sum: $(1+2)"`, "sum: 3"},
		{`"env $env:username"`, "env user"},
		{"\"tick`ttab\"", "tick\ttab"},
		{"\"literal `$n\"", "literal $n"},
		{`$a=@{k=1}; "val $($a['k'])"`, "val 1"},
	}
	for _, tt := range tests {
		if got := eval(t, tt.src); got != tt.want {
			t.Errorf("eval(%q) = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestCompressionRoundTrip(t *testing.T) {
	for _, algorithm := range []string{"deflate", "gzip"} {
		data := Bytes("some payload for " + algorithm)
		packed, err := compress(algorithm, data)
		if err != nil {
			t.Fatalf("compress(%s): %v", algorithm, err)
		}
		plain, err := decompress(algorithm, packed, 1<<20)
		if err != nil {
			t.Fatalf("decompress(%s): %v", algorithm, err)
		}
		if string(plain) != string(data) {
			t.Errorf("%s roundtrip = %q", algorithm, plain)
		}
	}
}

func TestDeflateStreamScript(t *testing.T) {
	packed, err := compress("deflate", Bytes("write-host fromstream"))
	if err != nil {
		t.Fatal(err)
	}
	b64 := eval(t, "[convert]::ToBase64String(("+joinBytes(packed)+"))")
	src := "(New-Object IO.StreamReader((New-Object IO.Compression.DeflateStream([IO.MemoryStream][Convert]::FromBase64String('" +
		b64 + "'),[IO.Compression.CompressionMode]::Decompress)),[Text.Encoding]::UTF8)).ReadToEnd()"
	if got := eval(t, src); got != "write-host fromstream" {
		t.Errorf("stream decode = %q", got)
	}
}

func joinBytes(b Bytes) string {
	parts := make([]string, len(b))
	for i, v := range b {
		parts[i] = ToString(int64(v))
	}
	return strings.Join(parts, ",")
}

func TestSecureStringRoundTrip(t *testing.T) {
	key := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	enc, err := EncryptSecureString("secret script", key)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := DecryptSecureString(enc, key)
	if err != nil {
		t.Fatal(err)
	}
	if plain != "secret script" {
		t.Errorf("roundtrip = %q", plain)
	}
	if _, err := DecryptSecureString(enc, []byte("wrong key 123456")); err == nil {
		t.Error("wrong key should fail")
	}
	// Full script path.
	src := "[Runtime.InteropServices.Marshal]::PtrToStringAuto([Runtime.InteropServices.Marshal]::SecureStringToBSTR((ConvertTo-SecureString -String '" +
		enc + "' -Key (1..16))))"
	if got := eval(t, src); got != "secret script" {
		t.Errorf("script roundtrip = %q", got)
	}
}

func TestSecureStringPropertyRoundTrip(t *testing.T) {
	f := func(plain string, keySeed uint8) bool {
		key := make([]byte, 16)
		for i := range key {
			key[i] = keySeed + byte(i) + 1
		}
		enc, err := EncryptSecureString(plain, key)
		if err != nil {
			return false
		}
		got, err := DecryptSecureString(enc, key)
		return err == nil && got == plain
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStrictVars(t *testing.T) {
	in := New(Options{StrictVars: true})
	_, err := in.EvalSnippet("$undefined + 1")
	var uv *UnknownVariableError
	if !errors.As(err, &uv) {
		t.Errorf("err = %v, want UnknownVariableError", err)
	}
	lenient := New(Options{})
	out, err := lenient.EvalSnippet("$undefined -eq $null")
	if err != nil || ToString(Unwrap(out)) != "True" {
		t.Errorf("lenient undefined = %v, %v", out, err)
	}
}

func TestBlocklist(t *testing.T) {
	in := New(Options{Blocklist: map[string]bool{"start-sleep": true}})
	_, err := in.EvalSnippet("Start-Sleep 5")
	if !errors.Is(err, ErrBlocked) {
		t.Errorf("err = %v, want ErrBlocked", err)
	}
	// Alias resolves to the blocked command.
	_, err = in.EvalSnippet("sleep 5")
	if !errors.Is(err, ErrBlocked) {
		t.Errorf("alias err = %v, want ErrBlocked", err)
	}
}

func TestBudget(t *testing.T) {
	in := New(Options{MaxSteps: 1000})
	_, err := in.EvalSnippet("while ($true) { $x = 1 }")
	if !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
	in = New(Options{})
	if _, err := in.EvalSnippet("1..999999999"); !errors.Is(err, ErrBudget) {
		t.Errorf("huge range err = %v, want ErrBudget", err)
	}
}

func TestDenyHostBlocksNetwork(t *testing.T) {
	in := New(Options{})
	_, err := in.EvalSnippet("(New-Object Net.WebClient).DownloadString('http://x.test/')")
	if !errors.Is(err, ErrSideEffect) {
		t.Errorf("err = %v, want ErrSideEffect", err)
	}
}

func TestGetVariableDiscovery(t *testing.T) {
	// The Invoke-Obfuscation trick: (GV '*mdr*').Name[3,11,2] -join ''.
	got := eval(t, "((gv '*mdr*').name[3,11,2]) -join ''")
	if !strings.EqualFold(got, "iex") {
		t.Errorf("gv trick = %q, want iex", got)
	}
}

func TestGetCommandDiscovery(t *testing.T) {
	got := eval(t, "(gcm *ke-Exp*).Name")
	if got != "Invoke-Expression" {
		t.Errorf("gcm trick = %q", got)
	}
	got = eval(t, "(gal iex).Definition")
	if got != "Invoke-Expression" {
		t.Errorf("gal = %q", got)
	}
}

func TestEncodedCommandHelpers(t *testing.T) {
	if !IsEncodedCommandParameter("-e") || !IsEncodedCommandParameter("-EnCoDedCoMmAnD") {
		t.Error("prefix matching broken")
	}
	// powershell.exe special-cases "-ec" outside prefix matching.
	if !IsEncodedCommandParameter("-ec") || !IsEncodedCommandParameter("-eC") {
		t.Error("-ec special case broken")
	}
	if IsEncodedCommandParameter("-x") || IsEncodedCommandParameter("-") {
		t.Error("false positive")
	}
	dec, err := DecodeEncodedCommand("dwByAGkAdABlAC0AaABvAHMAdAAgAGgAaQA=")
	if err != nil || dec != "write-host hi" {
		t.Errorf("decode = %q, %v", dec, err)
	}
}

func TestPowerShellNestedExecution(t *testing.T) {
	in := New(Options{})
	out, err := in.EvalSnippet("powershell -NoP -e dwByAGkAdABlAC0AbwB1AHQAcAB1AHQAIAA3ADcA")
	if err != nil {
		t.Fatal(err)
	}
	if ToString(Unwrap(out)) != "77" {
		t.Errorf("nested powershell = %v", out)
	}
}

func TestConsoleCapture(t *testing.T) {
	in := New(Options{})
	if _, err := in.EvalSnippet("write-host 'to console'"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(in.Console(), "to console") {
		t.Errorf("console = %q", in.Console())
	}
}

// TestToStringToNumberProperties checks conversion invariants with
// random inputs.
func TestToStringToNumberProperties(t *testing.T) {
	roundTrip := func(n int64) bool {
		v, err := ToNumber(ToString(n))
		return err == nil && v == n
	}
	if err := quick.Check(roundTrip, nil); err != nil {
		t.Error(err)
	}
	boolTotal := func(s string) bool {
		// ToBool is total for strings.
		_ = ToBool(s)
		return true
	}
	if err := quick.Check(boolTotal, nil); err != nil {
		t.Error(err)
	}
}

// TestFormatOperatorProperty: rendering each index in order
// reconstructs the concatenation.
func TestFormatOperatorProperty(t *testing.T) {
	in := New(Options{})
	f := func(a, b, c string) bool {
		args := []any{a, b, c}
		out, err := in.formatOperator("{0}{1}{2}", args)
		return err == nil && out == a+b+c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHashtableSemantics(t *testing.T) {
	tests := []struct{ src, want string }{
		{"$h=@{}; $h['A']=1; $h['a']", "1"}, // case-insensitive keys
		{"$h=@{a=1;b=2}; $h.Count", "2"},
		{"$h=@{a=1;b=2}; ($h.Keys | sort-object) -join ''", "ab"},
		{"$h=@{a=1}; $h.ContainsKey('A')", "True"},
		{"$h=@{a=1}; $h.Remove('a'); $h.Count", "0"},
		{"$h=@{a=1}+@{b=2}; $h.Count", "2"},
	}
	for _, tt := range tests {
		if got := eval(t, tt.src); got != tt.want {
			t.Errorf("eval(%q) = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestArraySemantics(t *testing.T) {
	tests := []struct{ src, want string }{
		{"$a=@(); $a.Count", "0"},
		{"$a=@(1,2,3); $a.Length", "3"},
		{"$a=1,2,3; [array]::Reverse($a); $a -join ''", "321"},
		{"(1,2,3).Contains(2)", "True"},
		{"('a','b').IndexOf('b')", "1"},
		{"((1,2)*2) -join ''", "1212"},
		{"@(5) -is [array]", "True"},
		{"(,1).Count", "1"},
	}
	for _, tt := range tests {
		if got := eval(t, tt.src); got != tt.want {
			t.Errorf("eval(%q) = %q, want %q", tt.src, got, tt.want)
		}
	}
}
