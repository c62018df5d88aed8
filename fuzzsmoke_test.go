package invokedeob_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fuzzTargetRE matches the declaration of a native fuzz target.
var fuzzTargetRE = regexp.MustCompile(`(?m)^func (Fuzz\w*)\(\w+ \*testing\.F\)`)

// fuzzLineRE matches one `go test -fuzz` line of a Makefile recipe and
// captures its package and its -fuzz pattern.
var fuzzLineRE = regexp.MustCompile(`^\t\$\(GO\) test (\S+) .*-fuzz (\S+)`)

// TestFuzzSmokeCoversEveryTarget checks that `make fuzz-smoke` fuzzes
// every native fuzz target of the module, as its Makefile comment and
// DESIGN.md §6 say: a target left out only ever runs its seed corpus.
// Each recipe line's -fuzz pattern must select exactly one target of
// its package, as `go test -fuzz` requires.
func TestFuzzSmokeCoversEveryTarget(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := fuzzTargets(t)
	if len(targets) == 0 {
		t.Fatal("found no fuzz targets")
	}
	fuzzed := make(map[string]int) // "pkg target" -> recipe lines selecting it
	for _, line := range recipe(string(mk), "fuzz-smoke") {
		m := fuzzLineRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		pkg := m[1]
		re, err := regexp.Compile(strings.ReplaceAll(m[2], "$$", "$"))
		if err != nil {
			t.Errorf("fuzz-smoke line %q: %v", line, err)
			continue
		}
		var selected []string
		for _, name := range targets[pkg] {
			if re.MatchString(name) {
				selected = append(selected, name)
			}
		}
		if len(selected) != 1 {
			t.Errorf("fuzz-smoke line %q selects %v, want exactly one target of %s", line, selected, pkg)
			continue
		}
		fuzzed[pkg+" "+selected[0]]++
	}
	pkgs := make([]string, 0, len(targets))
	for pkg := range targets {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		for _, name := range targets[pkg] {
			t.Run(name, func(t *testing.T) {
				if n := fuzzed[pkg+" "+name]; n != 1 {
					t.Errorf("%s %s is fuzzed by %d fuzz-smoke lines, want 1", pkg, name, n)
				}
			})
		}
	}
}

// fuzzTargets maps each package of the module, written as the Makefile
// writes it ("./internal/core"), to the fuzz targets its tests declare.
// Nested modules are skipped: `go test ./...` does not reach them.
func fuzzTargets(t *testing.T) map[string][]string {
	t.Helper()
	targets := make(map[string][]string)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := "./" + filepath.ToSlash(filepath.Dir(path))
		for _, m := range fuzzTargetRE.FindAllStringSubmatch(string(src), -1) {
			targets[pkg] = append(targets[pkg], m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return targets
}

// recipe returns the command lines of a Makefile rule: the tab-indented
// lines that follow "rule:".
func recipe(makefile, rule string) []string {
	var lines []string
	in := false
	for _, line := range strings.Split(makefile, "\n") {
		switch {
		case strings.HasPrefix(line, rule+":"):
			in = true
		case in && strings.HasPrefix(line, "\t"):
			lines = append(lines, line)
		case in:
			return lines
		}
	}
	return lines
}
