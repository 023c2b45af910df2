package sian_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The documents whose test names must stay real. EXPERIMENTS.md is a
// log of past runs and may name tests that have since gone.
var namingDocs = []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

const ciFile = ".github/workflows/ci.yml"

var (
	testFuncRE  = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	quotedRE    = regexp.MustCompile("`+([^`]+)`+")
	testNameRE  = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	goTestArgRE = regexp.MustCompile(`-(?:run|bench|fuzz)[= ]('[^']*'|"[^"]*"|[^\s'"]+)`)
	quotedCmdRE = regexp.MustCompile(`(?:^|[\s(])(?:\./|sian/)?cmd/(\w+)`)
	goRunRE     = regexp.MustCompile(`\bgo (?:run|build)\b`)
	runCmdRE    = regexp.MustCompile(`\./cmd/(\w+)`)
)

// TestDocsNameRealCommands fails when a back-quoted `cmd/<name>` in
// namingDocs, or a `go run`/`go build` of `./cmd/<name>` there or in
// CI, names no directory under cmd/.
func TestDocsNameRealCommands(t *testing.T) {
	isCmd := func(name string) bool {
		fi, err := os.Stat(filepath.Join("cmd", name))
		return err == nil && fi.IsDir()
	}
	for _, doc := range append(namingDocs, ciFile) {
		for _, name := range staleCommands(readDoc(t, doc), isCmd) {
			t.Errorf("%s: cmd/%s names no command", doc, name)
		}
	}
}

// staleCommands returns the command names referenced in text (see
// TestDocsNameRealCommands) for which isCmd is false.
func staleCommands(text string, isCmd func(string) bool) []string {
	var names, stale []string
	for _, m := range quotedRE.FindAllStringSubmatch(text, -1) {
		for _, c := range quotedCmdRE.FindAllStringSubmatch(m[1], -1) {
			names = append(names, c[1])
		}
	}
	for _, line := range strings.Split(text, "\n") {
		if goRunRE.MatchString(line) {
			for _, c := range runCmdRE.FindAllStringSubmatch(line, -1) {
				names = append(names, c[1])
			}
		}
	}
	for _, name := range names {
		if !isCmd(name) {
			stale = append(stale, name)
		}
	}
	return stale
}

// TestDocsNameRealTests fails when a back-quoted Test*/Benchmark*/Fuzz*
// name in namingDocs (inline spans and fenced blocks alike), or an
// alternative of a -run/-bench/-fuzz pattern in CI, is a prefix of no
// test function in the repository.
func TestDocsNameRealTests(t *testing.T) {
	funcs := testFuncs(t)
	for _, doc := range namingDocs {
		for _, name := range staleNames(docNames(readDoc(t, doc)), funcs) {
			t.Errorf("%s: `%s` names no test function", doc, name)
		}
	}
	for _, name := range staleNames(ciPatterns(readDoc(t, ciFile)), funcs) {
		t.Errorf("%s: pattern %q matches no test function", ciFile, name)
	}
}

// TestDocsCheckerCatchesStaleRow pins the failing side on the kinds of
// row that rotted before: a DESIGN.md experiment row naming a test
// family that never existed, and docs naming a deleted command.
func TestDocsCheckerCatchesStaleRow(t *testing.T) {
	isCmd := func(name string) bool { return name == "silint" }
	doc := "| `cmd/sichop` | CLI |\nRun `go run ./cmd/silint x.json`, or `sian/cmd/silint`.\n" +
		"      - run: go build -o /tmp/sivet ./cmd/sivet\n"
	if got := staleCommands(doc, isCmd); strings.Join(got, " ") != "sichop sivet" {
		t.Errorf("stale commands = %q, want [sichop sivet]", got)
	}
	row := "| E1 | Fig. 2(a) | Session guarantees | `TestFig2a*` / `BenchmarkFig2aSessionGuarantees` |"
	funcs := []string{"TestCertifyFigure2Examples", "BenchmarkFig2aSessionGuarantees"}
	if got := staleNames(docNames(row), funcs); len(got) != 1 || got[0] != "TestFig2a" {
		t.Errorf("stale names = %q, want [TestFig2a]", got)
	}
	if got := staleNames(ciPatterns(`go test -run '^$' -bench 'BenchmarkFig2a|BenchmarkNope' .`), funcs); len(got) != 1 || got[0] != "BenchmarkNope" {
		t.Errorf("stale CI names = %q, want [BenchmarkNope]", got)
	}
}

// docNames extracts every Test*/Benchmark*/Fuzz* token inside
// back-quotes; a trailing * is dropped by the token pattern.
func docNames(text string) []string {
	var names []string
	for _, m := range quotedRE.FindAllStringSubmatch(text, -1) {
		names = append(names, testNameRE.FindAllString(m[1], -1)...)
	}
	return names
}

// ciPatterns splits every -run/-bench/-fuzz argument into its
// |-alternatives, drops anchors and subtest paths, and skips the
// match-nothing "^$" and match-everything ".".
func ciPatterns(text string) []string {
	var names []string
	for _, m := range goTestArgRE.FindAllStringSubmatch(text, -1) {
		for _, alt := range strings.Split(strings.Trim(m[1], `'"`), "|") {
			alt, _, _ = strings.Cut(strings.TrimSuffix(strings.TrimPrefix(alt, "^"), "$"), "/")
			if alt != "" && alt != "." {
				names = append(names, alt)
			}
		}
	}
	return names
}

// staleNames returns the names that are a prefix of no function.
func staleNames(names, funcs []string) []string {
	var stale []string
	for _, name := range names {
		found := false
		for _, f := range funcs {
			if strings.HasPrefix(f, name) {
				found = true
				break
			}
		}
		if !found {
			stale = append(stale, name)
		}
	}
	return stale
}

// testFuncs lists every top-level Test/Benchmark/Fuzz function in the
// repository's _test.go files, skipping hidden and testdata trees.
func testFuncs(t *testing.T) []string {
	t.Helper()
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		for _, m := range testFuncRE.FindAllStringSubmatch(string(src), -1) {
			funcs = append(funcs, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}
