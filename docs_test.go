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
	// A command line: `go run ./cmd/X`, `./X` or an installed `…/bin/X`,
	// then its arguments up to a pipe, list operator, comment or
	// redirection.
	cmdLineRE = regexp.MustCompile(`(?:go run \./cmd/|\./|/bin/)(\w+)([^|;&#<>]*)`)
	flagRE    = regexp.MustCompile(`(?:^|\s)-([A-Za-z][\w-]*)`)
	fsFlagRE  = regexp.MustCompile(`\bfs\.[A-Z]\w*\("([\w-]+)"`)
	// A query parameter in an endpoint-table row: `?replay=N`.
	queryParamRE = regexp.MustCompile(`\?(\w+)=`)
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

// TestDocsNameRealFlags fails when a flag on a `go run ./cmd/X`,
// `./X` or `…/bin/X` command line in namingDocs or CI (continuation
// lines joined) is not registered by cmd/X: its own fs.* calls, plus
// the shared cliutil.RegisterObsFlags set when it calls that.
func TestDocsNameRealFlags(t *testing.T) {
	flags := cmdFlags(t)
	for _, doc := range append(namingDocs, ciFile) {
		for _, bad := range staleFlags(readDoc(t, doc), flags) {
			t.Errorf("%s: `%s` is not a flag of that command", doc, bad)
		}
	}
}

// staleFlags returns "X -flag" for every flag on a command line of
// text (see TestDocsNameRealFlags) that flags[X] lacks. Lines naming
// no command in flags are skipped.
func staleFlags(text string, flags map[string]map[string]bool) []string {
	var stale []string
	for _, line := range strings.Split(strings.ReplaceAll(text, "\\\n", " "), "\n") {
		for _, m := range cmdLineRE.FindAllStringSubmatch(line, -1) {
			known, isCmd := flags[m[1]]
			for _, f := range flagRE.FindAllStringSubmatch(m[2], -1) {
				if isCmd && !known[f[1]] {
					stale = append(stale, m[1]+" -"+f[1])
				}
			}
		}
	}
	return stale
}

// cmdFlags maps each command under cmd/ to the flags its non-test
// sources register, with -h and -help, which package flag provides.
func cmdFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	registered := func(src string) map[string]bool {
		set := map[string]bool{"h": true, "help": true}
		for _, m := range fsFlagRE.FindAllStringSubmatch(src, -1) {
			set[m[1]] = true
		}
		return set
	}
	shared := registered(readDoc(t, "internal/cliutil/cliutil.go"))
	dirs, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]map[string]bool{}
	for _, d := range dirs {
		files, _ := filepath.Glob(filepath.Join("cmd", d.Name(), "*.go"))
		var src strings.Builder
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				src.WriteString(readDoc(t, f))
			}
		}
		set := registered(src.String())
		if strings.Contains(src.String(), "cliutil.RegisterObsFlags(") {
			for f := range shared {
				set[f] = true
			}
		}
		flags[d.Name()] = set
	}
	return flags
}

// TestDocsNameRealQueryParams fails when a `?param=` in a row of
// README's endpoint table is not read by the live plane, as
// Query().Get("param") in internal/obs/obshttp's non-test sources.
func TestDocsNameRealQueryParams(t *testing.T) {
	files, _ := filepath.Glob("internal/obs/obshttp/*.go")
	var src strings.Builder
	for _, f := range files {
		if !strings.HasSuffix(f, "_test.go") {
			src.WriteString(readDoc(t, f))
		}
	}
	for _, param := range staleParams(readDoc(t, "README.md"), src.String()) {
		t.Errorf("README.md: endpoint table names ?%s=, which obshttp never reads", param)
	}
}

// staleParams returns the ?param= names in the endpoint-table rows of
// text (lines opening with "| `/") that src never reads.
func staleParams(text, src string) []string {
	var stale []string
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "| `/") {
			continue
		}
		for _, m := range queryParamRE.FindAllStringSubmatch(line, -1) {
			if !strings.Contains(src, `Query().Get("`+m[1]+`")`) {
				stale = append(stale, m[1])
			}
		}
	}
	return stale
}

// TestDocsCheckerCatchesStaleRow pins the failing side on the kinds of
// row that rotted before: a DESIGN.md experiment row naming a test
// family that never existed, docs naming a deleted command, and a
// command line passing a deleted flag.
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
	flags := map[string]map[string]bool{"sibench": {"addr": true, "timeline": true}, "siserve": {"dir": true}}
	script := "./siserve -dir d -trace-txns > s.log 2>&1 &\n" +
		"./sibench -addr a -workload closedloop \\\n    -trace-txns -timeline t.json | grep -q -trace-txns\n" +
		"go test -run TestX ./cmd/sibench/ -trace-txns\n"
	if got := staleFlags(script, flags); strings.Join(got, ", ") != "siserve -trace-txns, sibench -workload, sibench -trace-txns" {
		t.Errorf("stale flags = %q, want siserve -trace-txns, sibench -workload and -trace-txns", got)
	}
	table := "| `/events` | tail (`?replay=N\\|all`, `?buf=N` sizes the buffer) |\n`?limit=1` outside the table\n"
	if got := staleParams(table, `r.URL.Query().Get("replay")`); strings.Join(got, " ") != "buf" {
		t.Errorf("stale params = %q, want [buf]", got)
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
