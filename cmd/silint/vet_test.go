package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// TestMain removes the binary buildSilint compiled for the vettool
// tests.
func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// buildSilint compiles silint once per test binary and returns its
// path with the repository root, skipping when no go toolchain is on
// PATH.
func buildSilint(t *testing.T) (bin, root string) {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	root, err = filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	buildOnce.Do(func() {
		if buildDir, buildErr = os.MkdirTemp("", "silint-vettool"); buildErr != nil {
			return
		}
		cmd := exec.Command(goTool, "build", "-o", filepath.Join(buildDir, "silint"), "sian/cmd/silint")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("%v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building silint: %v", buildErr)
	}
	return filepath.Join(buildDir, "silint"), root
}

// goVet runs `go vet -vettool=<silint> args...` at the repository root
// and returns its combined output.
func goVet(t *testing.T, args ...string) (string, error) {
	t.Helper()
	bin, root := buildSilint(t)
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + bin}, args...)...)
	cmd.Dir = root
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	return buf.String(), err
}

// TestVettoolProtocol drives the real thing: go vet over a clean
// package (exit 0) and over the write-skew fixture (vet fails, the
// diagnostic and its suggested fixes on stderr).
func TestVettoolProtocol(t *testing.T) {
	t.Parallel()
	if out, err := goVet(t, "./internal/silint/fixtures/banking"); err != nil {
		t.Fatalf("clean package: go vet failed: %v\n%s", err, out)
	}
	out, err := goVet(t, "./internal/silint/testdata/src/writeskew")
	if err == nil {
		t.Fatalf("write-skew package: go vet passed\n%s", out)
	}
	for _, want := range []string{"write-skew: dangerous cycle", "fix: promote read of"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

// TestVettoolModelFlag: go vet forwards the advertised -model flag to
// every unit. Figure 5's chopping is incorrect under SER (Theorem 29)
// but the default SI checks do not report that theorem.
func TestVettoolModelFlag(t *testing.T) {
	t.Parallel()
	const pkg = "./internal/silint/testdata/src/chopfig5"
	out, err := goVet(t, "-model=all", pkg)
	if err == nil || !strings.Contains(out, "Theorem 29") {
		t.Errorf("-model=all: err=%v, want the Theorem 29 diagnostic:\n%s", err, out)
	}
	out, _ = goVet(t, pkg)
	if strings.Contains(out, "Theorem 29") {
		t.Errorf("default model reports Theorem 29:\n%s", out)
	}
}

// TestVersionAndFlagsProtocol pins the two auxiliary invocations
// cmd/go makes before running units: -V=full for the tool ID and
// -flags for the flags it may forward.
func TestVersionAndFlagsProtocol(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	if code, err := run([]string{"-V=full"}, nil, &out, io.Discard); code != 0 || err != nil {
		t.Fatalf("-V=full: code=%d err=%v", code, err)
	}
	if f := strings.Fields(out.String()); len(f) != 4 || f[1] != "version" || !strings.HasPrefix(f[3], "buildID=") {
		t.Errorf("-V=full output %q, want \"<name> version devel buildID=…\"", out.String())
	}
	out.Reset()
	if code, err := run([]string{"-flags"}, nil, &out, io.Discard); code != 0 || err != nil {
		t.Fatalf("-flags: code=%d err=%v", code, err)
	}
	var flags []struct {
		Name  string
		Bool  bool
		Usage string
	}
	if err := json.Unmarshal(out.Bytes(), &flags); err != nil {
		t.Fatalf("-flags output %q: %v", out.String(), err)
	}
	if len(flags) != 1 || flags[0].Name != "model" || flags[0].Bool || flags[0].Usage == "" {
		t.Errorf("-flags = %+v, want the one string flag model", flags)
	}
}

// TestModels pins the -model vocabulary.
func TestModels(t *testing.T) {
	t.Parallel()
	for name, n := range map[string]int{"si": 1, "psi": 1, "ser": 1, "all": 3} {
		if ms := models[name]; len(ms) != n {
			t.Errorf("models[%q] = %v", name, ms)
		}
	}
	for _, bad := range []string{"", "both", "bogus"} {
		var out bytes.Buffer
		if code, err := run([]string{"-model", bad, "../../testdata/writeskew_app.json"}, nil, &out, io.Discard); code != 2 || err == nil {
			t.Errorf("-model %q: code=%d err=%v", bad, code, err)
		}
	}
}
