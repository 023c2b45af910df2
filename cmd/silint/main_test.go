package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

const (
	writeSkewPkg = "../../internal/silint/testdata/src/writeskew"
	bankingPkg   = "../../internal/silint/fixtures/banking"
)

func TestRunTextWriteSkew(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	code, err := run([]string{"-model", "si", writeSkewPkg}, strings.NewReader(""), &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("exit = %d, want 1\n%s", code, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "write-skew: dangerous cycle") || !strings.Contains(s, "Theorem 19") {
		t.Errorf("output: %s", s)
	}
	if !strings.Contains(s, "main.go:") {
		t.Errorf("diagnostic not anchored to a position: %s", s)
	}
}

func TestRunTextClean(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	code, err := run([]string{"-model", "si", bankingPkg}, strings.NewReader(""), &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("exit = %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "silint: no anomalies") {
		t.Errorf("output: %s", out.String())
	}
}

// TestRunTraceReportsOutput: -trace on packages lists the output
// stage as well as analyze, in both formats: the stage table prints
// only after the run's trace is finished.
func TestRunTraceReportsOutput(t *testing.T) {
	t.Parallel()
	for _, format := range []string{"text", "json"} {
		var out, errOut bytes.Buffer
		code, err := run([]string{"-trace", "-format", format, "-model", "si", bankingPkg},
			strings.NewReader(""), &out, &errOut)
		if err != nil || code != 0 {
			t.Fatalf("%s: exit %d, %v\n%s", format, code, err, errOut.String())
		}
		for _, stage := range []string{"analyze", "output"} {
			if !strings.Contains(errOut.String(), "  "+stage+" ") {
				t.Errorf("%s: stage table missing %s:\n%s", format, stage, errOut.String())
			}
		}
	}
}

// TestRunJSON pins the shared machine-readable verdict schema.
func TestRunJSON(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	code, err := run([]string{"-model", "si", "-format", "json", writeSkewPkg}, strings.NewReader(""), &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	var set VerdictSet
	if err := json.Unmarshal(out.Bytes(), &set); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if set.Tool != "silint" || set.Exit != 1 || len(set.Verdicts) == 0 {
		t.Fatalf("set = %+v", set)
	}
	v := set.Verdicts[0]
	if v.Check != "robustness-si" || v.OK || v.Category != "write-skew" ||
		v.Theorem != "Theorem 19, §6.1" || v.Tx == "" || v.Witness == "" ||
		!strings.Contains(v.Pos, "main.go:") {
		t.Errorf("verdict = %+v", v)
	}
	// The repair advisor's suggestions ride along in the schema: the
	// write-skew fixture is repairable by a single promotion, so the
	// verdict carries at least one rank-1 fix with a textual edit.
	if len(v.Fixes) == 0 {
		t.Fatalf("verdict has no suggested fixes: %+v", v)
	}
	f := v.Fixes[0]
	if f.Rank != 1 || f.Obj == "" || len(f.Txs) == 0 ||
		!strings.Contains(f.Message, "promote read of") ||
		!strings.Contains(v.Detail, "suggested fix: promote read of") {
		t.Errorf("fix = %+v (detail %q)", f, v.Detail)
	}
	if len(f.Edits) == 0 || !strings.Contains(f.Edits[0].NewText, ".Promote(") {
		t.Errorf("fix edits = %+v", f.Edits)
	}

	out.Reset()
	code, err = run([]string{"-format", "json", bankingPkg}, strings.NewReader(""), &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("clean package: exit = %d, want 0", code)
	}
	set = VerdictSet{}
	if err := json.Unmarshal(out.Bytes(), &set); err != nil {
		t.Fatal(err)
	}
	if set.Exit != 0 || len(set.Verdicts) != 1 || !set.Verdicts[0].OK || set.Verdicts[0].Check != "silint" {
		t.Errorf("clean set = %+v", set)
	}
}

func TestRunErrors(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	if _, err := run([]string{"-model", "bogus"}, strings.NewReader(""), &out, io.Discard); err == nil {
		t.Error("bogus model accepted")
	}
	if _, err := run([]string{"-format", "yaml"}, strings.NewReader(""), &out, io.Discard); err == nil {
		t.Error("bogus format accepted")
	}
	if code, err := run([]string{"no/such/dir"}, strings.NewReader(""), &out, io.Discard); err == nil || code != 2 {
		t.Errorf("missing package: code=%d err=%v", code, err)
	}
}
