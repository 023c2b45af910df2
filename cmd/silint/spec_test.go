package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sian/internal/chopping"
	"sian/internal/histio"
	"sian/internal/robustness"
	"sian/internal/workload"
)

// specModels lists, per committed spec, the -model values with a check
// for its kind: robustness rows for an app, chopping rows for programs.
var specModels = map[string][]string{
	"fig5_programs": {"ser", "si", "psi", "all"},
	"fig6_programs": {"ser", "si", "psi", "all"},
	"smallbank_app": {"si", "psi", "all"},
	"writeskew_app": {"si", "psi", "all"},
}

// goldenCase is one spec-mode invocation whose stdout must equal
// testdata/spec/<golden>.
type goldenCase struct {
	golden string
	args   []string
}

// specGoldenCases returns the text and JSON cases of every committed
// spec whose name ends in suffix, under each of its models.
func specGoldenCases(suffix string) []goldenCase {
	var cases []goldenCase
	for spec, ms := range specModels {
		if !strings.HasSuffix(spec, suffix) {
			continue
		}
		file := "../../testdata/" + spec + ".json"
		for _, m := range ms {
			cases = append(cases,
				goldenCase{spec + "." + m + ".txt", []string{"-model", m, file}},
				goldenCase{spec + "." + m + ".json", []string{"-model", m, "-format", "json", file}})
		}
	}
	return cases
}

// runGolden runs each case as a subtest, comparing stdout with its
// golden and the exit code with the verdict the golden records.
func runGolden(t *testing.T, cases []goldenCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "spec", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			code, err := run(c.args, strings.NewReader(""), &out, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != string(want) {
				t.Errorf("output differs from %s:\n--- got\n%s--- want\n%s", c.golden, got, want)
			}
			wantExit := 0
			if strings.Contains(string(want), "NOT ROBUST") || strings.Contains(string(want), "MAY BE INCORRECT") ||
				strings.Contains(string(want), `"exit": 1`) {
				wantExit = 1
			}
			if code != wantExit {
				t.Errorf("exit = %d, want %d", code, wantExit)
			}
		})
	}
}

// TestSpecGoldenPrograms pins spec mode's text and JSON output for the
// committed programs specs × model, plus -fix and -dot, against
// testdata/spec/<spec>.<model>[.<flag>].<ext>.
func TestSpecGoldenPrograms(t *testing.T) {
	t.Parallel()
	fig5 := "../../testdata/fig5_programs.json"
	runGolden(t, append(specGoldenCases("_programs"),
		goldenCase{"fig5_programs.si.fix.txt", []string{"-model", "si", "-fix", fig5}},
		goldenCase{"fig5_programs.all.fix.txt", []string{"-model", "all", "-fix", fig5}},
		goldenCase{"fig5_programs.si.dot.txt", []string{"-model", "si", "-dot", "-", fig5}}))
}

// TestSpecGoldenApps pins spec mode's text and JSON output for the
// committed app specs × model.
func TestSpecGoldenApps(t *testing.T) {
	t.Parallel()
	runGolden(t, specGoldenCases("_app"))
}

func appSpec(t *testing.T, app robustness.App) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := histio.EncodeApp(&buf, app); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func programsSpec(t *testing.T, programs []chopping.Program) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := histio.EncodePrograms(&buf, programs); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// runStdin runs silint on a spec read from "-" and returns its exit
// code and stdout.
func runStdin(t *testing.T, in *bytes.Buffer, args ...string) (int, string) {
	t.Helper()
	var out bytes.Buffer
	code, err := run(append(args, "-"), in, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return code, out.String()
}

// wantOutput fails t unless the run exited with exit and printed every
// line of want.
func wantOutput(t *testing.T, code int, out string, exit int, want ...string) {
	t.Helper()
	if code != exit {
		t.Errorf("exit = %d, want %d\n%s", code, exit, out)
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("output lacks %q:\n%s", w, out)
		}
	}
}

// TestSpecWriteSkewApp: Figure 2(d)'s write skew is not robust against
// SI.
func TestSpecWriteSkewApp(t *testing.T) {
	t.Parallel()
	code, out := runStdin(t, appSpec(t, workload.WriteSkewApp()), "-model", "si")
	wantOutput(t, code, out, 1, "SI→SER  NOT ROBUST")
}

// TestSpecFixedApp: the promoted write-skew app is robust under both
// robustness checks.
func TestSpecFixedApp(t *testing.T) {
	t.Parallel()
	code, out := runStdin(t, appSpec(t, workload.WriteSkewAppFixed()), "-model", "all")
	wantOutput(t, code, out, 0, "SI→SER  ROBUST", "PSI→SI  ROBUST")
	if n := strings.Count(out, "ROBUST"); n != 2 {
		t.Errorf("want 2 ROBUST lines, got %d:\n%s", n, out)
	}
}

// TestSpecLongForkApp: the long-fork app is robust against SI but not
// against PSI.
func TestSpecLongForkApp(t *testing.T) {
	t.Parallel()
	code, out := runStdin(t, appSpec(t, workload.LongForkApp()), "-model", "all")
	wantOutput(t, code, out, 1, "SI→SER  ROBUST", "PSI→SI  NOT ROBUST")
}

// TestSpecFig5Incorrect: Figure 5's chopping has an SI-critical cycle.
func TestSpecFig5Incorrect(t *testing.T) {
	t.Parallel()
	code, out := runStdin(t, programsSpec(t, workload.Fig5Programs()), "-model", "si")
	wantOutput(t, code, out, 1, "SI-critical  chopping MAY BE INCORRECT")
}

// TestSpecFig6Correct: Figure 6's chopping is correct at every level.
func TestSpecFig6Correct(t *testing.T) {
	t.Parallel()
	code, out := runStdin(t, programsSpec(t, workload.Fig6Programs()), "-model", "all")
	wantOutput(t, code, out, 0, "SER-critical chopping CORRECT", "SI-critical  chopping CORRECT", "PSI-critical chopping CORRECT")
	if n := strings.Count(out, "CORRECT"); n != 3 {
		t.Errorf("want 3 CORRECT lines, got %d:\n%s", n, out)
	}
}

// TestSpecFig11PerLevel: Figure 11's chopping is correct under SI but
// not under SER.
func TestSpecFig11PerLevel(t *testing.T) {
	t.Parallel()
	code, out := runStdin(t, programsSpec(t, workload.Fig11Programs()), "-model", "si")
	wantOutput(t, code, out, 0, "SI-critical  chopping CORRECT")
	code, out = runStdin(t, programsSpec(t, workload.Fig11Programs()), "-model", "ser")
	wantOutput(t, code, out, 1, "SER-critical chopping MAY BE INCORRECT")
}

// TestSpecDotOutput: -dot - writes the static chopping graph with the
// critical cycle highlighted.
func TestSpecDotOutput(t *testing.T) {
	t.Parallel()
	code, out := runStdin(t, programsSpec(t, workload.Fig5Programs()), "-model", "si", "-dot", "-")
	wantOutput(t, code, out, 1, "digraph chopping", "penwidth=2")
}

// TestSpecFixChopping: -fix on a programs spec prints the coarsened
// correct chopping, since there is no source to edit.
func TestSpecFixChopping(t *testing.T) {
	t.Parallel()
	code, out := runStdin(t, programsSpec(t, workload.Fig5Programs()), "-model", "si", "-fix")
	wantOutput(t, code, out, 1, "suggested correct chopping")
}

// TestSpecProgramsJSON pins the verdict schema of a programs spec: one
// failing SI verdict for Figure 5, and the three passing verdicts of
// Figure 6 with their theorems.
func TestSpecProgramsJSON(t *testing.T) {
	t.Parallel()
	decode := func(out string) VerdictSet {
		t.Helper()
		var set VerdictSet
		if err := json.Unmarshal([]byte(out), &set); err != nil {
			t.Fatalf("invalid JSON: %v\n%s", err, out)
		}
		return set
	}
	code, out := runStdin(t, programsSpec(t, workload.Fig5Programs()), "-model", "si", "-format", "json")
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	set := decode(out)
	if set.Tool != "silint" || set.Exit != 1 || len(set.Verdicts) != 1 {
		t.Fatalf("set = %+v", set)
	}
	if v := set.Verdicts[0]; v.Check != "chopping-si" || v.OK || v.Category != "incorrect-chopping" ||
		v.Theorem != "Corollary 18, §5" || v.Target != "stdin" || v.Witness == "" {
		t.Errorf("verdict = %+v", v)
	}
	if strings.Contains(out, "chopping CORRECT") || strings.Contains(out, "MAY BE INCORRECT") {
		t.Errorf("json output mixed with text lines:\n%s", out)
	}

	code, out = runStdin(t, programsSpec(t, workload.Fig6Programs()), "-model", "all", "-format", "json")
	if code != 0 {
		t.Errorf("Fig6: exit = %d, want 0", code)
	}
	set = decode(out)
	if set.Exit != 0 || len(set.Verdicts) != 3 {
		t.Fatalf("Fig6 set = %+v", set)
	}
	wantChecks := map[string]string{
		"chopping-ser": "Theorem 29, Appendix B",
		"chopping-si":  "Corollary 18, §5",
		"chopping-psi": "Theorem 31, Appendix B",
	}
	for _, v := range set.Verdicts {
		if !v.OK || wantChecks[v.Check] != v.Theorem {
			t.Errorf("Fig6 verdict = %+v", v)
		}
		delete(wantChecks, v.Check)
	}
	if len(wantChecks) != 0 {
		t.Errorf("missing checks: %v", wantChecks)
	}
}

// TestSpecJSONSchema pins the verdict schema of spec mode: the target
// of a stdin spec, and no anomaly fields on a passing verdict.
func TestSpecJSONSchema(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	code, err := run([]string{"-model", "all", "-format", "json", "-"}, appSpec(t, workload.WriteSkewAppFixed()), &out, io.Discard)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	var set VerdictSet
	if err := json.Unmarshal(out.Bytes(), &set); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if set.Tool != "silint" || set.Exit != 0 || len(set.Verdicts) != 2 {
		t.Fatalf("set = %+v", set)
	}
	for _, v := range set.Verdicts {
		if !v.OK || v.Target != "stdin" || v.Theorem == "" || v.Category != "" || v.Witness != "" || v.Detail != "" {
			t.Errorf("verdict = %+v", v)
		}
	}
}

// TestSpecSniff: the top-level key decides the spec's kind, so a spec
// with neither or both is refused, and so is a spec beside a package.
func TestSpecSniff(t *testing.T) {
	t.Parallel()
	for name, c := range map[string]struct {
		args []string
		in   string
	}{
		"neither key": {[]string{"-"}, `{"txs": []}`},
		"both keys":   {[]string{"-"}, `{"sessions": [{"txs": [{}]}], "programs": [{"pieces": [{}]}]}`},
		"mixed":       {[]string{"../../testdata/writeskew_app.json", bankingPkg}, ""},
		"two specs":   {[]string{"../../testdata/writeskew_app.json", "-"}, ""},
	} {
		var out bytes.Buffer
		code, err := run(c.args, strings.NewReader(c.in), &out, io.Discard)
		if code != 2 || err == nil {
			t.Errorf("%s: code=%d err=%v, want exit 2 with an error", name, code, err)
		}
	}
}

// wantUsageErrors runs each argument list with in on stdin and fails
// t unless every run exits 2 with an error.
func wantUsageErrors(t *testing.T, in string, cases map[string][]string) {
	t.Helper()
	for name, args := range cases {
		var out bytes.Buffer
		if code, err := run(args, strings.NewReader(in), &out, io.Discard); code != 2 || err == nil {
			t.Errorf("%s: code=%d err=%v, want exit 2 with an error", name, code, err)
		}
	}
}

// TestSpecAppErrors: usage and decoding errors on an app spec exit 2.
func TestSpecAppErrors(t *testing.T) {
	t.Parallel()
	app := "../../testdata/writeskew_app.json"
	wantUsageErrors(t, "", map[string][]string{
		"bogus model":   {"-model", "bogus", app},
		"ser on an app": {"-model", "ser", app},
		"fix on an app": {"-fix", app},
		"dot on an app": {"-dot", "-", app},
		"two specs":     {app, app},
		"missing file":  {"missing.json"},
		"bogus format":  {"-format", "yaml", app},
	})
	wantUsageErrors(t, "nope", map[string][]string{"invalid json": {"-"}})
	wantUsageErrors(t, `{"sessions": [{"txs": [{"name": "t", "bogus": 1}]}]}`,
		map[string][]string{"unknown field": {"-"}})
}

// TestSpecProgramsErrors: usage and decoding errors on a programs spec
// exit 2.
func TestSpecProgramsErrors(t *testing.T) {
	t.Parallel()
	fig5 := "../../testdata/fig5_programs.json"
	wantUsageErrors(t, `{"programs": [{"pieces": [{}]}]}`, map[string][]string{
		"bogus model":     {"-model", "bogus", "-"},
		"two specs":       {fig5, "-"},
		"bogus format":    {"-format", "yaml", fig5},
		"dot on packages": {"-dot", "-", bankingPkg},
	})
	wantUsageErrors(t, "nope", map[string][]string{"invalid json": {"-"}})
	wantUsageErrors(t, `{"programs": [{"pieces": []}]}`, map[string][]string{"no pieces": {"-"}})
}

// runTraced runs silint with -trace and -metrics - on spec, which must
// fail, and checks the stage table names the decode, phase and output
// stages, and the metrics dump counts one anomaly.
func runTraced(t *testing.T, spec, phase string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code, err := run([]string{"-trace", "-metrics", "-", spec}, strings.NewReader(""), &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out.String())
	}
	for _, want := range []string{"trace: per-stage latency", "decode", phase, "output"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, errOut.String())
		}
	}
	if !strings.Contains(out.String(), `trace_stage_ns_count{stage="decode"} 1`) {
		t.Errorf("metrics dump missing the decode stage histogram:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "silint_anomalies_total 1") {
		t.Errorf("metrics dump missing the anomaly counter:\n%s", out.String())
	}
}

// TestSpecAppTraceAndMetrics: the write-skew app traces its SI
// robustness check and counts its anomaly.
func TestSpecAppTraceAndMetrics(t *testing.T) {
	runTraced(t, "../../testdata/writeskew_app.json", "check-robustness-si")
}

// TestSpecProgramsTraceAndMetrics: Figure 5 traces its SI chopping
// check and counts its anomaly.
func TestSpecProgramsTraceAndMetrics(t *testing.T) {
	runTraced(t, "../../testdata/fig5_programs.json", "check-chopping-si")
}
