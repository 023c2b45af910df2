package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunTraceAndExplain runs sicheck with -trace on the write-skew
// fixture and checks both observability outputs: the certifier's
// stage table on stderr and the explainable verdict (axiom + witness cycle) on stdout.
func TestRunTraceAndExplain(t *testing.T) {
	var out, errOut bytes.Buffer
	code, err := run([]string{"-init=false", "-trace", "../../testdata/writeskew_history.json"},
		strings.NewReader(""), &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (SER disallows write skew)\n%s", code, out.String())
	}
	s := out.String()
	for _, want := range []string{
		"DISALLOWED",
		"explain: axiom TOTALVIS",
		"forbidden cycle: ",
		"-RW(",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("stdout missing %q:\n%s", want, s)
		}
	}
	es := errOut.String()
	if !strings.Contains(es, "trace: per-stage latency") {
		t.Errorf("stderr missing the stage table:\n%s", es)
	}
	for _, phase := range []string{"check_validate", "check_wr_enumeration", "check_extension_search", "check_explain", "output"} {
		if !strings.Contains(es, phase) {
			t.Errorf("stderr missing phase %q:\n%s", phase, es)
		}
	}
}

// TestRunMetricsDump runs sicheck with -metrics - and checks the
// Prometheus registry (search counters) lands on stdout.
func TestRunMetricsDump(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"-init=false", "-metrics", "-", "../../testdata/writeskew_history.json"},
		strings.NewReader(""), &out, new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	s := out.String()
	for _, want := range []string{
		"# TYPE check_graphs_examined_total counter",
		`check_graphs_examined_total{model="SER"}`,
		"check_wr_assignments_total",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("metrics dump missing %q:\n%s", want, s)
		}
	}
}
