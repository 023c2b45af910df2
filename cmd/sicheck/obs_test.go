package main

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"sian/internal/histio"
	"sian/internal/workload"
)

// TestRunTraceAndExplain runs sicheck with -trace on the write-skew
// fixture and checks both observability outputs: the certifier's
// stage table on stderr and the explainable verdict (axiom + witness cycle) on stdout.
func TestRunTraceAndExplain(t *testing.T) {
	var out, errOut bytes.Buffer
	code, err := run([]string{"-trace", "../../testdata/writeskew_history.json"},
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
	code, err := run([]string{"-metrics", "-", "../../testdata/writeskew_history.json"},
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

// TestRunStreamTrace: -trace records a stream run too, as the ingest,
// finish and output stages of the run's own trace.
func TestRunStreamTrace(t *testing.T) {
	var errOut bytes.Buffer
	path := eventsFile(t, "ws", workload.WriteSkew())
	code, err := run([]string{"-model", "si", "-trace", path}, strings.NewReader(""), io.Discard, &errOut)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	for _, stage := range []string{"trace: per-stage latency", "ingest", "finish", "output"} {
		if !strings.Contains(errOut.String(), stage) {
			t.Errorf("stderr missing %q:\n%s", stage, errOut.String())
		}
	}
}

// TestRunServeVerdicts tails a stream that stays open while a client
// watches /verdicts: each commit's verdict, the violating one with its
// axiom, reaches the client before the input ends.
func TestRunServeVerdicts(t *testing.T) {
	pr, pw := io.Pipe()
	errOut := new(lockedBuffer)
	done := make(chan error, 1)
	go func() {
		_, err := run([]string{"-model", "si", "-serve", "127.0.0.1:0"}, pr, io.Discard, errOut)
		done <- err
	}()
	defer func() {
		pw.Close()
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()
	waitFor(t, errOut, "/ (")
	addr := strings.TrimPrefix(strings.Fields(errOut.String())[2], "http://")
	base := "http://" + strings.TrimSuffix(addr, "/")

	resp, err := http.Get(base + "/verdicts")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := new(lockedBuffer)
	go io.Copy(frames, resp.Body)
	// Publish only once the subscriber is registered.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		m, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(m.Body)
		m.Body.Close()
		if strings.Contains(string(body), `sse_clients{stream="verdicts"} 1`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("verdicts client never registered:\n%s", body)
		}
	}
	if err := histio.EncodeEvents(pw, histio.HistoryToEvents(workload.LostUpdate().History)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, frames, `"txn":"T2","model":"SI","member":false`)
	waitFor(t, frames, `"axiom":"NOCONFLICT (lost-update shape`)
}
