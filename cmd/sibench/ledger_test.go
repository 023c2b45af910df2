package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"sian/internal/obs/ledger"
)

// TestRunLedgerAppend pins the -ledger flag: every run appends one
// provenance-stamped NDJSON entry.
func TestRunLedgerAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.ndjson")
	for i := 0; i < 2; i++ {
		var out, errOut bytes.Buffer
		code, err := run([]string{
			"-engine", "si", "-workload", "closedloop",
			"-sessions", "2", "-txs", "5", "-objects", "4",
			"-ledger", path,
		}, &out, &errOut)
		if err != nil {
			t.Fatal(err)
		}
		if code != 0 {
			t.Fatalf("exit = %d\n%s", code, out.String())
		}
		if !strings.Contains(out.String(), "ledger: appended") {
			t.Errorf("output missing append announcement:\n%s", out.String())
		}
	}
	entries, err := ledger.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("ledger entries = %d, want 2", len(entries))
	}
	e := entries[1]
	if e.Schema != ledger.EntrySchema || e.Tool != "sibench" {
		t.Errorf("entry envelope = %+v", e)
	}
	if e.Report.Workload != "closedloop" || e.Report.Engine != "si" {
		t.Errorf("entry report = engine=%s workload=%s", e.Report.Engine, e.Report.Workload)
	}
	if e.Report.TxsPerSec <= 0 || e.Report.Commits <= 0 {
		t.Errorf("entry report numbers: %+v", e.Report)
	}
	if len(e.Args) == 0 {
		t.Error("entry did not echo the command line")
	}
}

// TestRunCompareRegression is the regression-gate acceptance path: a
// synthetic baseline claiming absurd throughput makes any real run a
// regression, and sibench must exit nonzero saying so.
func TestRunCompareRegression(t *testing.T) {
	base := ledger.BenchReport{
		Schema: ledger.BenchSchema, Engine: "si", Workload: "closedloop",
		TxsPerSec: 1e12, P99CommitLatencyNS: 1,
	}
	path := writeBaseline(t, base)
	var out bytes.Buffer
	code, err := run([]string{
		"-engine", "si", "-workload", "closedloop",
		"-sessions", "2", "-txs", "5", "-objects", "4",
		"-compare", path,
	}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (regression)\n%s", code, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "compare: REGRESSION") {
		t.Errorf("output missing regression verdict:\n%s", s)
	}
	if !strings.Contains(s, "txs_per_sec") || !strings.Contains(s, "REGRESSED") {
		t.Errorf("output missing delta table:\n%s", s)
	}
}

// TestRunCompareOK: against a trivially slow baseline the gate passes
// and the exit stays 0.
func TestRunCompareOK(t *testing.T) {
	base := ledger.BenchReport{
		Schema: ledger.BenchSchema, Engine: "si", Workload: "closedloop",
		TxsPerSec: 0.0001,
	}
	path := writeBaseline(t, base)
	var out bytes.Buffer
	code, err := run([]string{
		"-engine", "si", "-workload", "closedloop",
		"-sessions", "2", "-txs", "5", "-objects", "4",
		"-compare", path,
	}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "compare: ok") {
		t.Errorf("output missing pass verdict:\n%s", out.String())
	}
}

// TestRunCompareMismatchWarns: baseline recorded for another
// engine/workload still compares, with a warning.
func TestRunCompareMismatchWarns(t *testing.T) {
	base := ledger.BenchReport{
		Schema: ledger.BenchSchema, Engine: "psi", Workload: "registers",
		TxsPerSec: 0.0001,
	}
	path := writeBaseline(t, base)
	var out, errOut bytes.Buffer
	code, err := run([]string{
		"-engine", "si", "-workload", "closedloop",
		"-sessions", "2", "-txs", "5", "-objects", "4",
		"-compare", path,
	}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out.String())
	}
	if !strings.Contains(errOut.String(), "comparing anyway") {
		t.Errorf("stderr missing mismatch warning:\n%s", errOut.String())
	}
}

// TestRunCompareBeforeLedgerAppend: with -ledger and -compare naming
// the same file, the gate must run against the previous entry, not
// the line the run is about to append (self-comparison always
// passes). A first slow run recorded in the ledger then gates a
// second run, proving the baseline predates the append.
func TestRunCompareBeforeLedgerAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.ndjson")
	slow := ledger.NewEntry("sibench", nil, ledger.BenchReport{
		Schema: ledger.BenchSchema, Engine: "si", Workload: "closedloop",
		TxsPerSec: 0.0001,
	})
	if err := ledger.Append(path, slow); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code, err := run([]string{
		"-engine", "si", "-workload", "closedloop",
		"-sessions", "2", "-txs", "5", "-objects", "4",
		"-ledger", path, "-compare", path,
	}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out.String())
	}
	// The delta table must show the slow baseline, not the fresh run
	// compared against itself (which would print ratio=1 exactly).
	if !strings.Contains(out.String(), "base=0.0001") {
		t.Errorf("compare did not use the pre-append baseline:\n%s", out.String())
	}
	entries, err := ledger.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("ledger entries = %d, want 2 (append still happened)", len(entries))
	}
}

func TestRunCompareBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-engine", "si", "-workload", "closedloop", "-compare", "no-such-file.json"},
		{"-engine", "si", "-workload", "closedloop", "-compare-threshold", "1.5"},
		{"-engine", "si", "-workload", "closedloop", "-compare-threshold", "-0.1"},
	} {
		if _, err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// TestRunSweepReps pins the median-of-reps reporting: per-rep lines,
// the spread summary, and the reps/min/max fields in the JSON table.
func TestRunSweepReps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var out bytes.Buffer
	code, err := run([]string{
		"-engine", "si", "-workload", "closedloop",
		"-sweep", "1", "-sweep-reps", "3",
		"-sessions", "2", "-txs", "8", "-objects", "4",
		"-bench-json", path,
	}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out.String())
	}
	s := out.String()
	for _, want := range []string{"rep 1/3", "rep 3/3", "median of 3 reps, spread"} {
		if !strings.Contains(s, want) {
			t.Errorf("sweep-reps output missing %q:\n%s", want, s)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Sweep) != 1 {
		t.Fatalf("sweep points = %d, want 1", len(rep.Sweep))
	}
	pt := rep.Sweep[0]
	if pt.Reps != 3 {
		t.Errorf("reps = %d, want 3", pt.Reps)
	}
	if pt.MinTxsPerSec <= 0 || pt.MaxTxsPerSec < pt.MinTxsPerSec {
		t.Errorf("spread fields: min=%v max=%v", pt.MinTxsPerSec, pt.MaxTxsPerSec)
	}
	if pt.TxsPerSec < pt.MinTxsPerSec || pt.TxsPerSec > pt.MaxTxsPerSec {
		t.Errorf("median %v outside [%v, %v]", pt.TxsPerSec, pt.MinTxsPerSec, pt.MaxTxsPerSec)
	}
	if _, err := run([]string{
		"-engine", "si", "-workload", "closedloop", "-sweep-reps", "0",
	}, io.Discard, io.Discard); err == nil {
		t.Error("-sweep-reps 0 accepted")
	}
}

// lockedWriter lets the serve test read stderr while the run goroutine
// writes to it.
type lockedWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *lockedWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestRunServeLivePlane is the live-demo acceptance path: sibench
// -serve answers /healthz, /metrics and /events while the closed-loop
// workload is still running.
func TestRunServeLivePlane(t *testing.T) {
	stderr := &lockedWriter{}
	var out bytes.Buffer
	done := make(chan struct{})
	var code int
	var runErr error
	go func() {
		defer close(done)
		code, runErr = run([]string{
			"-engine", "si", "-workload", "closedloop",
			"-duration", "3s", "-sessions", "2", "-objects", "4",
			"-serve", "127.0.0.1:0",
		}, &out, stderr)
	}()

	addrRE := regexp.MustCompile(`obs: serving http://([^/]+)/`)
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never announced; stderr:\n%s", stderr.String())
		}
		if m := addrRE.FindStringSubmatch(stderr.String()); m != nil {
			addr = m[1]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	get := func(path string) (int, string) {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return resp.StatusCode, string(body)
	}

	if sc, body := get("/healthz"); sc != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Errorf("/healthz = %d %q", sc, body)
	}
	// The plane announces itself before the run attaches its recorder
	// and builds the engine; on a loaded host the requests below can
	// win that race, so wait for the engine's series to appear.
	for time.Now().Before(deadline) {
		if _, body := get("/metrics"); strings.Contains(body, "engine_commits_total") {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if sc, body := get("/metrics"); sc != http.StatusOK || !strings.Contains(body, "engine_commits_total") {
		t.Errorf("/metrics = %d, body:\n%s", sc, body)
	}
	if sc, body := get("/metrics.json"); sc != http.StatusOK || !strings.Contains(body, "engine_commits_total") {
		t.Errorf("/metrics.json = %d, body:\n%s", sc, body)
	}
	// The recorder is attached when serving, so a bounded replay of
	// /events yields engine events mid-run.
	resp, err := http.Get(fmt.Sprintf("http://%s/events?replay=5", addr))
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Errorf("/events content-type = %q", ct)
	}
	frame := make([]byte, 4096)
	n, _ := resp.Body.Read(frame)
	resp.Body.Close()
	if !strings.Contains(string(frame[:n]), "data:") {
		t.Errorf("/events produced no SSE frame: %q", frame[:n])
	}

	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "closedloop:") {
		t.Errorf("run output:\n%s", out.String())
	}
}

func writeBaseline(t *testing.T, rep ledger.BenchReport) string {
	t.Helper()
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
