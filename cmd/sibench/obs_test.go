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
)

// TestRunMetricsDump is the acceptance path: sibench -engine si
// -workload smallbank -metrics - must print the Prometheus registry
// including the commit-latency histogram buckets.
func TestRunMetricsDump(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{
		"-engine", "si", "-workload", "smallbank",
		"-sessions", "2", "-txs", "5", "-objects", "4",
		"-metrics", "-",
	}, &out, new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out.String())
	}
	s := out.String()
	for _, want := range []string{
		"# TYPE engine_commits_total counter",
		"# TYPE engine_commit_latency_ns histogram",
		`engine_commit_latency_ns_bucket{engine="SI",le="+Inf"}`,
		`engine_commit_latency_ns_sum{engine="SI"}`,
		`engine_snapshot_age_ns_count{engine="SI"}`,
		`engine_sessions{engine="SI"}`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("metrics dump missing %q:\n%s", want, s)
		}
	}
}

// TestRunTrace checks -trace prints the per-stage table on stderr: the
// engine's commit pipeline, the run's workload stage and -certify's
// check_* stages.
func TestRunTrace(t *testing.T) {
	var out, errOut bytes.Buffer
	code, err := run([]string{
		"-engine", "si", "-workload", "registers",
		"-sessions", "2", "-txs", "5", "-certify", "-trace",
	}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out.String())
	}
	es := errOut.String()
	for _, want := range []string{"trace: per-stage latency", "workload", "check_extension_search", "begin_wait"} {
		if !strings.Contains(es, want) {
			t.Errorf("stderr missing %q:\n%s", want, es)
		}
	}
}

// TestRunMetricsJSONFile checks a *.json -metrics path selects the
// JSON exporter.
func TestRunMetricsJSONFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	var out bytes.Buffer
	code, err := run([]string{
		"-engine", "ser", "-workload", "registers",
		"-sessions", "2", "-txs", "5",
		"-metrics", path,
	}, &out, new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var metrics []map[string]any
	if err := json.Unmarshal(raw, &metrics); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	if len(metrics) == 0 {
		t.Error("metrics JSON is empty")
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
