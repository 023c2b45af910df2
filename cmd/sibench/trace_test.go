package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sian/internal/engine"
	"sian/internal/obs"
	"sian/internal/obs/txtrace"
	"sian/internal/siwire"
	"sian/internal/storage/wal"
)

// startTracedWireServer is startWireServer with server-side
// transaction tracing on, standing in for `siserve -trace`. It returns
// the address and the registry of the server tracer's series.
func startTracedWireServer(t *testing.T) (string, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	tracer := txtrace.New(txtrace.Options{Metrics: reg})
	drv, err := wal.Open(wal.Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	db, err := engine.New(engine.SI, engine.Config{Driver: drv, TxTracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	srv := siwire.NewServer(siwire.ServerConfig{DB: db})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return ln.Addr().String(), reg
}

// TestTraceTxnsInProcess runs -trace against the in-process engine:
// the stage table prints and the registry carries the per-stage
// breakdown without disturbing the headline metrics.
func TestTraceTxnsInProcess(t *testing.T) {
	metricsPath := filepath.Join(t.TempDir(), "metrics.json")
	var out, errw bytes.Buffer
	code, err := run([]string{
		"-workload", "closedloop", "-sessions", "2", "-txs", "15", "-objects", "4",
		"-trace", "-metrics", metricsPath,
	}, &out, &errw)
	if err != nil || code != 0 {
		t.Fatalf("run: %d, %v\n%s\n%s", code, err, out.String(), errw.String())
	}
	text := errw.String()
	if !strings.Contains(text, "trace: per-stage latency") {
		t.Errorf("no stage table in:\n%s", text)
	}
	for _, stage := range []string{"begin_wait", "validate", "publish", "ack"} {
		if !strings.Contains(text, stage) {
			t.Errorf("stage %s missing from table:\n%s", stage, text)
		}
	}

	vals := readMetricsJSON(t, metricsPath)
	if acks := vals["trace_stage_ns/ack"]; acks < 2*15 {
		t.Errorf("ack count = %d, want ≥ %d", acks, 2*15)
	}
	if commits := vals["engine_commits_total"]; commits < 2*15 {
		t.Errorf("headline metrics disturbed: %d commits", commits)
	}
}

// TestTraceTxnsNetworkMerged drives a traced client against a traced
// server: stage tables carry both the wire and pipeline stages, the
// -timeline dump is the merged Perfetto document, and the server's
// tracer resolves the client-minted IDs. A second run with -timeline
// alone writes the same document: -timeline turns tracing on.
func TestTraceTxnsNetworkMerged(t *testing.T) {
	addr, srvMetrics := startTracedWireServer(t)
	dir := t.TempDir()
	timelinePath := filepath.Join(dir, "merged.json")
	metricsPath := filepath.Join(dir, "metrics.json")

	var out, errw bytes.Buffer
	code, err := run([]string{
		"-addr", addr, "-workload", "closedloop", "-sessions", "2", "-txs", "10",
		"-objects", "4", "-trace", "-timeline", timelinePath, "-metrics", metricsPath,
	}, &out, &errw)
	if err != nil || code != 0 {
		t.Fatalf("run: %d, %v\n%s\n%s", code, err, out.String(), errw.String())
	}
	text := errw.String()
	for _, stage := range []string{"wire_begin", "wire_commit", "fsync_wait", "publish"} {
		if !strings.Contains(text, stage) {
			t.Errorf("stage %s missing from merged table:\n%s", stage, text)
		}
	}
	if !strings.Contains(text, "wire_begin times only the enqueue") {
		t.Errorf("network stage table lacks the pipelining legend:\n%s", text)
	}

	// The merged timeline holds stage slices on both process tracks.
	if pids := stageSlicesByPid(t, timelinePath); pids[1] == 0 || pids[2] == 0 {
		t.Errorf("timeline stage slices by pid = %v, want client (1) and server (2)", pids)
	}

	// Every committed client trace resolves on the server too: the IDs
	// crossed the wire.
	vals := readMetricsJSON(t, metricsPath)
	commits := vals["siwire_client_commit_latency_ns"]
	if !strings.Contains(out.String(), "network closedloop: 20 commits") || commits != 2*10 || vals["trace_stage_ns/wire_commit"] < commits {
		t.Errorf("network run: stdout %q, %d client commits, %d wire_commit stages",
			out.String(), commits, vals["trace_stage_ns/wire_commit"])
	}
	if finished := srvMetrics.Counter("trace_finished_total").Value(); finished < commits {
		t.Errorf("server finished %d traces for %d commits", finished, commits)
	}

	bare := filepath.Join(dir, "bare.json")
	if code, err := run([]string{
		"-addr", addr, "-workload", "closedloop", "-sessions", "2", "-txs", "5",
		"-objects", "4", "-timeline", bare,
	}, &out, &errw); err != nil || code != 0 {
		t.Fatalf("-timeline alone: %d, %v", code, err)
	}
	if pids := stageSlicesByPid(t, bare); pids[1] == 0 || pids[2] == 0 {
		t.Errorf("-timeline alone: stage slices by pid = %v, want client (1) and server (2)", pids)
	}
}

// stageSlicesByPid counts a timeline's stage slices per process track.
func stageSlicesByPid(t *testing.T, path string) map[int]int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Pid int    `json:"pid"`
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("timeline does not parse: %v", err)
	}
	pids := map[int]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Cat == "stage" {
			pids[ev.Pid]++
		}
	}
	return pids
}
