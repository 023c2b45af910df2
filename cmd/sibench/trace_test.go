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
	"sian/internal/obs/ledger"
	"sian/internal/obs/txtrace"
	"sian/internal/siwire"
	"sian/internal/storage/wal"
)

// startTracedWireServer is startWireServer with server-side
// transaction tracing on, standing in for `siserve -trace-txns`.
func startTracedWireServer(t *testing.T) (string, *txtrace.Tracer) {
	t.Helper()
	tracer := txtrace.New(txtrace.Options{})
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
	return ln.Addr().String(), tracer
}

// TestTraceTxnsInProcess runs -trace-txns against the in-process
// engine: the stage table prints and the ledger entry carries the
// per-stage breakdown without disturbing the headline metrics.
func TestTraceTxnsInProcess(t *testing.T) {
	ledgerPath := filepath.Join(t.TempDir(), "ledger.ndjson")
	var out, errw bytes.Buffer
	code, err := run([]string{
		"-workload", "closedloop", "-sessions", "2", "-txs", "15", "-objects", "4",
		"-trace-txns", "-ledger", ledgerPath,
	}, &out, &errw)
	if err != nil || code != 0 {
		t.Fatalf("run: %d, %v\n%s\n%s", code, err, out.String(), errw.String())
	}
	text := out.String()
	if !strings.Contains(text, "trace: per-stage latency") {
		t.Errorf("no stage table in:\n%s", text)
	}
	for _, stage := range []string{"begin_wait", "validate", "publish", "ack"} {
		if !strings.Contains(text, stage) {
			t.Errorf("stage %s missing from table:\n%s", stage, text)
		}
	}

	entries, err := ledger.Read(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	rep := entries[0].Report
	if len(rep.Stages) == 0 {
		t.Fatal("ledger entry has no stages")
	}
	byStage := map[string]ledger.StageLatency{}
	for _, s := range rep.Stages {
		byStage[s.Stage] = s
	}
	if byStage["ack"].Count < 2*15 {
		t.Errorf("ack count = %d, want ≥ %d", byStage["ack"].Count, 2*15)
	}
	if rep.Commits < 2*15 || rep.TxsPerSec <= 0 {
		t.Errorf("headline metrics disturbed: %+v", rep)
	}
}

// TestTraceTxnsNetworkMerged drives a traced client against a traced
// server: stage tables carry both the wire and pipeline stages, the
// -timeline dump is the merged Perfetto document, and the server's
// tracer resolves the client-minted IDs.
func TestTraceTxnsNetworkMerged(t *testing.T) {
	addr, srvTracer := startTracedWireServer(t)
	dir := t.TempDir()
	timelinePath := filepath.Join(dir, "merged.json")
	ledgerPath := filepath.Join(dir, "ledger.ndjson")

	var out, errw bytes.Buffer
	code, err := run([]string{
		"-addr", addr, "-workload", "closedloop", "-sessions", "2", "-txs", "10",
		"-objects", "4", "-trace-txns", "-timeline", timelinePath, "-ledger", ledgerPath,
	}, &out, &errw)
	if err != nil || code != 0 {
		t.Fatalf("run: %d, %v\n%s\n%s", code, err, out.String(), errw.String())
	}
	text := out.String()
	for _, stage := range []string{"wire_begin", "wire_commit", "fsync_wait", "publish"} {
		if !strings.Contains(text, stage) {
			t.Errorf("stage %s missing from merged table:\n%s", stage, text)
		}
	}
	if !strings.Contains(text, "wire_begin times only the enqueue") {
		t.Errorf("network stage table lacks the pipelining legend:\n%s", text)
	}

	// The merged timeline parses and holds both process tracks.
	raw, err := os.ReadFile(timelinePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Pid  int    `json:"pid"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("timeline does not parse: %v", err)
	}
	pids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		pids[ev.Pid] = true
	}
	if !pids[1] || !pids[2] {
		t.Errorf("timeline pids = %v, want client (1) and server (2)", pids)
	}

	// Every committed client trace resolves on the server too: the IDs
	// crossed the wire.
	entries, err := ledger.Read(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	rep := entries[0].Report
	if len(rep.Stages) == 0 {
		t.Error("network ledger entry has no stages")
	}
	if _, finished, _ := srvTracer.Stats(); finished < rep.Commits {
		t.Errorf("server finished %d traces for %d commits", finished, rep.Commits)
	}
}

// TestTraceTxnsFlagValidation pins the new exclusions: -trace-txns
// rejects -sweep, and network -timeline requires -trace-txns.
func TestTraceTxnsFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "closedloop", "-sweep", "1,2", "-trace-txns"},
		{"-addr", "127.0.0.1:1", "-workload", "closedloop", "-timeline", "x.json"},
	} {
		var out, errw bytes.Buffer
		if code, err := run(args, &out, &errw); err == nil || code != 2 {
			t.Errorf("run(%v) = %d, %v; want code 2 and an error", args, code, err)
		}
	}
}
