package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"strings"
	"testing"

	"sian/internal/check"
	"sian/internal/depgraph"
	"sian/internal/engine"
	"sian/internal/obs"
	"sian/internal/siwire"
	"sian/internal/storage/wal"
)

// startWireServer runs an in-process siwire server over a WAL-backed
// SI engine, standing in for a remote siserve, and returns its address
// and engine.
func startWireServer(t *testing.T) (string, *engine.DB) {
	t.Helper()
	drv, err := wal.Open(wal.Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	db, err := engine.New(engine.SI, engine.Config{Driver: drv})
	if err != nil {
		t.Fatal(err)
	}
	srv := siwire.NewServer(siwire.ServerConfig{
		DB: db,
		Info: func() siwire.Info {
			return siwire.Info{Name: "siserve", Engine: "si", GitRev: "feedc0de1234", Durable: true}
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return ln.Addr().String(), db
}

// TestNetworkMode drives the full sibench pipeline against a live
// server: the closed loop runs over the wire, and the history the
// server's engine recorded holds exactly the pool initialisation plus
// sessions × txs commits and certifies SI.
func TestNetworkMode(t *testing.T) {
	addr, db := startWireServer(t)

	var out, errw bytes.Buffer
	code, err := run([]string{
		"-addr", addr, "-workload", "closedloop", "-sessions", "3", "-txs", "20",
		"-objects", "8",
	}, &out, &errw)
	if err != nil || code != 0 {
		t.Fatalf("run: %d, %v\nstdout: %s\nstderr: %s", code, err, out.String(), errw.String())
	}
	for _, want := range []string{"rev=feedc0de1234", "network closedloop: 60 commits"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout lacks %q: %s", want, out.String())
		}
	}

	db.Flush()
	h := db.History()
	if n := h.NumTransactions(); n != 1+3*20 {
		t.Errorf("server history holds %d transactions, want 1 pool initialisation + 3×20", n)
	}
	res, err := check.Certify(h, depgraph.SI, check.Options{NoInit: true, PinInit: true, Budget: 5_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Member {
		t.Fatalf("server history not allowed by SI: %v", res.Explain)
	}
}

// readMetricsJSON decodes a *.json -metrics dump into one value per
// series: a counter's value or a histogram's count, keyed by name, or
// by name/stage for the trace_stage_ns series.
func readMetricsJSON(t *testing.T, path string) map[string]int64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var metrics []obs.JSONMetric
	if err := json.Unmarshal(raw, &metrics); err != nil {
		t.Fatalf("metrics JSON does not parse: %v\n%s", err, raw)
	}
	vals := map[string]int64{}
	for _, m := range metrics {
		key := m.Name
		if stage := m.Labels["stage"]; stage != "" {
			key += "/" + stage
		}
		switch {
		case m.Value != nil:
			vals[key] = *m.Value
		case m.Count != nil:
			vals[key] = *m.Count
		}
	}
	return vals
}

// TestNetworkModeFlagValidation pins the -addr flag exclusions.
func TestNetworkModeFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-addr", "127.0.0.1:1", "-workload", "registers"},
		{"-addr", "127.0.0.1:1", "-workload", "closedloop", "-certify"},
		{"-addr", "127.0.0.1:1", "-workload", "closedloop", "-record", "x.ndjson"},
		{"-addr", "127.0.0.1:1", "-workload", "closedloop", "-engine", "psi"},
	} {
		var out, errw bytes.Buffer
		if code, err := run(args, &out, &errw); err == nil || code != 2 {
			t.Errorf("run(%v) = %d, %v; want code 2 and an error", args, code, err)
		}
	}
}
