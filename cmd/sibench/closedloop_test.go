package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"sian/internal/check"
	"sian/internal/depgraph"
	"sian/internal/engine"
	"sian/internal/monitor"
	"sian/internal/obs/eventlog"
	"sian/internal/workload"
)

// TestConcurrentDifferentialCertification is the safety net for the
// multicore engine: every concurrent benchmark configuration must emit
// histories the offline checker certifies as SI *and* event streams
// the online monitor agrees on. Run under -race in CI, this pins the
// sharded-store/lock-free-begin engine to the paper's SI definition on
// real concurrent executions, not just the deterministic fixtures.
func TestConcurrentDifferentialCertification(t *testing.T) {
	t.Parallel()
	configs := []struct {
		name string
		cfg  workload.ClosedLoopConfig
	}{
		{"disjoint", workload.ClosedLoopConfig{Sessions: 4, Ops: 20, Objects: 4, Disjoint: true, Seed: 1}},
		{"shared", workload.ClosedLoopConfig{Sessions: 4, Ops: 20, Objects: 8, Seed: 2}},
		{"hotkeys", workload.ClosedLoopConfig{Sessions: 6, Ops: 15, Objects: 32, HotKeys: 2, Seed: 3}},
		{"writeheavy", workload.ClosedLoopConfig{Sessions: 4, Ops: 20, Objects: 6, ReadFraction: 100, Seed: 4}},
	}
	for _, tc := range configs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rec := eventlog.NewRecorder(1 << 17)
			db, err := engine.New(engine.SI, engine.Config{Recorder: rec})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			out, err := workload.RunClosedLoop(db, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if out.Commits == 0 {
				t.Fatal("workload committed nothing")
			}
			db.Flush()

			// Offline: the complete recorded history must be SI.
			res, err := check.Certify(db.History(), depgraph.SI, check.Options{
				NoInit: true, PinInit: true, Budget: 5_000_000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Member {
				t.Fatalf("history not allowed by SI: %v", res.Explain)
			}

			// Online: the monitor over the recorded event stream must
			// agree, definitively (no window, so verdicts are exact).
			if dropped := rec.Dropped(); dropped > 0 {
				t.Fatalf("recorder dropped %d events; raise the ring capacity", dropped)
			}
			mon := monitor.New(monitor.Config{Model: depgraph.SI})
			for _, ev := range rec.Events() {
				mon.Ingest(ev)
			}
			rep, err := mon.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Member {
				for _, v := range rep.Violations {
					t.Logf("violation: %v", v)
				}
				t.Fatalf("monitor rejects the stream the checker certified (%d events, %d commits)",
					rep.Events, rep.Commits)
			}
			if !rep.Definitive {
				t.Error("unwindowed monitor verdict should be definitive")
			}
			if int64(rep.Commits) != out.Commits+1 {
				t.Errorf("monitor saw %d commits, engine counted %d (+1 init = %d)",
					rep.Commits, out.Commits, out.Commits+1)
			}
		})
	}
}

// TestDisjointPoolsConflictFree checks the scaling workload's defining
// property end to end through the CLI: disjoint pools must produce zero
// conflicts and zero retries in the -metrics registry.
func TestDisjointPoolsConflictFree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	var out bytes.Buffer
	code, err := run([]string{
		"-engine", "si", "-workload", "closedloop",
		"-sessions", "4", "-txs", "25", "-objects", "4",
		"-disjoint", "-metrics", path,
	}, &out, new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out.String())
	}
	vals := readMetricsJSON(t, path)
	if commits := vals["engine_commits_total"]; commits < 4*25 {
		t.Errorf("commits = %d, want ≥ %d", commits, 4*25)
	}
	conflicts, ok1 := vals["engine_conflicts_total"]
	retries, ok2 := vals["engine_retries_total"]
	if !ok1 || !ok2 || conflicts != 0 || retries != 0 {
		t.Errorf("conflicts=%d (present %v) retries=%d (present %v) on disjoint pools", conflicts, ok1, retries, ok2)
	}
}
