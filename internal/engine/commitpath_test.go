package engine_test

import (
	"testing"

	"sian/internal/check"
	"sian/internal/depgraph"
	"sian/internal/engine"
	"sian/internal/model"
	"sian/internal/monitor"
	"sian/internal/obs/eventlog"
	"sian/internal/obs/txtrace"
	"sian/internal/workload"
)

// TestCommitPathCertification certifies the one commit path against
// the paper's definitions from both sides, for each engine kind that
// runs on it and the model that kind promises (SI → SI, SSI → SER,
// PSI → PSI): a disjoint and a 2-hot-key closed loop — and, for SSI, a
// wider 8-session hot-key loop that keeps the veto busy — run to
// completion, and each history must be a member of the model for the
// offline checker (check.Certify) and for the online monitor over the
// recorded event stream, with the commit count exact. Run under -race
// in CI, this pins the lock window, the SSI and PSI vetoes taken inside
// it and the ordered-publish gate to the definitions. The PSI rows'
// other side, a history PSI allows and SI rejects, is
// TestStageLongFork's.
func TestCommitPathCertification(t *testing.T) {
	t.Parallel()
	disjoint := workload.ClosedLoopConfig{Sessions: 4, Ops: 20, Objects: 4, Disjoint: true, Seed: 11}
	hotkeys := workload.ClosedLoopConfig{Sessions: 6, Ops: 15, Objects: 32, HotKeys: 2, Seed: 12}
	configs := []struct {
		kind  engine.Kind
		model depgraph.Model
		name  string
		cfg   workload.ClosedLoopConfig
	}{
		{engine.SI, depgraph.SI, "disjoint", disjoint},
		{engine.SI, depgraph.SI, "hotkeys", hotkeys},
		{engine.SSI, depgraph.SER, "disjoint", disjoint},
		{engine.SSI, depgraph.SER, "hotkeys", hotkeys},
		{engine.SSI, depgraph.SER, "hot8", workload.ClosedLoopConfig{Sessions: 8, Ops: 10, Objects: 16, HotKeys: 2, Seed: 13}},
		{engine.PSI, depgraph.PSI, "disjoint", disjoint},
		{engine.PSI, depgraph.PSI, "hotkeys", hotkeys},
	}
	for _, tc := range configs {
		tc := tc
		t.Run(tc.kind.String()+"/"+tc.name, func(t *testing.T) {
			t.Parallel()
			rec := eventlog.NewRecorder(1 << 17)
			db, err := engine.New(tc.kind, engine.Config{Recorder: rec})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			out, err := workload.RunClosedLoop(db, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if out.Commits != int64(tc.cfg.Sessions*tc.cfg.Ops) {
				t.Fatalf("commits = %d, want %d (closed loop retries to completion)",
					out.Commits, tc.cfg.Sessions*tc.cfg.Ops)
			}
			db.Flush()

			// Offline: the complete recorded history must be in the model.
			res, err := check.Certify(db.History(), tc.model, check.Options{
				NoInit: true, PinInit: true, Budget: 5_000_000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Member {
				t.Fatalf("history not allowed by %v: %v", tc.model, res.Explain)
			}

			// Online: the monitor over the same event stream must agree,
			// definitively.
			if dropped := rec.Dropped(); dropped > 0 {
				t.Fatalf("recorder dropped %d events; raise the ring capacity", dropped)
			}
			mon := monitor.New(monitor.Config{Model: tc.model})
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

// TestReadOnlyCommitTraceStage pins the ack-terminal stage of
// read-only commits: a traced read-only transaction's span sequence
// ends reads → ro_commit → ack on every engine with a read-only fast
// path, so its commit latency stays attributable in /trace/{id} span
// trees instead of jumping from reads straight to ack.
func TestReadOnlyCommitTraceStage(t *testing.T) {
	for _, kind := range []engine.Kind{engine.SI, engine.PSI, engine.SSI} {
		t.Run(kind.String(), func(t *testing.T) {
			tracer := txtrace.New(txtrace.Options{})
			db, err := engine.New(kind, engine.Config{TxTracer: tracer})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := db.Initialize(map[model.Obj]model.Value{"x": 1}); err != nil {
				t.Fatal(err)
			}
			if err := db.Session("r").Transact(func(tx *engine.Tx) error {
				_, err := tx.Read("x")
				return err
			}); err != nil {
				t.Fatal(err)
			}
			finished := tracer.Finished(1)
			if len(finished) != 1 {
				t.Fatal("no trace for the read-only transaction")
			}
			td := finished[0]
			if td.Outcome != txtrace.OutcomeCommit {
				t.Fatalf("outcome = %s", td.Outcome)
			}
			want := []txtrace.Stage{
				txtrace.StageBeginWait, txtrace.StageReads, txtrace.StageROCommit, txtrace.StageAck,
			}
			if len(td.Spans) != len(want) {
				t.Fatalf("spans: %v", td.Spans)
			}
			for i, st := range want {
				if td.Spans[i].Stage != st {
					t.Errorf("span %d = %s, want %s", i, td.Spans[i].Stage, st)
				}
			}
		})
	}
}
