package engine_test

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"sian/internal/engine"
	"sian/internal/model"
	"sian/internal/obs"
	"sian/internal/obs/txtrace"
)

// TestTracedTransactStages pins the in-process stage sequence: a
// traced committed transaction carries the full pipeline span set in
// order, and untraced engines hand out zero-cost nil traces.
func TestTracedTransactStages(t *testing.T) {
	for _, kind := range []engine.Kind{engine.SI, engine.PSI, engine.SSI} {
		t.Run(kind.String(), func(t *testing.T) {
			tracer := txtrace.New(txtrace.Options{Start: 100})
			db, err := engine.New(kind, engine.Config{TxTracer: tracer})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			sess := db.Session("s1")
			if err := sess.Transact(func(tx *engine.Tx) error {
				return tx.Write("x", 1)
			}); err != nil {
				t.Fatal(err)
			}
			td := tracer.Get(100)
			if td == nil {
				t.Fatal("no trace for the committed transaction")
			}
			if td.Outcome != txtrace.OutcomeCommit {
				t.Errorf("outcome = %s", td.Outcome)
			}
			if td.TxID == "" {
				t.Error("trace has no txid")
			}
			// In-memory driver: the pipeline minus the WAL stages, the
			// same for every kind on the one commit path.
			want := []txtrace.Stage{
				txtrace.StageBeginWait, txtrace.StageReads, txtrace.StageLockWait,
				txtrace.StageValidate, txtrace.StageInstall, txtrace.StagePublish,
				txtrace.StageAck,
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

// TestTracedConflictOutcome pins the conflict path: the losing
// transaction's trace finishes with outcome "conflict" and stops at
// the validate span.
func TestTracedConflictOutcome(t *testing.T) {
	tracer := txtrace.New(txtrace.Options{Start: 1})
	db, err := engine.New(engine.SI, engine.Config{TxTracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	s1, s2 := db.Session("a"), db.Session("b")
	tx1, err := s1.Begin("t1")
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := s2.Begin("t2")
	if err != nil {
		t.Fatal(err)
	}
	if err := tx1.Write("x", 1); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Write("x", 2); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != engine.ErrConflict {
		t.Fatalf("second writer: %v, want conflict", err)
	}
	loser := tracer.Get(tx2.TraceID())
	if loser == nil || loser.Outcome != txtrace.OutcomeConflict {
		t.Fatalf("loser trace: %+v", loser)
	}
	last := loser.Spans[len(loser.Spans)-1]
	if last.Stage != txtrace.StageValidate {
		t.Errorf("loser's last span = %s, want validate", last.Stage)
	}
}

// TestTracerRaceHammer runs committing sessions, Compact, explicit GC
// and every tracer read path concurrently — the -race gate for the
// claim that tracing adds no unsynchronized state to the commit path.
func TestTracerRaceHammer(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := txtrace.New(txtrace.Options{Capacity: 64, SlowCap: 8, Metrics: reg})
	db, err := engine.New(engine.SI, engine.Config{TxTracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const sessions = 6
	const txPerSession = 150
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := db.Session(fmt.Sprintf("s%d", w))
			for i := 0; i < txPerSession; i++ {
				obj := model.Obj(fmt.Sprintf("x%d", i%8))
				_ = sess.Transact(func(tx *engine.Tx) error {
					if _, err := tx.Read(obj); err != nil && err != engine.ErrUninitialized {
						return err
					}
					return tx.Write(obj, model.Value(i))
				})
			}
		}(w)
	}
	// Background churn: version GC and the runtime's own GC, plus all
	// tracer readers, racing the commit pipeline.
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.Compact()
			runtime.GC()
			for _, td := range tracer.Slow(0, 4) {
				tracer.Get(td.ID())
			}
			tracer.Finished(16)
			tracer.StageLatencies()
			reg.WritePrometheus(io.Discard)
			time.Sleep(100 * time.Microsecond)
		}
	}()
	wg.Wait()
	close(stop)
	churn.Wait()

	started, finished := reg.Counter("trace_started_total").Value(), reg.Counter("trace_finished_total").Value()
	if finished < sessions*txPerSession {
		t.Errorf("finished = %d, want ≥ %d (every transact, including conflict retries, finishes a trace)",
			finished, sessions*txPerSession)
	}
	if started < finished {
		t.Errorf("started %d < finished %d", started, finished)
	}
	// Retention invariant under churn: every slow-log entry resolves.
	for _, td := range tracer.Slow(0, 0) {
		if tracer.Get(td.ID()) == nil {
			t.Errorf("slow trace %s not resolvable", td.TraceID)
		}
	}
}

// TestTracingOffIsFree pins the off-by-default contract: without a
// tracer the engine hands transactions nil traces and records nothing.
func TestTracingOffIsFree(t *testing.T) {
	db, err := engine.New(engine.SI, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sess := db.Session("s")
	tx, err := sess.Begin("t")
	if err != nil {
		t.Fatal(err)
	}
	if tx.TraceID() != 0 {
		t.Error("untraced transaction has a trace ID")
	}
	if err := tx.Write("x", 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.TraceData() != nil {
		t.Error("untraced transaction produced trace data")
	}
}
