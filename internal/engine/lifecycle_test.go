package engine_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"sian/internal/engine"
	"sian/internal/model"
	"sian/internal/obs/eventlog"
	"sian/internal/obs/txtrace"
)

// txOps is what a transaction body needs; *engine.Tx and
// *engine.ManualTx both provide it.
type txOps interface {
	Read(model.Obj) (model.Value, error)
	Write(model.Obj, model.Value) error
}

// lifecycleRun is one database with every observer attached, so a
// scenario's events, counters and traces can be compared across the
// two ways of running it.
type lifecycleRun struct {
	db     *engine.DB
	rec    *eventlog.Recorder
	tracer *txtrace.Tracer
	s, r   *engine.Session // the session under test and a rival
}

func newLifecycleRun(t *testing.T, kind engine.Kind) *lifecycleRun {
	t.Helper()
	rec := eventlog.NewRecorder(4096)
	tracer := txtrace.New(txtrace.Options{Start: 1})
	db, err := engine.New(kind, engine.Config{Recorder: rec, TxTracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.Initialize(map[model.Obj]model.Value{"x": 0, "y": 0}); err != nil {
		t.Fatal(err)
	}
	return &lifecycleRun{db: db, rec: rec, tracer: tracer, s: db.Session("s"), r: db.Session("r")}
}

// lifecycleScenario is a transaction body, told which attempt it runs
// in (1-based) and free to drive the rival session in between its own
// operations.
type lifecycleScenario func(t *testing.T, run *lifecycleRun, tx txOps, attempt int) error

var errRollback = errors.New("rollback")

// rmw reads x and writes it back incremented.
func rmw(tx txOps) error {
	v, err := tx.Read("x")
	if err != nil {
		return err
	}
	return tx.Write("x", v+1)
}

// loseFirstCommitterWins makes the first attempt's commit lose: under
// the snapshot kinds the rival commits a write of x first; under SER
// it holds a read lock on x across the commit and ends at the start of
// the next attempt.
func loseFirstCommitterWins(kind engine.Kind) lifecycleScenario {
	var held *engine.ManualTx
	return func(t *testing.T, run *lifecycleRun, tx txOps, attempt int) error {
		if held != nil {
			if err := held.Commit(); err != nil {
				t.Fatal(err)
			}
			held = nil
		}
		if err := rmw(tx); err != nil || attempt > 1 {
			return err
		}
		if kind == engine.SER {
			m, err := run.r.Begin("reader")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Read("x"); err != nil {
				t.Fatal(err)
			}
			held = m
			return nil
		}
		if err := run.r.TransactNamed("rival", func(tx *engine.Tx) error { return rmw(tx) }); err != nil {
			t.Fatal(err)
		}
		if kind == engine.PSI {
			run.db.Flush() // the retry's snapshot must include the rival
		}
		return nil
	}
}

// ssiReadConflict stages SSI's read-time refusal on the first attempt:
// the rival w reads y, a committed writer of y gives w an outgoing
// anti-dependency, and w then commits x above our snapshot — so our
// read of x would make w a pivot, and the reader aborts instead.
func ssiReadConflict(t *testing.T, run *lifecycleRun, tx txOps, attempt int) error {
	if attempt == 1 {
		w, err := run.r.Begin("w")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Read("y"); err != nil {
			t.Fatal(err)
		}
		if err := run.db.Session("u").Transact(func(tx *engine.Tx) error { return tx.Write("y", 1) }); err != nil {
			t.Fatal(err)
		}
		if err := w.Write("x", 7); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	err := rmw(tx)
	if attempt == 1 && !errors.Is(err, engine.ErrConflict) {
		t.Fatalf("first attempt's read: %v, want a conflict", err)
	}
	return err
}

// viaTransact runs the scenario through Session.TransactNamed.
func viaTransact(t *testing.T, run *lifecycleRun, body lifecycleScenario) error {
	attempt := 0
	return run.s.TransactNamed("t", func(tx *engine.Tx) error {
		attempt++
		return body(t, run, tx, attempt)
	})
}

// viaManualTx runs the scenario through Begin, Commit and Abort, with
// the retry loop written out: on a conflict, begin again.
func viaManualTx(t *testing.T, run *lifecycleRun, body lifecycleScenario) error {
	for attempt := 1; ; attempt++ {
		m, err := run.s.Begin("t")
		if err != nil {
			return err
		}
		if err = body(t, run, m, attempt); err != nil {
			m.Abort()
		} else {
			err = m.Commit()
		}
		if !errors.Is(err, engine.ErrConflict) {
			return err
		}
	}
}

// lifecycleObservation is everything a run records about its
// transactions.
type lifecycleObservation struct {
	err    error
	events []string
	stats  engine.Stats
	traces []string
}

func observe(run *lifecycleRun, err error) lifecycleObservation {
	o := lifecycleObservation{err: err, stats: run.db.Stats()}
	o.stats.Retries = 0 // Transact's own counter
	for _, e := range run.rec.Events() {
		o.events = append(o.events, fmt.Sprintf("%s %s %s %s", e.Kind, e.Session, e.TxID, e.Name))
	}
	for _, td := range run.tracer.Finished(0) {
		stages := make([]txtrace.Stage, len(td.Spans))
		for i, sp := range td.Spans {
			stages[i] = sp.Stage
		}
		o.traces = append(o.traces, fmt.Sprintf("%s %s %s %v", td.Session, td.TxID, td.Outcome, stages))
	}
	return o
}

// TestTransactMatchesManualTx pins the one transaction lifecycle:
// Transact is a retry loop over the functions Begin, Commit and Abort
// use, so the same scenario run either way records the same events,
// counters (apart from Transact's retries), trace stages and outcomes.
func TestTransactMatchesManualTx(t *testing.T) {
	for _, kind := range []engine.Kind{engine.SI, engine.SSI, engine.PSI, engine.SER} {
		scenarios := []struct {
			name     string
			conflict bool
			body     func() lifecycleScenario
		}{
			{"commit", false, func() lifecycleScenario {
				return func(_ *testing.T, _ *lifecycleRun, tx txOps, _ int) error { return rmw(tx) }
			}},
			{"first-committer-wins", true, func() lifecycleScenario { return loseFirstCommitterWins(kind) }},
			{"read-conflict", true, func() lifecycleScenario { return ssiReadConflict }},
			{"rollback", false, func() lifecycleScenario {
				return func(_ *testing.T, _ *lifecycleRun, tx txOps, _ int) error {
					if err := rmw(tx); err != nil {
						return err
					}
					return errRollback
				}
			}},
		}
		for _, sc := range scenarios {
			if sc.name == "read-conflict" && kind != engine.SSI {
				continue // only SSI refuses a read
			}
			t.Run(kind.String()+"/"+sc.name, func(t *testing.T) {
				transact := newLifecycleRun(t, kind)
				manual := newLifecycleRun(t, kind)
				got := observe(transact, viaTransact(t, transact, sc.body()))
				want := observe(manual, viaManualTx(t, manual, sc.body()))
				if got.err != want.err {
					t.Errorf("error: Transact %v, ManualTx %v", got.err, want.err)
				}
				if !reflect.DeepEqual(got.events, want.events) {
					t.Errorf("events:\nTransact %q\nManualTx %q", got.events, want.events)
				}
				if got.stats != want.stats {
					t.Errorf("stats: Transact %+v, ManualTx %+v", got.stats, want.stats)
				}
				if !reflect.DeepEqual(got.traces, want.traces) {
					t.Errorf("traces:\nTransact %q\nManualTx %q", got.traces, want.traces)
				}
				if (got.stats.Conflicts > 0) != sc.conflict {
					t.Errorf("conflicts = %d, want a conflict: %v", got.stats.Conflicts, sc.conflict)
				}
			})
		}
	}
}
