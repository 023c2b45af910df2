package engine_test

import (
	"sync"
	"sync/atomic"
	"testing"

	. "sian/internal/engine"
	"sian/internal/model"
	"sian/internal/obs"
	"sian/internal/obs/txtrace"
)

// TestAttemptClockBudget holds the commit path to its clock budget. A
// timed attempt reads the clock three times (at begin, before and after
// its commit); an untraced session times its first attempt and then one
// in obs.SampleEvery, so 6 400 read-modify-writes on two sessions read
// it at most 3·(2 + 6400/32) times, twice the expected count. A traced
// attempt is always timed, and its commit latency carries its trace as
// the bucket's exemplar. Not parallel: it swaps the package's clock.
func TestAttemptClockBudget(t *testing.T) {
	rmw := func(x model.Obj) func(*Tx) error {
		return func(tx *Tx) error {
			v, err := tx.Read(x)
			if err != nil {
				return err
			}
			return tx.Write(x, v+1)
		}
	}
	lbl := obs.L("engine", SI.String())

	t.Run("untraced", func(t *testing.T) {
		var reads atomic.Int64
		defer SetMonoNow(func() int64 { return reads.Add(1) })()
		reg := obs.NewRegistry()
		db := newDB(t, SI, Config{Metrics: reg})
		if err := db.Initialize(map[model.Obj]model.Value{"a": 0, "b": 0}); err != nil {
			t.Fatal(err)
		}
		reads.Store(0)
		const perSession = 3200
		var wg sync.WaitGroup
		for _, x := range []model.Obj{"a", "b"} {
			s := db.Session(string(x))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perSession; i++ {
					if err := s.Transact(rmw(x)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		const budget = 3 * (2 + 2*perSession/32)
		got := reads.Load()
		t.Logf("%d clock reads for %d commits", got, 2*perSession)
		if got > budget {
			t.Errorf("%d clock reads for %d commits, want ≤ %d", got, 2*perSession, budget)
		}
		// Disjoint keys: no conflicts, so every timed attempt commits,
		// reads three times and is observed once more than Initialize's.
		timed := reg.Histogram("engine_commit_latency_ns", lbl).Count() - 1
		if got != 3*timed || timed < 2 {
			t.Errorf("%d clock reads for %d timed commits, want 3 each and ≥ 2 timed", got, timed)
		}
		if c := reg.Counter("engine_commits_total", lbl).Value(); c != 2*perSession+1 {
			t.Errorf("engine_commits_total = %d, want %d: counters stay exact", c, 2*perSession+1)
		}
	})

	t.Run("traced", func(t *testing.T) {
		// The clock ticks once per read, except that the read after
		// commit i jumps 2^i: commit i's latency is 2^i and lands alone
		// in bucket i+1, so every commit leaves an exemplar of its own.
		var reads, now int64
		defer SetMonoNow(func() int64 {
			reads++
			if reads%3 == 0 {
				now += 1 << (reads/3 - 1)
			} else {
				now++
			}
			return now
		})()
		reg := obs.NewRegistry()
		tracer := txtrace.New(txtrace.Options{Start: 1})
		db := newDB(t, SI, Config{Metrics: reg, TxTracer: tracer})
		if err := db.Initialize(map[model.Obj]model.Value{"a": 0, "b": 0}); err != nil {
			t.Fatal(err)
		}
		sa, sb := db.Session("a"), db.Session("b")
		for i := 0; i < 10; i++ {
			if err := sa.Transact(rmw("a")); err != nil {
				t.Fatal(err)
			}
			if err := sb.Transact(rmw("b")); err != nil {
				t.Fatal(err)
			}
		}
		commits := db.Stats().Commits
		if reads != 3*commits {
			t.Fatalf("%d clock reads for %d traced commits, want exactly 3 each", reads, commits)
		}
		h := reg.Histogram("engine_commit_latency_ns", lbl)
		seen := make(map[uint64]bool)
		for i := 0; i < int(commits); i++ {
			e := h.BucketExemplar(i + 1)
			if e == nil || e.Value != 1<<i {
				t.Errorf("commit %d: bucket %d exemplar %+v, want value %d", i, i+1, e, 1<<i)
				continue
			}
			if td := tracer.Get(e.TraceID); td == nil || td.Outcome != txtrace.OutcomeCommit || seen[e.TraceID] {
				t.Errorf("commit %d: exemplar trace %d does not resolve to a commit of its own", i, e.TraceID)
			}
			seen[e.TraceID] = true
		}
	})
}
