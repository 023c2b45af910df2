package engine_test

import (
	"errors"
	"testing"

	. "sian/internal/engine"
	"sian/internal/model"
	"sian/internal/obs"
)

// TestAbortsCountedDistinctly checks the Stats asymmetry fix: aborts
// initiated by the client (callback errors, ManualTx.Abort) land in
// Stats.Aborts, while first-committer-wins conflicts land in
// Stats.Conflicts — never mixed.
func TestAbortsCountedDistinctly(t *testing.T) {
	t.Parallel()
	db := newDB(t, SI, Config{})
	if err := db.Initialize(map[model.Obj]model.Value{"x": 0}); err != nil {
		t.Fatal(err)
	}
	s := db.Session("s")

	// 1. Callback error: one abort, no conflict.
	boom := errors.New("boom")
	if err := s.Transact(func(tx *Tx) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	st := db.Stats()
	if st.Aborts != 1 || st.Conflicts != 0 {
		t.Errorf("after callback error: aborts=%d conflicts=%d, want 1/0", st.Aborts, st.Conflicts)
	}

	// 2. ManualTx.Abort: second abort, still no conflict.
	mtx, err := s.Begin("manual")
	if err != nil {
		t.Fatal(err)
	}
	if err := mtx.Write("x", 7); err != nil {
		t.Fatal(err)
	}
	mtx.Abort()
	st = db.Stats()
	if st.Aborts != 2 || st.Conflicts != 0 {
		t.Errorf("after manual abort: aborts=%d conflicts=%d, want 2/0", st.Aborts, st.Conflicts)
	}

	// 3. First-committer-wins: one conflict, aborts unchanged.
	s2 := db.Session("s2")
	t1, err := s.Begin("t1")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s2.Begin("t2")
	if err != nil {
		t.Fatal(err)
	}
	if err := t1.Write("x", 1); err != nil {
		t.Fatal(err)
	}
	if err := t2.Write("x", 2); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer err = %v, want ErrConflict", err)
	}
	st = db.Stats()
	if st.Aborts != 2 || st.Conflicts != 1 {
		t.Errorf("after conflict: aborts=%d conflicts=%d, want 2/1", st.Aborts, st.Conflicts)
	}
	if st.Commits != 2 {
		t.Errorf("commits = %d, want 2 (Initialize and t1)", st.Commits)
	}
}

// TestMetricsRegistry checks the engine publishes its counters and
// latency histograms into the registry handed in via Config, labelled
// by engine kind.
func TestMetricsRegistry(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	db := newDB(t, SI, Config{Metrics: reg})
	if db.Metrics() != reg {
		t.Fatal("Metrics() must return the configured registry")
	}
	if err := db.Initialize(map[model.Obj]model.Value{"x": 0}); err != nil {
		t.Fatal(err)
	}
	lbl := obs.L("engine", SI.String())
	lat := reg.Histogram("engine_commit_latency_ns", lbl)
	age := reg.Histogram("engine_snapshot_age_ns", lbl)
	// The histograms observe a sample of the attempts, but always a
	// session's first: Initialize's, then s's.
	if got := lat.Count(); got != 1 {
		t.Errorf("commit latency observations after Initialize = %d, want 1", got)
	}
	s := db.Session("s")
	const commits = 5
	for i := 0; i < commits; i++ {
		if err := s.Transact(func(tx *Tx) error { return tx.Write("x", model.Value(i)) }); err != nil {
			t.Fatal(err)
		}
		if got := lat.Count(); i == 0 && got != 2 {
			t.Errorf("commit latency observations after s's first commit = %d, want 2", got)
		}
	}
	// Initialize commits one transaction too.
	wantCommits := int64(commits + 1)
	if got := reg.Counter("engine_commits_total", lbl).Value(); got != wantCommits {
		t.Errorf("engine_commits_total = %d, want %d", got, wantCommits)
	}
	if got := reg.Counter("engine_commits_total", lbl).Value(); got != db.Stats().Commits {
		t.Errorf("registry counter (%d) and Stats.Commits (%d) disagree", got, db.Stats().Commits)
	}
	// One in obs.SampleEvery on average, so at most one observation per
	// 32 commits beyond each session's first.
	if got, most := lat.Count(), int64(2+(wantCommits+31)/32); got > most {
		t.Errorf("commit latency observations = %d, want ≤ %d", got, most)
	}
	if got, want := age.Count(), lat.Count(); got != want {
		t.Errorf("snapshot age observations = %d, commit latency observations = %d: want equal", got, want)
	}
	// Initialize opens its own session, so two sessions total.
	if got := reg.Gauge("engine_sessions", lbl).Value(); got != 2 {
		t.Errorf("engine_sessions = %d, want 2", got)
	}
}

// TestMetricsPerKindLabels checks two engines of different kinds can
// share one registry without their series colliding.
func TestMetricsPerKindLabels(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	si := newDB(t, SI, Config{Metrics: reg})
	ser := newDB(t, SER, Config{Metrics: reg})
	if err := si.Session("a").Transact(func(tx *Tx) error { return tx.Write("x", 1) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := ser.Session("b").Transact(func(tx *Tx) error { return tx.Write("x", 1) }); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("engine_commits_total", obs.L("engine", SI.String())).Value(); got != 1 {
		t.Errorf("SI commits = %d, want 1", got)
	}
	if got := reg.Counter("engine_commits_total", obs.L("engine", SER.String())).Value(); got != 3 {
		t.Errorf("SER commits = %d, want 3", got)
	}
}

// TestStatsSnapshotStable checks Stats() is a value snapshot: mutating
// the engine afterwards does not change an already-taken snapshot.
func TestStatsSnapshotStable(t *testing.T) {
	t.Parallel()
	db := newDB(t, SI, Config{})
	s := db.Session("s")
	if err := s.Transact(func(tx *Tx) error { return tx.Write("x", 1) }); err != nil {
		t.Fatal(err)
	}
	before := db.Stats()
	if err := s.Transact(func(tx *Tx) error { return tx.Write("x", 2) }); err != nil {
		t.Fatal(err)
	}
	if before.Commits != 1 {
		t.Errorf("snapshot mutated: commits = %d, want 1", before.Commits)
	}
	if db.Stats().Commits != 2 {
		t.Errorf("live stats = %d, want 2", db.Stats().Commits)
	}
}
