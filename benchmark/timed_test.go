package main

import (
	"testing"

	"sian/internal/engine"
	"sian/internal/model"
	"sian/internal/storage"
	"sian/internal/storage/drivertest"
	"sian/internal/storage/wal"
)

func tracedOn() *tracer {
	tr := newTracer()
	tr.enabled.Store(true)
	return tr
}

func openWal(t *testing.T, dir string) *wal.Driver {
	t.Helper()
	d, err := wal.Open(wal.Options{Dir: dir, NoSync: true, Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDecoratedDriversConform runs the storage conformance suite over
// the timing decorator, tracer on: a decorated driver must behave like
// the driver it wraps, group-commit windows and durable LSNs included.
func TestDecoratedDriversConform(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		t.Parallel()
		drivertest.Run(t, func(t *testing.T) storage.Driver {
			d, _ := timeDriver(storage.NewMem(), tracedOn(), keyOwner)
			return d
		})
	})
	t.Run("wal", func(t *testing.T) {
		t.Parallel()
		drivertest.Run(t, func(t *testing.T) storage.Driver {
			d, _ := timeDriver(openWal(t, t.TempDir()), tracedOn(), keyOwner)
			return d
		})
	})
}

// TestDecoratorForwardsOptionalInterfaces: the engine finds these by
// type assertion, so the decorator must expose exactly what the inner
// driver and window have — no fewer (a wal window without LogCommit
// would log raw installs) and no more (a mem window claiming to be
// durable would report LSN 0).
func TestDecoratorForwardsOptionalInterfaces(t *testing.T) {
	has := func(v any) (cloner, recovered, logger, durable, attacher bool) {
		_, cloner = v.(storage.Cloner)
		_, recovered = v.(storage.Recovered)
		_, logger = v.(storage.CommitLogger)
		_, durable = v.(storage.DurableWindow)
		_, attacher = v.(storage.TraceAttacher)
		return
	}
	objs := []model.Obj{"d0_0001"}

	mem, _ := timeDriver(storage.NewMem(), nil, keyOwner)
	if cloner, recovered, _, _, _ := has(mem); !cloner || recovered {
		t.Errorf("decorated mem driver: Cloner=%v Recovered=%v, want true false", cloner, recovered)
	}
	if _, ok := mem.(storage.Cloner).Clone().(storage.Cloner); !ok {
		t.Error("the clone of a decorated mem driver lost Cloner")
	}
	windows := func(d storage.Driver) []func() storage.Locked {
		return []func() storage.Locked{
			func() storage.Locked { return d.LockObjs(objs) },
			func() storage.Locked { return d.LockBatch(objs) },
		}
	}
	for _, open := range windows(mem) {
		w := open()
		if _, _, logger, durable, attacher := has(w); logger || durable || attacher {
			t.Errorf("decorated mem window %T: CommitLogger=%v DurableWindow=%v TraceAttacher=%v, want none", w, logger, durable, attacher)
		}
		w.Unlock()
	}

	wd, _ := timeDriver(openWal(t, t.TempDir()), nil, keyOwner)
	defer wd.Close()
	if cloner, recovered, _, _, _ := has(wd); cloner || !recovered {
		t.Errorf("decorated wal driver: Cloner=%v Recovered=%v, want false true", cloner, recovered)
	}
	for _, open := range windows(wd) {
		w := open()
		if _, _, logger, durable, attacher := has(w); !logger || !durable || !attacher {
			t.Errorf("decorated wal window %T: CommitLogger=%v DurableWindow=%v TraceAttacher=%v, want all", w, logger, durable, attacher)
		}
		w.Unlock()
	}
}

// TestDecoratedWalLogsCommitRecords drives an engine over the decorated
// wal driver and reopens the log: every commit must come back as a
// commit record (full op list, certifiable), which is only so if
// LogCommit/LogCommitBatch reached the wal window.
func TestDecoratedWalLogsCommitRecords(t *testing.T) {
	dir := t.TempDir()
	tr := tracedOn()
	drv, counts := timeDriver(openWal(t, dir), tr, keyOwner)
	db, err := engine.New(engine.SI, engine.Config{Driver: drv})
	if err != nil {
		t.Fatal(err)
	}
	l := newDisjointLogic(0)
	init := map[model.Obj]model.Value{}
	for _, k := range l.keys {
		init[k] = 0
	}
	if err := db.Initialize(init); err != nil {
		t.Fatal(err)
	}
	sess := db.Session("s0")
	const txns = 50
	for i := 0; i < txns; i++ {
		l.pick = [4]int{i, i + 1, i + 2, i + 3}
		if err := sess.Transact(func(tx *engine.Tx) error { return l.body(tx) }); err != nil {
			t.Fatal(err)
		}
		l.committed()
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := counts.batchRecs.Load() + counts.soloWindows.Load(); got != txns+1 {
		t.Errorf("decorator saw %d commit records staged, want %d", got, txns+1)
	}
	agg := tr.aggregate()
	if agg[spWalUnlock].count != txns+1 || agg[spUnlock].count != 0 {
		t.Errorf("wal windows recorded %d wal.unlock and %d mem.unlock spans, want %d and 0", agg[spWalUnlock].count, agg[spUnlock].count, txns+1)
	}

	re := openWal(t, dir)
	defer re.Close()
	info := re.Recovery()
	if !info.Certified || info.Commits != txns+1 {
		t.Fatalf("reopen: certified=%v commits=%d (%s), want true and %d commit records", info.Certified, info.Commits, info.Verdict, txns+1)
	}
	final := func(x model.Obj) (model.Value, bool) { v, ok := re.Latest(x); return v.Val, ok }
	if err := checkOwnKeys(final, l.keys, l.expect); err != nil {
		t.Error(err)
	}
}
