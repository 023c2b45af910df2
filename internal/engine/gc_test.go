package engine_test

import (
	"fmt"
	"sync"
	"testing"

	"sian/internal/depgraph"
	. "sian/internal/engine"
	"sian/internal/histio"
	"sian/internal/model"
	"sian/internal/monitor"
	"sian/internal/storage"
)

// TestCompactSI: Compact truncates the version chains of both kinds on
// the siProtocol commit path — SSI's too, whose tracker never reads the
// store to recognise writers.
func TestCompactSI(t *testing.T) {
	t.Parallel()
	for _, kind := range []Kind{SI, SSI} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			db := newDB(t, kind, Config{})
			if err := db.Initialize(map[model.Obj]model.Value{"x": 0}); err != nil {
				t.Fatal(err)
			}
			s := db.Session("s")
			for i := 1; i <= 20; i++ {
				if err := s.Transact(func(tx *Tx) error { return tx.Write("x", model.Value(i)) }); err != nil {
					t.Fatal(err)
				}
			}
			dropped := db.Compact()
			if dropped != 20 { // 21 versions, latest survives
				t.Errorf("Compact dropped %d versions, want 20", dropped)
			}
			// Reads still see the latest value.
			err := s.Transact(func(tx *Tx) error {
				v, err := tx.Read("x")
				if err != nil {
					return err
				}
				if v != 20 {
					t.Errorf("x = %d after GC", v)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			// Nothing further to drop.
			if d := db.Compact(); d != 0 {
				t.Errorf("second Compact dropped %d", d)
			}
		})
	}
}

// TestCompactPreservesOpenSnapshot is the correctness core of GC: an
// open transaction's snapshot must survive compaction.
func TestCompactPreservesOpenSnapshot(t *testing.T) {
	t.Parallel()
	db := newDB(t, SI, Config{})
	if err := db.Initialize(map[model.Obj]model.Value{"x": 1}); err != nil {
		t.Fatal(err)
	}
	reader, err := db.Session("reader").Begin("old-snapshot")
	if err != nil {
		t.Fatal(err)
	}
	writer := db.Session("writer")
	for i := 2; i <= 10; i++ {
		if err := writer.Transact(func(tx *Tx) error { return tx.Write("x", model.Value(i)) }); err != nil {
			t.Fatal(err)
		}
	}
	// GC with the old snapshot still open must keep its version.
	db.Compact()
	v, err := reader.Read("x")
	if err != nil {
		t.Fatalf("read at old snapshot after GC: %v", err)
	}
	if v != 1 {
		t.Errorf("old snapshot read %d, want 1", v)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
	// With the snapshot closed, GC can now reclaim the old versions.
	if dropped := db.Compact(); dropped == 0 {
		t.Error("nothing reclaimed after closing the old snapshot")
	}
}

func TestCompactPSI(t *testing.T) {
	t.Parallel()
	db := newDB(t, PSI, Config{})
	if err := db.Initialize(map[model.Obj]model.Value{"x": 0}); err != nil {
		t.Fatal(err)
	}
	s := db.Session("s")
	for i := 1; i <= 10; i++ {
		if err := s.Transact(func(tx *Tx) error { return tx.Write("x", model.Value(i)) }); err != nil {
			t.Fatal(err)
		}
	}
	db.Flush()
	if dropped := db.Compact(); dropped == 0 {
		t.Error("PSI Compact reclaimed nothing")
	}
	err := s.Transact(func(tx *Tx) error {
		v, err := tx.Read("x")
		if err != nil {
			return err
		}
		if v != 10 {
			t.Errorf("x = %d after GC", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCompactSERNoop(t *testing.T) {
	t.Parallel()
	db := newDB(t, SER, Config{})
	if err := db.Initialize(map[model.Obj]model.Value{"x": 0}); err != nil {
		t.Fatal(err)
	}
	if d := db.Compact(); d != 0 {
		t.Errorf("SER Compact = %d", d)
	}
}

// TestCompactUnderLoad runs GC concurrently with a write-heavy
// workload; the engine must stay consistent (exercised under -race).
func TestCompactUnderLoad(t *testing.T) {
	t.Parallel()
	db := newDB(t, SI, Config{})
	if err := db.Initialize(map[model.Obj]model.Value{"x": 0, "y": 0}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var gcDone sync.WaitGroup
	gcDone.Add(1)
	go func() {
		defer gcDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
				db.Compact()
			}
		}
	}()
	var writers sync.WaitGroup
	for i := 0; i < 2; i++ {
		sess := db.Session(string(rune('a' + i)))
		writers.Add(1)
		go func() {
			defer writers.Done()
			for n := 0; n < 100; n++ {
				err := sess.Transact(func(tx *Tx) error {
					v, err := tx.Read("x")
					if err != nil {
						return err
					}
					if err := tx.Write("x", v+1); err != nil {
						return err
					}
					w, err := tx.Read("y")
					if err != nil {
						return err
					}
					return tx.Write("y", w+1)
				})
				if err != nil {
					t.Errorf("transact: %v", err)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	gcDone.Wait()
	s := db.Session("audit")
	err := s.Transact(func(tx *Tx) error {
		x, err := tx.Read("x")
		if err != nil {
			return err
		}
		y, err := tx.Read("y")
		if err != nil {
			return err
		}
		if x != 200 || y != 200 {
			t.Errorf("counters = (%d, %d), want (200, 200)", x, y)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChainsStayBounded: the SI commit path compacts on its own, with
// no Compact call anywhere. A long read-modify-write loop on 4 keys
// runs with a snapshot pinned across its first half: the pinned
// snapshot still reads its original values after many automatic
// passes, and once it is released the passes catch up, so every chain
// ends at most MinPass versions long (without compaction each would
// hold commits/4). The history must still certify.
//
// The loop commits in one of three ways: Transact on one session (the
// unnamed cases); a fresh Session.Begin and Commit for every
// transaction, as a networked server runs them ("begin"); and a new
// session every FlushEvery−1 transactions, so that every session ends
// with superseding installs it has counted but not flushed
// ("sessions"). Passes must come in all three.
func TestChainsStayBounded(t *testing.T) {
	t.Parallel()
	for _, drv := range gcDrivers {
		for _, tc := range durableKinds {
			for _, writer := range []string{"", "begin", "sessions"} {
				name := drv.name + "/" + tc.kind.String()
				if writer != "" {
					name += "/" + writer
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					d := drv.open(t)
					if d == nil {
						d = storage.NewMem()
					}
					chainsStayBounded(t, tc.kind, tc.model, d, writer)
				})
			}
		}
	}
}

// beginRMW increments x in one transaction begun with Begin: a fresh
// ManualTx and protocol transaction every time.
func beginRMW(s *Session, x model.Obj) error {
	m, err := s.Begin("rmw")
	if err != nil {
		return err
	}
	v, err := m.Read(x)
	if err == nil {
		err = m.Write(x, v+1)
	}
	if err != nil {
		m.Abort()
		return err
	}
	return m.Commit()
}

func chainsStayBounded(t *testing.T, kind Kind, want depgraph.Model, drv storage.Driver, writer string) {
	const commits = 50_000
	keys := []model.Obj{"k0", "k1", "k2", "k3"}
	db := newDB(t, kind, Config{Driver: drv})
	init := make(map[model.Obj]model.Value, len(keys))
	for _, x := range keys {
		init[x] = 1
	}
	if err := db.Initialize(init); err != nil {
		t.Fatal(err)
	}
	pinned, err := db.Session("pinned").Begin("pinned")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := pinned.Read(keys[0]); err != nil || v != 1 {
		t.Fatalf("pinned read %s = %d, %v; want 1", keys[0], v, err)
	}
	s := db.Session("w")
	for i := 0; i < commits; i++ {
		if i == commits/2 {
			for _, x := range keys {
				if v, err := pinned.Read(x); err != nil || v != 1 {
					t.Fatalf("after %d commits the pinned snapshot reads %s = %d, %v; want 1", i, x, v, err)
				}
			}
			pinned.Abort()
		}
		x := keys[i%len(keys)]
		if writer == "sessions" && i%(FlushEvery-1) == 0 {
			s = db.Session(fmt.Sprintf("w%d", i))
		}
		var err error
		if writer == "begin" {
			err = beginRMW(s, x)
		} else {
			err = s.Transact(func(tx *Tx) error {
				v, err := tx.Read(x)
				if err != nil {
					return err
				}
				return tx.Write(x, v+1)
			})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, x := range keys {
		if n := drv.VersionCount(x); n > MinPass {
			t.Errorf("%s holds %d versions after %d commits, want ≤ %d", x, n, commits, MinPass)
		}
	}
	// Too many writers per object for the offline checker: certify
	// through the windowed monitor, whose "member" verdict holds for the
	// whole stream.
	mon := monitor.New(monitor.Config{Model: want, Window: 62})
	for _, ev := range histio.HistoryToEvents(db.History()) {
		mon.Ingest(ev)
	}
	rep, err := mon.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Member || rep.Commits != commits+1 {
		t.Errorf("monitor: member %v over %d commits, want a member over %d", rep.Member, rep.Commits, commits+1)
	}
}
