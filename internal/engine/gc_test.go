package engine_test

import (
	"sync"
	"testing"

	. "sian/internal/engine"
	"sian/internal/model"
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
