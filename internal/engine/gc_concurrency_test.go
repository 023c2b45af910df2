package engine_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sian/internal/depgraph"
	. "sian/internal/engine"
	"sian/internal/model"
	"sian/internal/storage"
	"sian/internal/storage/wal"
)

// gcDrivers enumerates the storage drivers the GC-concurrency property
// is pinned against: the default in-memory driver and the
// write-ahead-logged one (fsync disabled — the property under test is
// lock/GC interleaving, not disk latency).
var gcDrivers = []struct {
	name string
	open func(t *testing.T) storage.Driver
}{
	{"mem", func(t *testing.T) storage.Driver { return nil }},
	{"wal", func(t *testing.T) storage.Driver {
		d, err := wal.Open(wal.Options{Dir: t.TempDir(), NoSync: true, Window: 64})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}},
}

// TestCompactNeverStarvesSnapshot is the GC-under-concurrency
// property test: Compact racing live begins and commits must never
// discard a version a registered snapshot can read. Every object is
// initialised before the workload, so the property reduces to an
// observable: no read inside any live transaction may ever return
// ErrUninitialized — that would mean GC truncated the chain above the
// snapshot. The schedules are seeded: each seed drives a different
// random mix of short reader transactions (via Begin, holding their
// snapshot open across several reads), writer transactions, and a
// tight Compact loop. Both kinds on the siProtocol commit path run it:
// SI certifying SI, and SSI — whose tracker must recognise writers
// without probing the chains Compact truncates — certifying SER.
func TestCompactNeverStarvesSnapshot(t *testing.T) {
	t.Parallel()
	for _, drv := range gcDrivers {
		drv := drv
		t.Run(drv.name, func(t *testing.T) {
			t.Parallel()
			gcConcurrencySuite(t, drv.open)
		})
	}
}

func gcConcurrencySuite(t *testing.T, open func(t *testing.T) storage.Driver) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			for _, tc := range durableKinds {
				tc := tc
				t.Run(tc.kind.String(), func(t *testing.T) {
					t.Parallel()
					gcConcurrencyRun(t, tc.kind, tc.model, seed, open(t))
				})
			}
		})
	}
}

func gcConcurrencyRun(t *testing.T, kind Kind, want depgraph.Model, seed int64, drv storage.Driver) {
	db := newDB(t, kind, Config{Driver: drv})
	const objects = 8
	init := make(map[model.Obj]model.Value, objects)
	objs := make([]model.Obj, objects)
	for i := range objs {
		objs[i] = model.Obj(fmt.Sprintf("g%d", i))
		init[objs[i]] = 1
	}
	if err := db.Initialize(init); err != nil {
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

	var wg sync.WaitGroup
	// Writers churn versions so GC always has work.
	for w := 0; w < 2; w++ {
		sess := db.Session(fmt.Sprintf("w%d-%d", seed, w))
		rng := rand.New(rand.NewSource(seed*100 + int64(w)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 150; n++ {
				x := objs[rng.Intn(objects)]
				err := sess.Transact(func(tx *Tx) error {
					v, err := tx.Read(x)
					if err != nil {
						return err
					}
					return tx.Write(x, v+1)
				})
				if err != nil {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}()
	}
	// Readers hold manual transactions open across several
	// reads — the snapshots GC must respect.
	for r := 0; r < 3; r++ {
		sess := db.Session(fmt.Sprintf("r%d-%d", seed, r))
		rng := rand.New(rand.NewSource(seed*1000 + int64(r)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 80; n++ {
				m, err := sess.Begin(fmt.Sprintf("snap%d", n))
				if err != nil {
					t.Errorf("begin: %v", err)
					return
				}
				aborted := false
				for k := 0; k < 4; k++ {
					x := objs[rng.Intn(objects)]
					_, err := m.Read(x)
					if kind == SSI && errors.Is(err, ErrConflict) {
						// The SSI veto may abort a reader; GC starving
						// its snapshot would be ErrUninitialized.
						aborted = true
						break
					}
					if err != nil {
						t.Errorf("read %s at a registered snapshot: %v", x, err)
						m.Abort()
						return
					}
				}
				if aborted || rng.Intn(2) == 0 {
					m.Abort()
				} else if err := m.Commit(); err != nil {
					t.Errorf("read-only commit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	gcDone.Wait()

	// The workload's history must still certify after all that
	// compaction.
	if !certifyHistory(t, db, want) {
		t.Errorf("history with concurrent GC not allowed by %v", want)
	}
}
