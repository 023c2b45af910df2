package engine_test

import (
	"fmt"
	"testing"

	"sian/internal/depgraph"
	. "sian/internal/engine"
	"sian/internal/model"
	"sian/internal/obs/eventlog"
	"sian/internal/storage/wal"
)

// openWAL opens a WAL driver (fsync off) whose recovery certifies
// against m.
func openWAL(t *testing.T, dir string, m depgraph.Model) *wal.Driver {
	t.Helper()
	d, err := wal.Open(wal.Options{Dir: dir, NoSync: true, Window: 64, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// durableKinds are the engine kinds that run over an injected driver
// (the siProtocol commit path), each with the model its histories and
// its recovered log must certify against.
var durableKinds = []struct {
	kind  Kind
	model depgraph.Model
}{{SI, depgraph.SI}, {SSI, depgraph.SER}}

// TestSIOverWALReopen is the engine-level durability loop, for both
// kinds on the siProtocol commit path: an engine over the WAL driver
// logs exactly one record per transaction (two objects written each),
// and closed and reopened, replays and certifies every commit — SI's
// log against SI, SSI's against SER — and resumes with the committed
// state visible and the timestamp allocator seeded past the recovered
// frontier.
func TestSIOverWALReopen(t *testing.T) {
	t.Parallel()
	for _, tc := range durableKinds {
		tc := tc
		t.Run(tc.kind.String(), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			drv := openWAL(t, dir, tc.model)
			db := newDB(t, tc.kind, Config{Driver: drv})
			if err := db.Initialize(map[model.Obj]model.Value{"x": 0, "y": 0}); err != nil {
				t.Fatal(err)
			}
			const commits = 21 // the init transaction + 20 increments
			s := db.Session("s1")
			for i := 1; i < commits; i++ {
				if err := s.Transact(func(tx *Tx) error {
					for _, k := range []model.Obj{"x", "y"} {
						v, err := tx.Read(k)
						if err != nil {
							return err
						}
						if err := tx.Write(k, v+1); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			if got := drv.Stats().AppendedLSN; got != commits {
				t.Errorf("%d log records for %d commits, want one per transaction", got, commits)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			re := openWAL(t, dir, tc.model)
			if !re.Recovery().Certified {
				t.Fatalf("recovery not certified: %s", re.Recovery().Verdict)
			}
			if got := re.Recovery().Commits; got != commits {
				t.Errorf("recovery replayed %d commits, want %d", got, commits)
			}
			db2, err := New(tc.kind, Config{Driver: re})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			s2 := db2.Session("s2")
			if err := s2.Transact(func(tx *Tx) error {
				v, err := tx.Read("x")
				if err != nil {
					return err
				}
				if v != commits-1 {
					return fmt.Errorf("recovered x = %d, want %d", v, commits-1)
				}
				return tx.Write("x", v+1)
			}); err != nil {
				t.Fatal(err)
			}
			// The post-recovery commit must land above every recovered
			// version (the allocator was seeded by RecoveredMaxTS).
			if v, ok := re.Latest("x"); !ok || v.Val != commits || v.TS <= re.RecoveredMaxTS() {
				t.Errorf("post-recovery version %+v (recovered max ts %d)", v, re.RecoveredMaxTS())
			}
		})
	}
}

// TestCommitEventsCarryLSN pins the observability contract: with a
// durable driver attached, every commit event of a writing transaction
// carries the WAL sequence number its record was fsynced at, and LSNs
// are unique. Volatile drivers keep LSN zero.
func TestCommitEventsCarryLSN(t *testing.T) {
	t.Parallel()
	for _, tc := range durableKinds {
		tc := tc
		t.Run(tc.kind.String(), func(t *testing.T) {
			t.Parallel()
			commitEventsCarryLSN(t, tc.kind, tc.model)
		})
	}
}

func commitEventsCarryLSN(t *testing.T, kind Kind, m depgraph.Model) {
	rec := eventlog.NewRecorder(1 << 12)
	db := newDB(t, kind, Config{Driver: openWAL(t, t.TempDir(), m), Recorder: rec})
	if err := db.Initialize(map[model.Obj]model.Value{"x": 0}); err != nil {
		t.Fatal(err)
	}
	s := db.Session("s1")
	const n = 10
	for i := 0; i < n; i++ {
		if err := s.Transact(func(tx *Tx) error {
			v, err := tx.Read("x")
			if err != nil {
				return err
			}
			return tx.Write("x", v+1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	// One read-only transaction: commits without a log record.
	if err := s.Transact(func(tx *Tx) error {
		_, err := tx.Read("x")
		return err
	}); err != nil {
		t.Fatal(err)
	}

	seen := map[uint64]bool{}
	var writing, readOnly int
	for _, ev := range rec.Events() {
		if ev.Kind != eventlog.Commit {
			continue
		}
		if ev.LSN == 0 {
			readOnly++
			continue
		}
		if seen[ev.LSN] {
			t.Errorf("duplicate LSN %d on commit %s", ev.LSN, ev.Name)
		}
		seen[ev.LSN] = true
		writing++
	}
	if writing != n+1 { // n increments + the init transaction
		t.Errorf("%d commit events carry an LSN, want %d", writing, n+1)
	}
	if readOnly != 1 {
		t.Errorf("%d zero-LSN commits, want exactly the read-only one", readOnly)
	}

	// The volatile driver's commits never carry an LSN.
	memRec := eventlog.NewRecorder(1 << 10)
	memDB := newDB(t, kind, Config{Recorder: memRec})
	if err := memDB.Initialize(map[model.Obj]model.Value{"x": 0}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range memRec.Events() {
		if ev.Kind == eventlog.Commit && ev.LSN != 0 {
			t.Errorf("volatile commit event carries LSN %d", ev.LSN)
		}
	}
}

// TestWALRejectsNonSIEngines pins Config.Driver gating: engines that
// manage their own stores refuse an injected driver.
func TestWALRejectsNonSIEngines(t *testing.T) {
	t.Parallel()
	for _, kind := range []Kind{PSI, SER} {
		d := openWAL(t, t.TempDir(), depgraph.SI)
		if _, err := New(kind, Config{Driver: d}); err == nil {
			t.Errorf("%v accepted an injected driver", kind)
		}
		d.Close()
	}
}
