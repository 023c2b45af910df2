package engine

import (
	"errors"
	"testing"
	"time"

	"sian/internal/check"
	"sian/internal/depgraph"
	"sian/internal/model"
	"sian/internal/obs"
	"sian/internal/storage"
)

// gateTimeout bounds every wait of the publish-gate tests, so a lost
// wake-up fails the test instead of hanging it.
const gateTimeout = 10 * time.Second

// holdDriver is a storage.Driver whose commit window stalls inside
// Unlock — after the shards are released, where a durable driver waits
// for its fsync — when the write set contains holdKey. It signals
// entered once stalled and returns when release is closed.
type holdDriver struct {
	storage.Driver
	holdKey model.Obj
	entered chan struct{}
	release chan struct{}
}

func (d *holdDriver) LockObjs(objs []model.Obj) storage.Locked {
	w := &holdWindow{Locked: d.Driver.LockObjs(objs)}
	for _, x := range objs {
		if x == d.holdKey {
			w.d = d
		}
	}
	return w
}

type holdWindow struct {
	storage.Locked
	d *holdDriver // nil unless this window stalls
}

func (w *holdWindow) Unlock() {
	w.Locked.Unlock()
	if w.d != nil {
		w.d.entered <- struct{}{}
		<-w.d.release
	}
}

// gateFixture is one engine of the given kind (SI or SSI: the kinds on
// the siProtocol commit path) over a holdDriver with keys a, b, c, h
// initialised to 0.
type gateFixture struct {
	t   *testing.T
	db  *DB
	p   *siProtocol
	drv *holdDriver
}

func newGateFixture(t *testing.T, kind Kind) *gateFixture {
	t.Helper()
	drv := &holdDriver{
		Driver:  storage.NewMem(),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	db, err := New(kind, Config{Driver: drv})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Initialize(map[model.Obj]model.Value{"a": 0, "b": 0, "c": 0, "h": 0}); err != nil {
		t.Fatal(err)
	}
	drv.holdKey = "a"
	return &gateFixture{t: t, db: db, p: db.impl.(*siProtocol), drv: drv}
}

// write starts a transaction writing x := 1 on its own session and
// returns the channel its Transact result arrives on.
func (f *gateFixture) write(x model.Obj) <-chan error {
	done := make(chan error, 1)
	s := f.db.Session("w-" + string(x))
	go func() { done <- s.Transact(func(tx *Tx) error { return tx.Write(x, 1) }) }()
	return done
}

// snapshot reads the given keys in one fresh transaction.
func (f *gateFixture) snapshot(keys ...model.Obj) []model.Value {
	f.t.Helper()
	vals := make([]model.Value, len(keys))
	err := f.db.Session("reader").Transact(func(tx *Tx) error {
		for i, x := range keys {
			v, err := tx.Read(x)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		return nil
	})
	if err != nil {
		f.t.Fatal(err)
	}
	return vals
}

// awaitParked waits until exactly n commits are parked in the gate.
func (f *gateFixture) awaitParked(n int32) {
	f.t.Helper()
	deadline := time.Now().Add(gateTimeout)
	for f.p.pubWaiters.Load() != n {
		if time.Now().After(deadline) {
			f.t.Fatalf("parked commits = %d, want %d", f.p.pubWaiters.Load(), n)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// await receives one Transact result within the timeout.
func (f *gateFixture) await(what string, done <-chan error) {
	f.t.Helper()
	select {
	case err := <-done:
		if err != nil {
			f.t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(gateTimeout):
		f.t.Fatalf("%s never returned: lost wake-up in the publish gate", what)
	}
}

func (f *gateFixture) awaitEntered() {
	f.t.Helper()
	select {
	case <-f.drv.entered:
	case <-time.After(gateTimeout):
		f.t.Fatal("held commit never reached Unlock")
	}
}

// TestPublishGateOrdersVisibility pins the ordered-publish gate:
// transaction A (timestamp k) is held inside its window's Unlock while
// B (k+1) and C (k+2), on disjoint keys, finish theirs. Until A is
// released nothing may be visible and nobody may have returned —
// publishing B or C would hand out snapshots above A's timestamp while
// A is not yet durable — and once it is, all three must return and be
// visible. Many iterations under -race, every wait bounded, so a lost
// wake-up between a parking commit and its publisher fails here.
func TestPublishGateOrdersVisibility(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		f := newGateFixture(t, SI)
		base := f.p.commitTS.Load()
		a := f.write("a")
		f.awaitEntered() // A holds timestamp base+1, unpublished
		b := f.write("b")
		f.awaitParked(1) // B holds base+2
		c := f.write("c")
		f.awaitParked(2) // C holds base+3

		if got := f.p.commitTS.Load(); got != base {
			t.Fatalf("iter %d: commitTS = %d while A is held, want %d", iter, got, base)
		}
		if vals := f.snapshot("a", "b", "c"); vals[0] != 0 || vals[1] != 0 || vals[2] != 0 {
			t.Fatalf("iter %d: snapshot sees %v before A published", iter, vals)
		}
		select {
		case err := <-a:
			t.Fatalf("iter %d: A returned while held: %v", iter, err)
		case err := <-b:
			t.Fatalf("iter %d: B returned before its predecessor published: %v", iter, err)
		case err := <-c:
			t.Fatalf("iter %d: C returned before its predecessors published: %v", iter, err)
		default:
		}

		close(f.drv.release)
		f.await("A", a)
		f.await("B", b)
		f.await("C", c)
		if got := f.p.commitTS.Load(); got != base+3 {
			t.Fatalf("iter %d: commitTS = %d after release, want %d", iter, got, base+3)
		}
		if vals := f.snapshot("a", "b", "c"); vals[0] != 1 || vals[1] != 1 || vals[2] != 1 {
			t.Fatalf("iter %d: snapshot sees %v after all three published", iter, vals)
		}
		if n := f.p.pubWaiters.Load(); n != 0 {
			t.Fatalf("iter %d: %d waiters left in the gate", iter, n)
		}
		f.db.Close()
	}
}

// TestPublishGateParksCounted pins engine_publish_parks_total: while A
// is held inside Unlock, B and C queue behind it, outwait the gate's
// spin budget and park; each counts once, however often a publisher
// wakes it, and A, whose predecessor has published, counts nothing.
func TestPublishGateParksCounted(t *testing.T) {
	for _, kind := range []Kind{SI, SSI} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for iter := 0; iter < 50; iter++ {
				f := newGateFixture(t, kind)
				parks := f.db.Metrics().Counter("engine_publish_parks_total", obs.L("engine", kind.String()))
				before := parks.Value()
				a := f.write("a")
				f.awaitEntered()
				b := f.write("b")
				f.awaitParked(1)
				c := f.write("c")
				f.awaitParked(2)
				close(f.drv.release)
				f.await("A", a)
				f.await("B", b)
				f.await("C", c)
				if got := parks.Value() - before; got != 2 {
					t.Fatalf("iter %d: engine_publish_parks_total grew by %d, want 2", iter, got)
				}
				f.db.Close()
			}
		})
	}
}

// TestPublishGateConflictLeavesNoGap shows that a commit refused
// inside its window allocates no timestamp: while A (timestamp k) is
// held, L loses first-committer-wins on h and returns ErrConflict at
// once, and B — which then gets k+1, not k+2 — parks behind A only. If
// L had burnt a timestamp, B would wait forever on a predecessor that
// never publishes. Under SSI a second refusal sits between the parked
// pair: V reads a below the held A (V —rw→ A) and writes c, which the
// open transaction Q has read (Q —rw→ V), so V would commit as a pivot
// and is vetoed — again without a timestamp.
func TestPublishGateConflictLeavesNoGap(t *testing.T) {
	for _, kind := range []Kind{SI, SSI} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for iter := 0; iter < 200; iter++ {
				f := newGateFixture(t, kind)
				// L snapshots, then loses h to a commit that publishes normally.
				l := f.begin("L")
				if err := l.Write("h", 2); err != nil {
					t.Fatal(err)
				}
				f.await("H", f.write("h"))
				base := f.p.commitTS.Load()

				a := f.write("a")
				f.awaitEntered()
				f.awaitConflict("L (first-committer-wins)", f.commit(l))
				if kind == SSI {
					q := f.begin("Q")
					f.read(q, "c", 0)
					v := f.begin("V")
					f.read(v, "a", 0)
					if err := v.Write("c", 3); err != nil {
						t.Fatal(err)
					}
					f.awaitConflict("V (the SSI veto)", f.commit(v))
					q.Abort()
				}
				b := f.write("b")
				f.awaitParked(1)
				if got := f.p.nextTS.Load(); got != base+2 {
					t.Fatalf("iter %d: nextTS = %d, want %d (a refused commit must not allocate)", iter, got, base+2)
				}

				close(f.drv.release)
				f.await("A", a)
				f.await("B", b)
				if got := f.p.commitTS.Load(); got != base+2 {
					t.Fatalf("iter %d: commitTS = %d, want %d", iter, got, base+2)
				}
				if vals := f.snapshot("a", "b", "c", "h"); vals[0] != 1 || vals[1] != 1 || vals[2] != 0 || vals[3] != 1 {
					t.Fatalf("iter %d: snapshot sees %v", iter, vals)
				}
				f.db.Close()
			}
		})
	}
}

// begin starts a manual transaction on its own session.
func (f *gateFixture) begin(name string) *ManualTx {
	f.t.Helper()
	m, err := f.db.Session(name).Begin(name)
	if err != nil {
		f.t.Fatal(err)
	}
	return m
}

// commit commits m on its own goroutine, so that a commit wrongly let
// through — which would park in the gate — fails a bounded wait.
func (f *gateFixture) commit(m *ManualTx) <-chan error {
	done := make(chan error, 1)
	go func() { done <- m.Commit() }()
	return done
}

// awaitConflict receives ErrConflict from a commit within the timeout.
func (f *gateFixture) awaitConflict(what string, done <-chan error) {
	f.t.Helper()
	select {
	case err := <-done:
		if !errors.Is(err, ErrConflict) {
			f.t.Fatalf("%s: commit = %v, want ErrConflict", what, err)
		}
	case <-time.After(gateTimeout):
		f.t.Fatalf("%s: commit was let through and parked in the publish gate", what)
	}
}

// read reads x in m and checks the value.
func (f *gateFixture) read(m *ManualTx, x model.Obj, want model.Value) {
	f.t.Helper()
	if v, err := m.Read(x); err != nil || v != want {
		f.t.Fatalf("read %s = %d, %v; want %d", x, v, err, want)
	}
}

// TestSSIWriteSkewAcrossHeldWindow stages the schedule only the
// writers table catches: T1 reads b, writes a and is parked inside
// Unlock — vetted, installed, unpublished, past its point of no return.
// T2 then begins, reads a (still the old value: T2 —rw→ T1, which no
// store probe at a published timestamp would reveal) and writes b
// (T1 —rw→ T2). Committing both is write skew, so T2 must be vetoed;
// once T1 is released the history certifies serializable.
func TestSSIWriteSkewAcrossHeldWindow(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		f := newGateFixture(t, SSI)
		t1 := f.begin("T1")
		f.read(t1, "b", 0)
		if err := t1.Write("a", 1); err != nil {
			t.Fatal(err)
		}
		done := f.commit(t1)
		f.awaitEntered()

		t2 := f.begin("T2")
		f.read(t2, "a", 0)
		if err := t2.Write("b", 1); err != nil {
			t.Fatal(err)
		}
		f.awaitConflict("T2 (T1 is past its veto)", f.commit(t2))

		close(f.drv.release)
		f.await("T1", done)
		if vals := f.snapshot("a", "b"); vals[0] != 1 || vals[1] != 0 {
			t.Fatalf("iter %d: snapshot sees %v, want [1 0]", iter, vals)
		}
		res, err := check.Certify(f.db.History(), depgraph.SER, check.Options{NoInit: true, PinInit: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Member {
			t.Fatalf("iter %d: history not serializable: %v", iter, res.Explain)
		}
		f.db.Close()
	}
}

// TestSSIReaderNeverBlocksOnHeldWriter: a transaction that only reads
// — the held writer's own key included — finishes while the writer is
// parked: reads take the tracker mutex only, never a commit window.
func TestSSIReaderNeverBlocksOnHeldWriter(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		f := newGateFixture(t, SSI)
		a := f.write("a")
		f.awaitEntered()
		read := make(chan []model.Value, 1)
		go func() { read <- f.snapshot("a", "b", "c") }()
		select {
		case vals := <-read:
			if vals[0] != 0 || vals[1] != 0 || vals[2] != 0 {
				t.Fatalf("iter %d: reader sees %v before A published", iter, vals)
			}
		case <-time.After(gateTimeout):
			t.Fatalf("iter %d: read-only transaction blocked behind a held writer", iter)
		}
		close(f.drv.release)
		f.await("A", a)
		f.db.Close()
	}
}
