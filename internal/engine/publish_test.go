package engine

import (
	"errors"
	"testing"
	"time"

	"sian/internal/model"
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

// gateFixture is one SI engine over a holdDriver with keys a, b, c, h
// initialised to 0.
type gateFixture struct {
	t   *testing.T
	db  *DB
	p   *siProtocol
	drv *holdDriver
}

func newGateFixture(t *testing.T) *gateFixture {
	t.Helper()
	drv := &holdDriver{
		Driver:  storage.NewMem(),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	db, err := New(SI, Config{Driver: drv})
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
		f := newGateFixture(t)
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

// TestPublishGateConflictLeavesNoGap shows that a first-committer-wins
// loser allocates no timestamp: while A (timestamp k) is held, L loses
// on h and returns ErrConflict at once, and B — which then gets k+1,
// not k+2 — parks behind A only. If L had burnt a timestamp, B would
// wait forever on a predecessor that never publishes.
func TestPublishGateConflictLeavesNoGap(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		f := newGateFixture(t)
		// L snapshots, then loses h to a commit that publishes normally.
		l, err := f.db.Session("loser").Begin("L")
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Write("h", 2); err != nil {
			t.Fatal(err)
		}
		f.await("H", f.write("h"))
		base := f.p.commitTS.Load()

		a := f.write("a")
		f.awaitEntered()
		if err := l.Commit(); !errors.Is(err, ErrConflict) {
			t.Fatalf("iter %d: L commit = %v, want ErrConflict", iter, err)
		}
		b := f.write("b")
		f.awaitParked(1)
		if got := f.p.nextTS.Load(); got != base+2 {
			t.Fatalf("iter %d: nextTS = %d, want %d (the loser must not allocate)", iter, got, base+2)
		}

		close(f.drv.release)
		f.await("A", a)
		f.await("B", b)
		if got := f.p.commitTS.Load(); got != base+2 {
			t.Fatalf("iter %d: commitTS = %d, want %d", iter, got, base+2)
		}
		if vals := f.snapshot("a", "b", "h"); vals[0] != 1 || vals[1] != 1 || vals[2] != 1 {
			t.Fatalf("iter %d: snapshot sees %v", iter, vals)
		}
		f.db.Close()
	}
}
