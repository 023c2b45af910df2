// Package drivertest is the shared conformance suite every storage
// driver must pass. It generalises the former kvstore hammer /
// differential tests to the storage.Driver interface, so the in-memory
// driver (storage/mem via storage.NewMem) and the write-ahead-logged
// driver (storage/wal) are pinned to the same semantics: per-chain
// monotonic installs, snapshot reads, batch-path consistency, the
// atomic LockObjs commit window, and watermark compaction —
// differentially checked against the seed engine's single-lock
// reference store. Driver packages call Run from their own tests; CI
// runs the suites under -race.
package drivertest

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"sian/internal/model"
	"sian/internal/storage"
)

// Factory returns a fresh, empty driver for one (sub)test. The suite
// closes the driver when the test ends.
type Factory func(t *testing.T) storage.Driver

// Run executes the full conformance suite against drivers built by
// factory.
func Run(t *testing.T, factory Factory) {
	t.Run("HammerDifferential", func(t *testing.T) { hammerDifferential(t, factory) })
	t.Run("InstallBatchMatchesSequential", func(t *testing.T) { installBatchMatchesSequential(t, factory) })
	t.Run("LockObjsWindow", func(t *testing.T) { lockObjsWindow(t, factory) })
	t.Run("BatchWindow", func(t *testing.T) { batchWindow(t, factory) })
	t.Run("BatchWindowMatchesSolo", func(t *testing.T) { batchWindowMatchesSolo(t, factory) })
}

func newDriver(t *testing.T, factory Factory) storage.Driver {
	t.Helper()
	d := factory(t)
	t.Cleanup(func() {
		if err := d.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return d
}

// refStore is the seed engine's single-lock store: one RWMutex around
// one chain map. It is the reference implementation every driver is
// differentially pinned against.
type refStore struct {
	mu     sync.RWMutex
	chains map[model.Obj][]storage.Version
}

func (s *refStore) install(x model.Obj, v storage.Version) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.chains == nil {
		s.chains = make(map[model.Obj][]storage.Version)
	}
	chain := s.chains[x]
	if len(chain) > 0 && chain[len(chain)-1].TS >= v.TS {
		return fmt.Errorf("ref: non-monotonic install on %q", x)
	}
	s.chains[x] = append(chain, v)
	return nil
}

func (s *refStore) readAt(x model.Obj, ts uint64) (storage.Version, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	chain := s.chains[x]
	i := sort.Search(len(chain), func(i int) bool { return chain[i].TS > ts })
	if i == 0 {
		return storage.Version{}, false
	}
	return chain[i-1], true
}

func (s *refStore) gc(watermark uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	for x, chain := range s.chains {
		i := sort.Search(len(chain), func(i int) bool { return chain[i].TS > watermark })
		if i > 1 {
			keep := make([]storage.Version, len(chain)-(i-1))
			copy(keep, chain[i-1:])
			s.chains[x] = keep
			dropped += i - 1
		}
	}
	return dropped
}

// hammerOp is one entry of a randomized op log: an install of version
// ts onto obj, or (install=false) a read probe at ts.
type hammerOp struct {
	obj     model.Obj
	ts      uint64
	install bool
}

// hammerDifferential pins the driver to the single-lock reference
// store on a randomized op log. The log is generated with per-object
// monotonically increasing install timestamps, partitioned across
// goroutines by object (so concurrent application is deterministic per
// chain), applied concurrently to the driver while readers probe it,
// then replayed sequentially into the reference store; every chain and
// every read probe must agree.
func hammerDifferential(t *testing.T, factory Factory) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			const objects = 24
			const opsPerObj = 60

			// Per-object op logs with strictly increasing timestamps.
			logs := make([][]hammerOp, objects)
			for o := range logs {
				obj := model.Obj(fmt.Sprintf("h%d", o))
				ts := uint64(0)
				for i := 0; i < opsPerObj; i++ {
					ts += 1 + uint64(rng.Intn(5))
					logs[o] = append(logs[o], hammerOp{obj: obj, ts: ts, install: rng.Intn(4) != 0})
				}
			}

			d := newDriver(t, factory)
			var wg sync.WaitGroup
			for o := range logs {
				wg.Add(1)
				go func(log []hammerOp) {
					defer wg.Done()
					for _, op := range log {
						if op.install {
							if err := d.Install(op.obj, storage.Version{Val: model.Value(op.ts), TS: op.ts}); err != nil {
								t.Errorf("Install(%s,%d): %v", op.obj, op.ts, err)
								return
							}
						} else {
							// Probe concurrently; the value, if present, must
							// be the timestamp it was installed with.
							if v, ok := d.ReadAt(op.obj, op.ts); ok && uint64(v.Val) != v.TS {
								t.Errorf("ReadAt(%s,%d) returned torn version %+v", op.obj, op.ts, v)
								return
							}
						}
					}
				}(logs[o])
			}
			// Cross-object readers exercising the batch paths while
			// installs run.
			stop := make(chan struct{})
			var readers sync.WaitGroup
			readers.Add(1)
			go func() {
				defer readers.Done()
				probe := make([]model.Obj, objects)
				for o := range probe {
					probe[o] = model.Obj(fmt.Sprintf("h%d", o))
				}
				rng := rand.New(rand.NewSource(seed + 1000))
				for {
					select {
					case <-stop:
						return
					default:
					}
					vs, oks := d.ReadAtBatch(probe, uint64(1+rng.Intn(200)))
					for i := range vs {
						if oks[i] && uint64(vs[i].Val) != vs[i].TS {
							t.Errorf("ReadAtBatch returned torn version %+v", vs[i])
							return
						}
					}
					d.LatestTSBatch(probe)
				}
			}()
			wg.Wait()
			close(stop)
			readers.Wait()

			// Sequential replay into the reference store.
			ref := &refStore{}
			for _, log := range logs {
				for _, op := range log {
					if op.install {
						if err := ref.install(op.obj, storage.Version{Val: model.Value(op.ts), TS: op.ts}); err != nil {
							t.Fatal(err)
						}
					}
				}
			}

			// Differential read sweep over every object and timestamp.
			compare := func() {
				for _, log := range logs {
					for ts := uint64(0); ts <= log[len(log)-1].ts+1; ts++ {
						got, gok := d.ReadAt(log[0].obj, ts)
						want, wok := ref.readAt(log[0].obj, ts)
						if gok != wok || got != want {
							t.Fatalf("ReadAt(%s,%d): driver (%+v,%v) != ref (%+v,%v)",
								log[0].obj, ts, got, gok, want, wok)
						}
					}
				}
			}
			compare()

			// Compact both at the same watermark; drop counts and
			// post-compaction reads must agree.
			watermark := uint64(rng.Intn(200))
			if g, w := d.Compact(watermark), ref.gc(watermark); g != w {
				t.Fatalf("Compact(%d): driver dropped %d, ref dropped %d", watermark, g, w)
			}
			compare()
		})
	}
}

// installBatchMatchesSequential pins InstallBatch to the semantics of
// per-object Install calls.
func installBatchMatchesSequential(t *testing.T, factory Factory) {
	batch := newDriver(t, factory)
	seq := newDriver(t, factory)
	var ws []storage.Write
	for i := 0; i < 50; i++ {
		obj := model.Obj(fmt.Sprintf("b%d", i%7))
		v := storage.Version{Val: model.Value(i), TS: uint64(i + 1)}
		ws = append(ws, storage.Write{Obj: obj, Version: v})
		if err := seq.Install(obj, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := batch.InstallBatch(ws); err != nil {
		t.Fatal(err)
	}
	for _, obj := range seq.Objects() {
		if batch.VersionCount(obj) != seq.VersionCount(obj) {
			t.Errorf("%s: batch %d versions, seq %d", obj, batch.VersionCount(obj), seq.VersionCount(obj))
		}
		for ts := uint64(0); ts <= 51; ts++ {
			got, gok := batch.ReadAt(obj, ts)
			want, wok := seq.ReadAt(obj, ts)
			if gok != wok || got != want {
				t.Fatalf("ReadAt(%s,%d) mismatch", obj, ts)
			}
		}
	}
	// A non-monotonic batch write surfaces the install error.
	if err := batch.InstallBatch([]storage.Write{{Obj: "b0", Version: storage.Version{TS: 1}}}); err == nil {
		t.Error("non-monotonic batch accepted")
	}
}

// batchWindow exercises the group-commit window (Driver.LockBatch):
// the union lock must make validate-then-install atomic for every
// member against concurrent overlapping windows, records staged via
// LogCommitBatch must be durable as one group (for drivers exposing
// DurableWindow), and installs through the batch window must read
// back exactly like solo installs.
func batchWindow(t *testing.T, factory Factory) {
	d := newDriver(t, factory)

	// Two disjoint members committed under one union window.
	union := []model.Obj{"bx", "by", "bz"}
	w := d.LockBatch(union)
	for _, x := range union {
		if got := w.LatestTS(x); got != 0 {
			t.Fatalf("LatestTS(%s) = %d on empty store", x, got)
		}
	}
	// Member 1 writes bx,by at ts 1; member 2 writes bz at ts 2.
	for _, x := range []model.Obj{"bx", "by"} {
		if err := w.Install(x, storage.Version{Val: 10, TS: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Install("bz", storage.Version{Val: 20, TS: 2}); err != nil {
		t.Fatal(err)
	}
	w.LogCommitBatch([]storage.CommitRecord{
		{TS: 1, Session: "s1", TxID: "t1", Ops: []model.Op{model.Write("bx", 10), model.Write("by", 10)}},
		{TS: 2, Session: "s2", TxID: "t2", Ops: []model.Op{model.Write("bz", 20)}},
	})
	w.Unlock()
	if dw, ok := w.(storage.DurableWindow); ok {
		lsn, err := dw.Durable()
		if err != nil {
			t.Fatalf("group sync: %v", err)
		}
		if lsn == 0 {
			t.Error("durable batch window reported LSN 0")
		}
	}
	for _, probe := range []struct {
		obj model.Obj
		ts  uint64
		val model.Value
	}{{"bx", 1, 10}, {"by", 1, 10}, {"bz", 2, 20}} {
		v, ok := d.ReadAt(probe.obj, probe.ts)
		if !ok || v.Val != probe.val {
			t.Errorf("ReadAt(%s,%d) = (%+v,%v), want val %d", probe.obj, probe.ts, v, ok, probe.val)
		}
	}

	// First-committer-wins through the batch window: concurrent
	// batches over overlapping unions must serialize, and exactly one
	// winner per round installs.
	const rounds = 100
	var wins [2]int
	var wg sync.WaitGroup
	start := make(chan int, 2)
	objs := []model.Obj{"bw1", "bw2"}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := range start {
				l := d.LockBatch(objs)
				ok := true
				for _, x := range objs {
					if l.LatestTS(x) > uint64(round) {
						ok = false
					}
				}
				if ok {
					for _, x := range objs {
						if err := l.Install(x, storage.Version{Val: model.Value(g), TS: uint64(round + 1)}); err != nil {
							t.Errorf("install: %v", err)
						}
					}
					wins[g]++
				}
				l.Unlock()
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	for r := 0; r < rounds; r++ {
		start <- r
		start <- r
	}
	close(start)
	<-done
	total := wins[0] + wins[1]
	if got := d.VersionCount("bw1"); got != total || got != d.VersionCount("bw2") {
		t.Errorf("versions bw1=%d bw2=%d, want both %d (wins %v)",
			d.VersionCount("bw1"), d.VersionCount("bw2"), total, wins)
	}
}

// batchWindowMatchesSolo differentially pins the batch window to the
// solo window: committing the same disjoint transactions through one
// LockBatch union window or through per-transaction LockObjs windows
// must leave identical stores.
func batchWindowMatchesSolo(t *testing.T, factory Factory) {
	batched := newDriver(t, factory)
	solo := newDriver(t, factory)

	type member struct {
		objs []model.Obj
		ts   uint64
	}
	var members []member
	for i := 0; i < 20; i++ {
		members = append(members, member{
			objs: []model.Obj{model.Obj(fmt.Sprintf("m%d_a", i)), model.Obj(fmt.Sprintf("m%d_b", i))},
			ts:   uint64(i + 1),
		})
	}

	var union []model.Obj
	var recs []storage.CommitRecord
	for _, m := range members {
		union = append(union, m.objs...)
	}
	w := batched.LockBatch(union)
	for _, m := range members {
		for _, x := range m.objs {
			if err := w.Install(x, storage.Version{Val: model.Value(m.ts), TS: m.ts}); err != nil {
				t.Fatal(err)
			}
		}
		recs = append(recs, storage.CommitRecord{TS: m.ts, Session: "s", TxID: fmt.Sprintf("t%d", m.ts)})
	}
	w.LogCommitBatch(recs)
	w.Unlock()
	if dw, ok := w.(storage.DurableWindow); ok {
		if _, err := dw.Durable(); err != nil {
			t.Fatal(err)
		}
	}

	for _, m := range members {
		l := solo.LockObjs(m.objs)
		for _, x := range m.objs {
			if err := l.Install(x, storage.Version{Val: model.Value(m.ts), TS: m.ts}); err != nil {
				t.Fatal(err)
			}
		}
		if lg, ok := l.(storage.CommitLogger); ok {
			lg.LogCommit(storage.CommitRecord{TS: m.ts, Session: "s", TxID: fmt.Sprintf("t%d", m.ts)})
		}
		l.Unlock()
	}

	for _, m := range members {
		for _, x := range m.objs {
			if batched.VersionCount(x) != solo.VersionCount(x) {
				t.Errorf("%s: batched %d versions, solo %d", x, batched.VersionCount(x), solo.VersionCount(x))
			}
			for ts := uint64(0); ts <= uint64(len(members))+1; ts++ {
				got, gok := batched.ReadAt(x, ts)
				want, wok := solo.ReadAt(x, ts)
				if gok != wok || got != want {
					t.Fatalf("ReadAt(%s,%d): batched (%+v,%v) != solo (%+v,%v)", x, ts, got, gok, want, wok)
				}
			}
		}
	}
}

// lockObjsWindow exercises the commit-window lock: validation and
// installation under LockObjs must be atomic against a concurrent
// commit of an overlapping write set.
func lockObjsWindow(t *testing.T, factory Factory) {
	d := newDriver(t, factory)
	objs := []model.Obj{"x", "y"}
	const rounds = 200
	var wins [2]int
	var wg sync.WaitGroup
	start := make(chan int, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := range start {
				l := d.LockObjs(objs)
				ok := true
				for _, x := range objs {
					if l.LatestTS(x) > uint64(round) {
						ok = false
					}
				}
				if ok {
					for _, x := range objs {
						if err := l.Install(x, storage.Version{Val: model.Value(w), TS: uint64(round + 1)}); err != nil {
							t.Errorf("install: %v", err)
						}
					}
					wins[w]++ // guarded: only one goroutine can win a round
				}
				l.Unlock()
			}
		}(w)
	}
	// Feed each round to both workers; first-committer-wins must hold
	// per round, so total installs per object equal total won rounds.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	for r := 0; r < rounds; r++ {
		start <- r
		start <- r
	}
	close(start)
	<-done
	total := wins[0] + wins[1]
	if got := d.VersionCount("x"); got != total || got != d.VersionCount("y") {
		t.Errorf("versions x=%d y=%d, want both %d (wins %v)", d.VersionCount("x"), d.VersionCount("y"), total, wins)
	}
}
