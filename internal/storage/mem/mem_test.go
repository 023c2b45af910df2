package mem

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"sian/internal/model"
)

func TestInstallAndReadAt(t *testing.T) {
	t.Parallel()
	s := New()
	for i, v := range []model.Value{10, 20, 30} {
		if err := s.Install("x", Version{Val: v, TS: uint64(i + 1)}); err != nil {
			t.Fatalf("Install: %v", err)
		}
	}
	tests := []struct {
		ts   uint64
		want model.Value
		ok   bool
	}{
		{0, 0, false},
		{1, 10, true},
		{2, 20, true},
		{3, 30, true},
		{99, 30, true},
	}
	for _, tc := range tests {
		got, ok := s.ReadAt("x", tc.ts)
		if ok != tc.ok || (ok && got.Val != tc.want) {
			t.Errorf("ReadAt(x, %d) = (%v, %v), want (%d, %v)", tc.ts, got.Val, ok, tc.want, tc.ok)
		}
	}
	if _, ok := s.ReadAt("missing", 5); ok {
		t.Error("ReadAt on missing object succeeded")
	}
}

func TestInstallMonotonic(t *testing.T) {
	t.Parallel()
	s := New()
	if err := s.Install("x", Version{Val: 1, TS: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Install("x", Version{Val: 2, TS: 5}); err == nil {
		t.Error("equal timestamp accepted")
	}
	if err := s.Install("x", Version{Val: 2, TS: 4}); err == nil {
		t.Error("smaller timestamp accepted")
	}
	// Other objects are independent.
	if err := s.Install("y", Version{Val: 9, TS: 1}); err != nil {
		t.Errorf("independent object rejected: %v", err)
	}
}

func TestLatest(t *testing.T) {
	t.Parallel()
	s := New()
	if _, ok := s.Latest("x"); ok {
		t.Error("Latest on empty store")
	}
	if ts := s.LatestTS("x"); ts != 0 {
		t.Errorf("LatestTS = %d, want 0", ts)
	}
	mustInstall(t, s, "x", Version{Val: 1, TS: 3})
	mustInstall(t, s, "x", Version{Val: 2, TS: 7})
	v, ok := s.Latest("x")
	if !ok || v.Val != 2 || v.TS != 7 {
		t.Errorf("Latest = %+v", v)
	}
	if s.LatestTS("x") != 7 {
		t.Error("LatestTS wrong")
	}
}

func mustInstall(t *testing.T, s *Store, x model.Obj, v Version) {
	t.Helper()
	if err := s.Install(x, v); err != nil {
		t.Fatalf("Install(%s, %+v): %v", x, v, err)
	}
}

func TestObjectsAndVersionCount(t *testing.T) {
	t.Parallel()
	s := New()
	mustInstall(t, s, "b", Version{Val: 1, TS: 1})
	mustInstall(t, s, "a", Version{Val: 1, TS: 1})
	mustInstall(t, s, "a", Version{Val: 2, TS: 2})
	objs := s.Objects()
	if len(objs) != 2 || objs[0] != "a" || objs[1] != "b" {
		t.Errorf("Objects = %v", objs)
	}
	if s.VersionCount("a") != 2 || s.VersionCount("b") != 1 || s.VersionCount("zz") != 0 {
		t.Error("VersionCount wrong")
	}
}

func TestGC(t *testing.T) {
	t.Parallel()
	s := New()
	for i := 1; i <= 5; i++ {
		mustInstall(t, s, "x", Version{Val: model.Value(i), TS: uint64(i)})
	}
	dropped := s.GC(3)
	if dropped != 2 {
		t.Errorf("GC dropped %d, want 2", dropped)
	}
	// A read at the watermark still sees version 3.
	v, ok := s.ReadAt("x", 3)
	if !ok || v.Val != 3 {
		t.Errorf("ReadAt(3) after GC = (%v, %v)", v.Val, ok)
	}
	// Reads below the watermark now miss.
	if _, ok := s.ReadAt("x", 2); ok {
		t.Error("pre-watermark version survived GC")
	}
	if s.VersionCount("x") != 3 {
		t.Errorf("VersionCount = %d", s.VersionCount("x"))
	}
	// GC at or below the oldest kept version is a no-op.
	if d := s.GC(1); d != 0 {
		t.Errorf("second GC dropped %d", d)
	}
}

func TestZeroValueUsable(t *testing.T) {
	t.Parallel()
	var s Store
	if err := s.Install("x", Version{Val: 1, TS: 1}); err != nil {
		t.Fatalf("zero-value store unusable: %v", err)
	}
	if v, ok := s.ReadAt("x", 1); !ok || v.Val != 1 {
		t.Error("read after install on zero value failed")
	}
}

func TestConcurrentAccess(t *testing.T) {
	t.Parallel()
	s := New()
	const writers = 8
	const versions = 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			obj := model.Obj(fmt.Sprintf("k%d", w))
			for i := 1; i <= versions; i++ {
				if err := s.Install(obj, Version{Val: model.Value(i), TS: uint64(i)}); err != nil {
					t.Errorf("Install: %v", err)
					return
				}
				if v, ok := s.ReadAt(obj, uint64(i)); !ok || v.Val != model.Value(i) {
					t.Errorf("ReadAt(%s,%d) = (%v,%v)", obj, i, v.Val, ok)
					return
				}
			}
		}(w)
	}
	// Concurrent readers of all objects.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Objects()
				s.ReadAt("k0", uint64(i))
				s.LatestTS("k1")
			}
		}()
	}
	wg.Wait()
	for w := 0; w < writers; w++ {
		obj := model.Obj(fmt.Sprintf("k%d", w))
		if s.VersionCount(obj) != versions {
			t.Errorf("%s has %d versions", obj, s.VersionCount(obj))
		}
	}
}

// TestGCSteadyStateAllocFree: once a chain has its array, an install
// plus a GC at the newest timestamp trims the chain in place and
// reuses the multi-version list, so the pair allocates nothing. Not
// parallel: AllocsPerRun counts every goroutine's allocations.
func TestGCSteadyStateAllocFree(t *testing.T) {
	s := New()
	ts := uint64(1)
	mustInstall(t, s, "x", Version{Val: 1, TS: ts})
	step := func() {
		ts++
		if err := s.Install("x", Version{Val: model.Value(ts), TS: ts}); err != nil {
			t.Fatal(err)
		}
		if d := s.GC(ts); d != 1 {
			t.Fatalf("GC(%d) dropped %d, want 1", ts, d)
		}
	}
	step() // warm-up: the chain's array and the shard's list grow once
	if a := testing.AllocsPerRun(100, step); a != 0 {
		t.Errorf("install + GC allocates %.1f times, want 0", a)
	}
	if n := s.VersionCount("x"); n != 1 {
		t.Errorf("VersionCount = %d after GC at the newest version, want 1", n)
	}
}

// TestGCKeepsShortRings: a record that reaches 5 live versions between
// GC passes grows its ring to minRing slots once, and then keeps it:
// after the first cycle neither the installs nor the passes allocate.
// Not parallel: AllocsPerRun counts every goroutine's allocations.
func TestGCKeepsShortRings(t *testing.T) {
	s := New()
	ts := uint64(1)
	mustInstall(t, s, "x", Version{Val: 1, TS: ts})
	cycle := func() {
		for i := 0; i < 4; i++ {
			ts++
			if err := s.Install("x", Version{Val: model.Value(ts), TS: ts}); err != nil {
				t.Fatal(err)
			}
		}
		if d := s.GC(ts); d != 4 {
			t.Fatalf("GC(%d) dropped %d, want 4", ts, d)
		}
	}
	cycle() // the ring grows 2 → 4 → 8 once
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Errorf("4 installs + GC allocate %.1f times per cycle, want 0", a)
	}
	if n := len(s.find("x").slots()); n != minRing {
		t.Errorf("ring has %d slots, want %d", n, minRing)
	}
}

// TestGCShrinksLongRings: a ring grown past 64 slots shrinks once its
// live versions drop, to the smallest power of two holding them but no
// shorter than minRing, and keeps every live version readable.
func TestGCShrinksLongRings(t *testing.T) {
	t.Parallel()
	s := New()
	for ts := uint64(1); ts <= 100; ts++ {
		mustInstall(t, s, "x", Version{Val: model.Value(10 * ts), TS: ts})
	}
	o := s.find("x")
	if n := len(o.slots()); n != 128 {
		t.Fatalf("100 versions in %d slots, want 128", n)
	}
	for _, step := range []struct {
		watermark uint64
		live      int
		slots     int
	}{
		{68, 33, 128}, // 128 ≤ 4·33: kept
		{90, 11, 16},
		{100, 1, minRing},
	} {
		s.GC(step.watermark)
		if n := s.VersionCount("x"); n != step.live {
			t.Errorf("GC(%d) left %d versions, want %d", step.watermark, n, step.live)
		}
		if n := len(o.slots()); n != step.slots {
			t.Errorf("GC(%d) left a ring of %d slots, want %d", step.watermark, n, step.slots)
		}
		for ts := 101 - uint64(step.live); ts <= 100; ts++ {
			if v, ok := s.ReadAt("x", ts); !ok || v != (Version{Val: model.Value(10 * ts), TS: ts}) {
				t.Errorf("after GC(%d) ReadAt(x, %d) = %+v, %v", step.watermark, ts, v, ok)
			}
		}
	}
}

// TestCloneGCMatchesSource: a clone carries the multi-version lists,
// so GC drops the same versions from it as from its source, and the
// two stay independent.
func TestCloneGCMatchesSource(t *testing.T) {
	t.Parallel()
	s := New()
	objs := make([]model.Obj, 40)
	for i := range objs {
		objs[i] = model.Obj(fmt.Sprintf("o%d", i))
		for v := 1; v <= 1+i%5; v++ { // chains of 1 to 5 versions
			mustInstall(t, s, objs[i], Version{Val: model.Value(v), TS: uint64(v)})
		}
	}
	c := s.Clone()
	for _, w := range []uint64{2, 4, 9} {
		if got, want := c.GC(w), s.GC(w); got != want || want == 0 {
			t.Errorf("GC(%d): clone dropped %d, source %d (want equal and > 0)", w, got, want)
		}
		for _, x := range objs {
			if a, b := c.Chain(x), s.Chain(x); fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("after GC(%d) %s: clone %v, source %v", w, x, a, b)
			}
		}
	}
	// A chain that gains a second version in the clone only is the
	// clone's to collect.
	mustInstall(t, c, objs[0], Version{Val: 9, TS: 10})
	if got, want := c.GC(10), 1; got != want {
		t.Errorf("clone GC after a clone-only install dropped %d, want %d", got, want)
	}
	if got := s.GC(10); got != 0 {
		t.Errorf("source GC dropped %d versions installed only in the clone", got)
	}
}

// TestSameShardReadersAndWriter puts readers, a committer and GC on
// one shard, the lock they all contend for: keys chosen to hash onto
// one stripe, readers at a fixed timestamp (through ReadAt, ReadAtBatch
// and a LockObjs window), a writer installing newer versions through
// LockObjs and InstallBatch, and GC trimming up to the readers'
// timestamp. Every read at that timestamp must return the same version
// throughout. Meant for -race.
func TestSameShardReadersAndWriter(t *testing.T) {
	t.Parallel()
	const (
		nkeys     = 4
		snapTS    = 5    // the readers' timestamp; versions 1..snapTS exist up front
		minRounds = 300  // the writer installs at least this many versions per key
		minReads  = 3000 // and keeps going until the readers have read this often
	)
	var keys []model.Obj
	for i := 0; len(keys) < nkeys; i++ {
		if x := model.Obj(fmt.Sprintf("k%d", i)); shardIndex(x) == shardIndex("k0") {
			keys = append(keys, x)
		}
	}
	s := New()
	val := func(i int, ts uint64) model.Value { return model.Value(1000*i) + model.Value(ts) }
	for ts := uint64(1); ts <= snapTS; ts++ {
		for i, x := range keys {
			mustInstall(t, s, x, Version{Val: val(i, ts), TS: ts})
		}
	}
	check := func(i int, v Version, ok bool) bool {
		if !ok || v.TS != snapTS || v.Val != val(i, snapTS) {
			t.Errorf("read of %s at %d = (%+v, %v), want ts %d val %d", keys[i], snapTS, v, ok, snapTS, val(i, snapTS))
			return false
		}
		return true
	}

	stop := make(chan struct{})
	var reads atomic.Int64
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				reads.Add(1)
				switch (r + n) % 3 {
				case 0:
					i := n % nkeys
					if v, ok := s.ReadAt(keys[i], snapTS); !check(i, v, ok) {
						return
					}
				case 1:
					vs, oks := s.ReadAtBatch(keys, snapTS)
					for i := range keys {
						if !check(i, vs[i], oks[i]) {
							return
						}
					}
				case 2:
					l := s.LockObjs(keys)
					v, ok := l.ReadAt(keys[n%nkeys], snapTS)
					l.Unlock()
					if !check(n%nkeys, v, ok) {
						return
					}
				}
			}
		}(r)
	}

	ts := uint64(snapTS)
	for !t.Failed() && (ts < snapTS+minRounds || reads.Load() < minReads) {
		ts++
		if ts%2 == 0 {
			l := s.LockObjs(keys)
			for i, x := range keys {
				if err := l.Install(x, Version{Val: val(i, ts), TS: ts}); err != nil {
					t.Error(err)
				}
			}
			l.Unlock()
		} else {
			ws := make([]Write, len(keys))
			for i, x := range keys {
				ws[i] = Write{Obj: x, Version: Version{Val: val(i, ts), TS: ts}}
			}
			if err := s.InstallBatch(ws); err != nil {
				t.Error(err)
			}
		}
		s.GC(min(ts-snapTS, snapTS))
	}
	close(stop)
	readers.Wait()
	for _, x := range keys {
		if n, want := s.VersionCount(x), int(ts-snapTS)+1; n != want {
			t.Errorf("%s keeps %d versions after GC at %d, want %d", x, n, snapTS, want)
		}
	}
}

// TestLockFreeReadsMatchGroundTruth races lock-free readers against
// every writer path: installs through Install, InstallBatch and a
// LockObjs window, and GC at the minimum of the readers' registered
// snapshots, in passes spaced 1 to 64 timestamps apart so that each
// record's ring fills, wraps, doubles and shrinks many times. Key i
// has a version at every ts with (ts+i)%3 != 0, valued val(i, ts), so
// a read at snap must return exactly the version at the largest such
// ts ≤ snap. Readers register a snapshot the way the engine does — no
// lower than the one they held — and GC's watermark is at most every
// registered one. A second phase reads just below the watermark of
// GC passes in flight: a read there may miss but never returns a
// dropped version in place of its answer, and 3 below a finished
// pass's watermark it must miss. Meant for -race.
func TestLockFreeReadsMatchGroundTruth(t *testing.T) {
	t.Parallel()
	const (
		nreaders  = 3
		minRounds = 3000 // timestamps the writer installs at least
		minReads  = 6000 // reads the readers make at least, per phase
	)
	var keys []model.Obj
	for i := 0; len(keys) < 4; i++ { // four keys on one shard, two elsewhere
		if x := model.Obj(fmt.Sprintf("g%d", i)); shardIndex(x) == shardIndex("g0") {
			keys = append(keys, x)
		}
	}
	keys = append(keys, "other1", "other2")
	has := func(i int, ts uint64) bool { return (ts+uint64(i))%3 != 0 }
	val := func(i int, ts uint64) model.Value { return model.Value(1_000_000*i) + model.Value(ts) }
	truth := func(i int, snap uint64) uint64 {
		for ts := snap; ts > 0; ts-- {
			if has(i, ts) {
				return ts
			}
		}
		return 0
	}

	s := New()
	var (
		pub    atomic.Uint64 // every version ≤ pub is installed
		gcDone atomic.Uint64 // a finished GC pass's watermark
		reads  atomic.Int64
		snaps  [nreaders]atomic.Uint64 // registered snapshots
	)
	install := func(ts uint64) {
		var ws []Write
		for i, x := range keys {
			if has(i, ts) {
				ws = append(ws, Write{Obj: x, Version: Version{Val: val(i, ts), TS: ts}})
			}
		}
		switch ts % 3 {
		case 0:
			for _, w := range ws {
				if err := s.Install(w.Obj, w.Version); err != nil {
					t.Error(err)
				}
			}
		case 1:
			if err := s.InstallBatch(ws); err != nil {
				t.Error(err)
			}
		case 2:
			l := s.LockObjs(keys)
			for _, w := range ws {
				if err := l.Install(w.Obj, w.Version); err != nil {
					t.Error(err)
				}
			}
			l.Unlock()
		}
		pub.Store(ts)
	}
	for ts := uint64(1); ts <= 3; ts++ {
		install(ts)
	}
	for r := range snaps {
		snaps[r].Store(pub.Load())
	}

	// readers runs read(r, n) on nreaders goroutines until stopped,
	// or until a read fails.
	readers := func(read func(r, n int) bool) (stop func()) {
		quit := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < nreaders; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for n := 0; ; n++ {
					select {
					case <-quit:
						return
					default:
					}
					reads.Add(1)
					if !read(r, n) {
						return
					}
				}
			}(r)
		}
		return func() { close(quit); wg.Wait() }
	}

	// The writer: install, and GC at the registered minimum every
	// 1, 2, 4, …, 64 timestamps. It counts the rings key 0 goes
	// through.
	rec := s.find(keys[0])
	rings, shrinks, ring, maxLive := 0, 0, rec.ring.Load(), uint64(0)
	registered := func() uint64 {
		w := pub.Load()
		for r := range snaps {
			w = min(w, snaps[r].Load())
		}
		return w
	}
	gc := func() {
		w := registered()
		s.GC(w)
		gcDone.Store(w)
	}
	ts := pub.Load()
	write := func(rounds uint64) {
		start := reads.Load()
		for every := uint64(1); !t.Failed() && (ts < rounds || reads.Load()-start < minReads); every = every%64 + every {
			for k := uint64(0); k < every; k++ {
				for ts-registered() > 128 && !t.Failed() {
					runtime.Gosched()
				}
				ts++
				install(ts)
				maxLive = max(maxLive, rec.hi.Load()-rec.lo.Load())
				if r := rec.ring.Load(); r != ring {
					if ring != nil && r.n < ring.n {
						shrinks++
					}
					rings, ring = rings+1, r
				}
			}
			for every == 64 && registered() < ts && !t.Failed() {
				runtime.Gosched()
			}
			gc()
		}
	}

	// Phase 1: reader r moves its snapshot up once it lags 8<<r
	// timestamps behind, and every 64 reads; the writer waits while
	// any lags more than 128, and for all of them to catch up after
	// its 64-timestamp stretches. So the live versions of a record
	// swing between one and a few hundred.
	var held [nreaders]uint64
	stop := readers(func(r, n int) bool {
		if p := pub.Load(); p-held[r] >= 8<<r || n%64 == 0 {
			held[r] = p
			snaps[r].Store(p)
		}
		snap := held[r]
		want := func(i int) Version { ts := truth(i, snap); return Version{Val: val(i, ts), TS: ts} }
		if n%5 == 4 {
			vs, oks := s.ReadAtBatch(keys, snap)
			for i := range keys {
				if !oks[i] || vs[i] != want(i) {
					t.Errorf("ReadAtBatch %s at %d = (%+v, %v), want %+v", keys[i], snap, vs[i], oks[i], want(i))
					return false
				}
			}
			return true
		}
		i := n % len(keys)
		if v, ok := s.ReadAt(keys[i], snap); !ok || v != want(i) {
			t.Errorf("ReadAt %s at %d = (%+v, %v), want %+v", keys[i], snap, v, ok, want(i))
			return false
		}
		return true
	})
	write(minRounds)
	stop()
	if rings < 20 {
		t.Errorf("key 0 went through %d rings (most live versions %d), want the ring resized at least 20 times", rings, maxLive)
	}
	if shrinks == 0 {
		t.Errorf("key 0 went through %d rings (most live versions %d), none of them shrunk", rings, maxLive)
	}
	t.Logf("key 0 went through %d rings, %d of them shrunk, at most %d live versions", rings, shrinks, maxLive)

	// Phase 2: no snapshot is registered, so GC collects at the newest
	// timestamp while readers read up to 15 below it, racing the passes
	// that drop their answers and the installs that overwrite them. A
	// read may miss, but what it returns must be the answer; and a read
	// 3 or more below a finished pass's watermark must miss.
	for r := range snaps {
		snaps[r].Store(^uint64(0))
	}
	gc()
	stop = readers(func(r, n int) bool {
		w := gcDone.Load()
		snap := pub.Load() - uint64(n%16)
		i := n % len(keys)
		v, ok := s.ReadAt(keys[i], snap)
		want := truth(i, snap)
		if ok && v != (Version{Val: val(i, want), TS: want}) {
			t.Errorf("read of %s at %d = %+v, want ts %d or a miss", keys[i], snap, v, want)
			return false
		}
		if ok && snap+3 <= w {
			t.Errorf("read of %s at %d, below GC watermark %d, returned dropped %+v", keys[i], snap, w, v)
			return false
		}
		return true
	})
	write(ts + minRounds)
	stop()
}

// TestReadAtWhileShardLocked is the direct proof that reads take no
// lock: while a LockObjs window holds a shard, reads of another
// object on that shard — every read accessor — return.
func TestReadAtWhileShardLocked(t *testing.T) {
	t.Parallel()
	var y model.Obj
	for i := 0; y == ""; i++ {
		if c := model.Obj(fmt.Sprintf("y%d", i)); shardIndex(c) == shardIndex("x") {
			y = c
		}
	}
	s := New()
	mustInstall(t, s, "x", Version{Val: 1, TS: 1})
	mustInstall(t, s, "x", Version{Val: 2, TS: 2})
	mustInstall(t, s, y, Version{Val: 3, TS: 1})
	l := s.LockObjs([]model.Obj{y})
	defer l.Unlock()
	done := make(chan error, 1)
	go func() {
		var err error
		if v, ok := s.ReadAt("x", 1); !ok || v.Val != 1 {
			err = fmt.Errorf("ReadAt(x, 1) = (%+v, %v)", v, ok)
		}
		if vs, oks := s.ReadAtBatch([]model.Obj{"x", "x"}, 2); !oks[0] || vs[1].Val != 2 {
			err = fmt.Errorf("ReadAtBatch(x, x at 2) = (%+v, %v)", vs, oks)
		}
		if v, ok := s.Latest("x"); !ok || v.TS != 2 || s.LatestTS("x") != 2 || s.LatestTSBatch([]model.Obj{"x"})[0] != 2 {
			err = fmt.Errorf("Latest(x) = (%+v, %v)", v, ok)
		}
		if n := s.VersionCount("x"); n != 2 {
			err = fmt.Errorf("VersionCount(x) = %d", n)
		}
		if _, ok := s.ReadAt("absent", 1); ok {
			err = fmt.Errorf("ReadAt of an absent object succeeded")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a read of x blocked behind a LockObjs window on its shard")
	}
}

// TestObjectFitsACacheLine: a reader of an object with one or two live
// versions touches only its record, and the record sits in one cache
// line only while it is allocated from the 64-byte size class.
func TestObjectFitsACacheLine(t *testing.T) {
	if n := unsafe.Sizeof(object{}); n > 64 {
		t.Errorf("object is %d bytes, want at most 64", n)
	}
}

// TestEntryLayout pins a table entry: the probe's fields first, then
// the cached version, 40 bytes in all. A read at a current snapshot
// loads only this entry.
func TestEntryLayout(t *testing.T) {
	var e entry
	if n := unsafe.Sizeof(e); n != 40 {
		t.Errorf("entry is %d bytes, want 40", n)
	}
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"obj", unsafe.Offsetof(e.obj), 0},
		{"key", unsafe.Offsetof(e.key), 8},
		{"ts", unsafe.Offsetof(e.ts), 24},
		{"val", unsafe.Offsetof(e.val), 32},
	} {
		if f.got != f.want {
			t.Errorf("entry.%s at offset %d, want %d", f.name, f.got, f.want)
		}
	}
}
