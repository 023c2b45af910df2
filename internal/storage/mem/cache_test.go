package mem

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sian/internal/model"
)

// TestEntryCacheNeverTornOrAhead races readers of the entries' cached
// versions against the installs that rewrite them, on every install
// path, against a creator whose new objects make the hot shard's table
// double under the readers, and against GC at the readers' registered
// minimum. Key i has a version at every ts with (ts+i)%3 != 0, valued
// val(i, ts), so a torn pair — one version's ts with another's value —
// shows as val != val(i, ts). Readers register a fresh snapshot before
// every read, so the cached version is usually at or below it and the
// seqlock, not the record, answers. They assert that a read at a
// registered snapshot is at or below it and equals the ground truth,
// that Latest is never older than that truth and is already in the
// record (the cache never runs ahead of the record), and that Latest
// never goes back. Meant for -race.
func TestEntryCacheNeverTornOrAhead(t *testing.T) {
	t.Parallel()
	const (
		nreaders  = 2
		minRounds = 20000 // timestamps the writer installs at least
		minReads  = 20000 // reads the readers make at least
		grow      = 4096  // objects the creator adds to the hot shard
	)
	hot := shardIndex("h0")
	var keys []model.Obj
	for i := 0; len(keys) < 4; i++ {
		if x := model.Obj(fmt.Sprintf("h%d", i)); shardIndex(x) == hot {
			keys = append(keys, x)
		}
	}
	var created []model.Obj
	for i := 0; len(created) < grow; i++ {
		if x := model.Obj(fmt.Sprintf("c%d", i)); shardIndex(x) == hot {
			created = append(created, x)
		}
	}
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
	createdVal := func(j int) model.Value { return -1 - model.Value(j) }

	s := New()
	var (
		pub     atomic.Uint64 // every version ≤ pub is installed
		ncreate atomic.Int64  // created[:ncreate] are installed
		reads   atomic.Int64
		snaps   [nreaders]atomic.Uint64 // registered snapshots
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
	registered := func() uint64 {
		w := pub.Load()
		for r := range snaps {
			w = min(w, snaps[r].Load())
		}
		return w
	}

	quit := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < nreaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var last [4]uint64 // the newest Latest seen per key
			for n := 0; ; n++ {
				select {
				case <-quit:
					return
				default:
				}
				if reads.Add(1)%64 == 0 {
					runtime.Gosched() // the writer waits for a reader descheduled with an old snapshot
				}
				snap := pub.Load()
				snaps[r].Store(snap)
				i := n % len(keys)
				x := keys[i]
				switch n % 5 {
				case 0, 1:
					v, ok := s.ReadAt(x, snap)
					if want := truth(i, snap); !ok || v.TS > snap || v.Val != val(i, v.TS) || v.TS != want {
						t.Errorf("ReadAt(%s, %d) = (%+v, %v), want ts %d val %d", x, snap, v, ok, want, val(i, want))
						return
					}
				case 2:
					v, ok := s.Latest(x)
					if !ok || v.Val != val(i, v.TS) || v.TS < truth(i, snap) || v.TS < last[i] {
						t.Errorf("Latest(%s) at registered %d = (%+v, %v): torn, older than ts %d or than the %d seen before", x, snap, v, ok, truth(i, snap), last[i])
						return
					}
					last[i] = v.TS
					if w, ok := s.find(x).readAt(v.TS); !ok || w != v {
						t.Errorf("Latest(%s) = %+v, but the record's read at %d = (%+v, %v)", x, v, v.TS, w, ok)
						return
					}
				case 3:
					if ts := s.LatestTS(x); !has(i, ts) || ts < truth(i, snap) {
						t.Errorf("LatestTS(%s) at registered %d = %d, want a version at or after ts %d", x, snap, ts, truth(i, snap))
						return
					}
				case 4:
					if m := ncreate.Load(); m > 0 {
						j := n % int(m)
						if v, ok := s.ReadAt(created[j], snap); !ok || v != (Version{Val: createdVal(j), TS: 1}) {
							t.Errorf("ReadAt(%s, %d) of a created object = (%+v, %v)", created[j], snap, v, ok)
							return
						}
					}
				}
			}
		}(r)
	}

	// The creator adds objects to the hot shard, doubling its table
	// nine times while the readers probe it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j, x := range created {
			if err := s.Install(x, Version{Val: createdVal(j), TS: 1}); err != nil {
				t.Error(err)
				return
			}
			ncreate.Store(int64(j + 1))
			if j%8 == 0 {
				runtime.Gosched()
			}
		}
	}()

	// The writer: install, and GC at the registered minimum every 16
	// timestamps, never more than 64 ahead of it.
	for ts := pub.Load() + 1; !t.Failed() && (ts <= minRounds || reads.Load() < minReads || ncreate.Load() < grow); ts++ {
		for ts-registered() > 64 && !t.Failed() {
			runtime.Gosched()
		}
		install(ts)
		if ts%16 == 0 {
			s.GC(registered())
		}
	}
	close(quit)
	wg.Wait()
	for j, x := range created {
		if v, ok := s.Latest(x); !ok || v != (Version{Val: createdVal(j), TS: 1}) {
			t.Fatalf("Latest(%s) of a created object = (%+v, %v)", x, v, ok)
		}
	}
}

// TestEntryCacheMatchesRecord: after every install path, a refused
// install, table doublings, GC and Clone, each entry caches exactly
// its record's newest version, which is what Locked.LatestTS answers.
func TestEntryCacheMatchesRecord(t *testing.T) {
	t.Parallel()
	check := func(s *Store, when string) {
		t.Helper()
		for _, x := range s.Objects() {
			chain := s.Chain(x)
			newest := chain[len(chain)-1]
			l := s.LockObjs([]model.Obj{x})
			ts := l.LatestTS(x)
			e := s.lookup(x)
			cached := Version{Val: model.Value(e.val.Load()), TS: e.ts.Load()}
			l.Unlock()
			if ts != newest.TS || cached != newest {
				t.Fatalf("%s: %s has newest %+v in its record, but Locked.LatestTS %d and cached %+v", when, x, newest, ts, cached)
			}
		}
	}
	s := New()
	objs := make([]model.Obj, 100) // enough for every shard's table to double
	for i := range objs {
		objs[i] = model.Obj(fmt.Sprintf("o%d", i))
		mustInstall(t, s, objs[i], Version{Val: model.Value(i), TS: 1})
	}
	check(s, "Install")
	var ws []Write
	for i, x := range objs {
		ws = append(ws, Write{Obj: x, Version: Version{Val: model.Value(100 + i), TS: 2}})
	}
	if err := s.InstallBatch(ws); err != nil {
		t.Fatal(err)
	}
	check(s, "InstallBatch")
	l := s.LockObjs(objs[:10])
	for i, x := range objs[:10] {
		if err := l.Install(x, Version{Val: model.Value(200 + i), TS: 3}); err != nil {
			t.Fatal(err)
		}
	}
	l.Unlock()
	check(s, "Locked.Install")
	if err := s.Install(objs[0], Version{Val: 9, TS: 3}); err == nil {
		t.Fatal("a non-monotonic install succeeded")
	}
	check(s, "a refused install")
	s.GC(3)
	check(s, "GC")
	c := s.Clone()
	check(c, "Clone")
	mustInstall(t, c, objs[0], Version{Val: 300, TS: 4})
	check(c, "an install into the clone")
	check(s, "an install into the clone, in its source")
	if got := s.LatestTS(objs[0]); got != 3 {
		t.Errorf("the source's LatestTS(%s) = %d after an install into the clone only, want 3", objs[0], got)
	}
}
