// Package mem is the in-memory storage driver: the multi-version
// key-value substrate used by the transactional engines in
// internal/engine, reached through the internal/storage driver
// interface (storage.NewMem) or embedded directly by drivers that add
// durability on top (internal/storage/wal).
//
// A Store keeps, per object, a record of versions ordered by a caller-
// supplied logical timestamp. Snapshot reads (ReadAt) return the
// latest version at or below a timestamp — exactly the primitive the
// SI concurrency-control algorithm of §1 of the paper needs ("a
// transaction reads values of shared objects from a snapshot taken at
// its start"), and the one each parallel-SI replica needs for its
// local snapshots. Garbage collection (GC) drops versions below a
// caller-chosen watermark; each shard lists its multi-version
// records, so a pass visits only records that hold something to drop.
//
// The store is lock-striped: objects hash onto a fixed number of
// shards, each with its own mutex, object index and garbage
// collection. Only writers take the mutex: Install, InstallBatch, the
// LockObjs commit window and GC. Commit protocols that must validate
// and install a whole write set atomically take the write set's shard
// locks once, in canonical shard order, through LockObjs. Reads take
// no lock and write no shared memory: a shard's objects sit in an
// append-only hash table that readers probe with atomic loads (see
// table), and an object's versions in a ring that readers search with
// atomic loads (see object for the safety argument). Each table entry
// also carries its object's newest version (see entry), so a read at a
// current snapshot is answered by the entry and never loads the record.
//
// The store is safe for concurrent use; the zero value is ready.
package mem

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"sian/internal/model"
)

// Version is one committed version of an object.
type Version struct {
	// Val is the value written.
	Val model.Value
	// TS is the logical commit timestamp; chains are strictly
	// increasing in TS.
	TS uint64
}

// Write pairs an object with the version to install, for the batch
// operations.
type Write struct {
	Obj     model.Obj
	Version Version
}

// numShards is the lock-stripe count. A power of two so the shard
// index is a mask; 64 keeps the whole stripe set addressable as one
// uint64 bitmask in LockObjs.
const numShards = 64

// shard is one lock stripe: the table of every object hashing onto
// it, and the mutex its writers take. Readers load table and never
// touch mu, so table sits alone on its cache line: a writer taking the
// mutex does not invalidate the line every reader of the shard loads.
type shard struct {
	// table is nil until the shard's first object is created.
	table atomic.Pointer[table]
	_     [56]byte

	mu sync.Mutex
	// objects is the number of objects in table.
	objects int
	// multi lists exactly the records holding more than one version —
	// the only ones GC can trim. A record joins when an install gives
	// it a second version and leaves when GC trims it back to one.
	multi []*object
	// nmulti is len(multi), loaded by GC without the mutex so that a
	// pass skips a shard with nothing to trim without locking it.
	nmulti atomic.Int64
	_      [16]byte // to 128 bytes: the next shard's table starts a line
}

// table is a shard's object index: open addressing with linear
// probing over a power-of-two array of entries, at most half full, so
// every probe sequence ends at an empty entry. Objects are never
// removed. A writer (under the shard mutex) fills an empty entry by
// writing its key and then publishing its object pointer, and replaces
// a table that would pass half full by a doubled copy, which carries
// each entry's cached version; a published entry's key and object
// never change, and a replaced table is never written again. So
// readers probe without a lock: an entry whose pointer they load is
// complete, and a table they loaded holds every object created before
// they loaded it.
type table struct {
	entries []entry
	shift   uint // 64 - log2(len(entries))
}

// entry is one object of a table: its key, its record, and a copy of
// its newest version, so that a read at a current snapshot is answered
// from the entry the probe already loaded. The copy is a seqlock keyed
// on ts: every install, under the shard mutex and after the record
// holds the version, stores ts ← 0, val, ts ← the version's TS. A
// reader loads ts, then val, then ts again, and keeps the pair only if
// ts was non-zero both times and did not change: an object's
// timestamps strictly increase, so an unchanged ts means no install
// wrote val in between. Otherwise it searches the record.
//
// The copy can lag the record only by versions whose install is in
// flight, and those are above every registered snapshot: a version at
// or below one was installed, and its entry updated, before that
// snapshot was published. A reader of a replaced table loaded it after
// its snapshot was taken, so the same holds for it. GC never drops an
// object's newest version, so the copy never names a dropped version.
// Under the shard mutex the copy is exact.
type entry struct {
	obj atomic.Pointer[object]
	key model.Obj
	ts  atomic.Uint64 // 0: no version is cached
	val atomic.Int64
}

// Store is a sharded multi-version key-value store. The zero value is
// ready to use.
type Store struct {
	shards [numShards]shard
}

// New returns an empty store. Equivalent to new(Store); provided for
// symmetry with the rest of the module.
func New() *Store { return &Store{} }

// hash is FNV-1a over x's bytes. Its low bits pick x's shard and a
// multiplicative spread of it x's entry in the shard's table.
func hash(x model.Obj) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(x); i++ {
		h ^= uint64(x[i])
		h *= 1099511628211
	}
	return h
}

// shardIndex returns x's stripe.
func shardIndex(x model.Obj) uint32 { return uint32(hash(x)) & (numShards - 1) }

// lookup returns x's entry, or nil when x has never been written. It
// takes no lock.
func (s *Store) lookup(x model.Obj) *entry {
	h := hash(x)
	return s.shards[h&(numShards-1)].table.Load().find(x, h)
}

// find returns x's record, or nil when x has never been written. It
// takes no lock.
func (s *Store) find(x model.Obj) *object {
	if e := s.lookup(x); e != nil {
		return e.obj.Load()
	}
	return nil
}

// slot is where x's probe sequence starts.
func (t *table) slot(h uint64) uint64 { return (h * 0x9e3779b97f4a7c15) >> t.shift }

// find returns the entry with key x and hash h, or nil.
func (t *table) find(x model.Obj, h uint64) *entry {
	if t == nil {
		return nil
	}
	mask := uint64(len(t.entries) - 1)
	for i := t.slot(h); ; i = (i + 1) & mask {
		e := &t.entries[i]
		if e.obj.Load() == nil {
			return nil
		}
		if e.key == x {
			return e
		}
	}
}

// insert adds x, which t does not hold, to an entry of t that is
// empty, and returns the entry. The key is written before the pointer
// is published.
func (t *table) insert(x model.Obj, h uint64, o *object) *entry {
	mask := uint64(len(t.entries) - 1)
	i := t.slot(h)
	for t.entries[i].obj.Load() != nil {
		i = (i + 1) & mask
	}
	e := &t.entries[i]
	e.key = x
	e.obj.Store(o)
	return e
}

// createLocked adds a record for x, which has none, doubling the table
// first if it would pass half full, and returns its entry. Callers
// hold sh.mu.
func (sh *shard) createLocked(x model.Obj, h uint64) *entry {
	t := sh.table.Load()
	if t == nil || 2*(sh.objects+1) > len(t.entries) {
		n := 8
		if t != nil {
			n = 2 * len(t.entries)
		}
		grown := &table{entries: make([]entry, n), shift: uint(64 - bits.TrailingZeros(uint(n)))}
		sh.eachLocked(func(e *entry) {
			g := grown.insert(e.key, hash(e.key), e.obj.Load())
			g.val.Store(e.val.Load())
			g.ts.Store(e.ts.Load())
		})
		sh.table.Store(grown)
		t = grown
	}
	e := t.insert(x, h, &object{})
	sh.objects++
	return e
}

// eachLocked calls fn for every entry of the shard. Callers hold
// sh.mu.
func (sh *shard) eachLocked(fn func(*entry)) {
	if t := sh.table.Load(); t != nil {
		for i := range t.entries {
			if e := &t.entries[i]; e.obj.Load() != nil {
				fn(e)
			}
		}
	}
}

// installLocked installs a version of x (hash h), creating x's record
// on its first version: into the record first, and then into the
// entry's cache. Callers hold sh.mu.
func (sh *shard) installLocked(x model.Obj, h uint64, v Version) error {
	e := sh.table.Load().find(x, h)
	if e == nil {
		e = sh.createLocked(x, h)
	} else if last := e.ts.Load(); last >= v.TS {
		return fmt.Errorf("mem: non-monotonic install on %q: ts %d ≤ latest %d", x, v.TS, last)
	}
	o := e.obj.Load()
	o.installLocked(v)
	e.cacheLocked(v)
	if o.hi.Load()-o.lo.Load() == 2 {
		sh.multi = append(sh.multi, o)
		sh.nmulti.Store(int64(len(sh.multi)))
	}
	return nil
}

// cacheLocked makes v, which the record already holds, the entry's
// cached version. Callers hold the shard mutex.
func (e *entry) cacheLocked(v Version) {
	e.ts.Store(0)
	e.val.Store(int64(v.Val))
	e.ts.Store(v.TS)
}

// readAt returns the latest version of the entry's object with TS ≤
// snap: the cached version when it qualifies and no install tore it,
// and otherwise the record's answer. It takes no lock.
func (e *entry) readAt(snap uint64) (Version, bool) {
	if ts := e.ts.Load(); ts != 0 && ts <= snap {
		val := e.val.Load()
		if e.ts.Load() == ts {
			return Version{Val: model.Value(val), TS: ts}, true
		}
	}
	return e.obj.Load().readAt(snap)
}

// gcLocked trims every multi-version record of the shard at the
// watermark and returns the number of versions dropped. Callers hold
// sh.mu.
func (sh *shard) gcLocked(watermark uint64) int {
	dropped, n := 0, 0
	for _, o := range sh.multi {
		dropped += o.gcLocked(watermark)
		if o.hi.Load()-o.lo.Load() > 1 {
			sh.multi[n] = o
			n++
		}
	}
	clear(sh.multi[n:])
	sh.multi = sh.multi[:n]
	sh.nmulti.Store(int64(n))
	return dropped
}

// Install appends a version to the object's record. The version's
// timestamp must strictly exceed the current latest; otherwise an
// error is returned and the store is unchanged.
func (s *Store) Install(x model.Obj, v Version) error {
	h := hash(x)
	sh := &s.shards[h&(numShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.installLocked(x, h, v)
}

// InstallBatch installs every write, taking each covered shard lock
// exactly once. Writes to the same shard are installed in slice
// order. On a non-monotonic write the batch stops and the error is
// returned; earlier writes of the batch stay installed (commit
// protocols order batches so this cannot happen mid-commit).
func (s *Store) InstallBatch(ws []Write) error {
	if len(ws) == 0 {
		return nil
	}
	var mask uint64
	for _, w := range ws {
		mask |= 1 << shardIndex(w.Obj)
	}
	s.lockShards(mask)
	defer s.unlockShards(mask)
	for _, w := range ws {
		h := hash(w.Obj)
		if err := s.shards[h&(numShards-1)].installLocked(w.Obj, h, w.Version); err != nil {
			return err
		}
	}
	return nil
}

// ReadAt returns the latest version of x with TS ≤ ts, if any. It
// takes no lock. A read below the watermark of an earlier or
// concurrent GC may miss: it never returns a dropped version.
func (s *Store) ReadAt(x model.Obj, ts uint64) (Version, bool) {
	if e := s.lookup(x); e != nil {
		return e.readAt(ts)
	}
	return Version{}, false
}

// ReadAtBatch performs ReadAt for every object at one timestamp. The
// i-th result corresponds to objs[i]; oks[i] reports whether a version
// existed. The reads are not a cross-shard atomic snapshot — like a
// sequence of ReadAt calls, and exactly that; the timestamp bound
// provides the snapshot semantics the engines need.
func (s *Store) ReadAtBatch(objs []model.Obj, ts uint64) ([]Version, []bool) {
	out := make([]Version, len(objs))
	oks := make([]bool, len(objs))
	for i, x := range objs {
		out[i], oks[i] = s.ReadAt(x, ts)
	}
	return out, oks
}

// Latest returns the most recent version of x, if any.
func (s *Store) Latest(x model.Obj) (Version, bool) {
	return s.ReadAt(x, ^uint64(0))
}

// LatestTS returns the timestamp of the most recent version of x, or
// zero when x has never been written.
func (s *Store) LatestTS(x model.Obj) uint64 {
	v, _ := s.Latest(x)
	return v.TS
}

// LatestTSBatch returns LatestTS for every object.
func (s *Store) LatestTSBatch(objs []model.Obj) []uint64 {
	out := make([]uint64, len(objs))
	for i, x := range objs {
		out[i] = s.LatestTS(x)
	}
	return out
}

// Objects returns the sorted list of objects with at least one
// version.
func (s *Store) Objects() []model.Obj {
	var out []model.Obj
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.eachLocked(func(e *entry) { out = append(out, e.key) })
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// VersionCount returns the number of stored versions of x.
func (s *Store) VersionCount(x model.Obj) int {
	o := s.find(x)
	if o == nil {
		return 0
	}
	lo := o.lo.Load() // lo first: both only grow, so hi ≥ lo
	return int(o.hi.Load() - lo)
}

// Chain returns a copy of x's full version chain, oldest first (empty
// when x has never been written). Diagnostic accessor used by
// durability tests to assert that an acknowledged write survived.
func (s *Store) Chain(x model.Obj) []Version {
	h := hash(x)
	sh := &s.shards[h&(numShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.table.Load().find(x, h); e != nil {
		return e.obj.Load().appendLocked(nil)
	}
	return nil
}

// SnapshotLatest returns the latest version of every object plus the
// maximum timestamp present, captured atomically across all shards:
// every shard lock is held at once, so no commit window (LockObjs) can
// be mid-install while the cut is taken. Commits are therefore
// all-or-nothing in the snapshot — the property the WAL driver's
// conditional replay relies on. The stop-the-world window lasts one
// map walk; callers (log compaction) are rare.
func (s *Store) SnapshotLatest() (map[model.Obj]Version, uint64) {
	const all = ^uint64(0)
	s.lockShards(all)
	defer s.unlockShards(all)
	out := make(map[model.Obj]Version)
	var maxTS uint64
	for i := range s.shards {
		s.shards[i].eachLocked(func(e *entry) {
			v := Version{Val: model.Value(e.val.Load()), TS: e.ts.Load()}
			out[e.key] = v
			maxTS = max(maxTS, v.TS)
		})
	}
	return out, maxTS
}

// Clone returns a deep copy of the store (used for replica state
// transfer). The copy is shard-by-shard: each shard is internally
// consistent, and callers quiesce writers (the PSI state transfer
// holds the donor replica's mutex) when they need a point-in-time
// snapshot. The copy's shards list their multi-version records as the
// source's do, and its entries cache the source's newest versions.
func (s *Store) Clone() *Store {
	out := &Store{}
	var vs []Version
	for i := range s.shards {
		src, dst := &s.shards[i], &out.shards[i]
		src.mu.Lock()
		src.eachLocked(func(e *entry) {
			ce := dst.createLocked(e.key, hash(e.key))
			c := ce.obj.Load()
			vs = e.obj.Load().appendLocked(vs[:0])
			for _, v := range vs {
				c.installLocked(v)
			}
			ce.cacheLocked(vs[len(vs)-1])
			if len(vs) > 1 {
				dst.multi = append(dst.multi, c)
			}
		})
		src.mu.Unlock()
		dst.nmulti.Store(int64(len(dst.multi)))
	}
	return out
}

// GC drops all versions of every object that are older than the
// latest version with TS ≤ watermark (which is kept, since snapshot
// reads at or above the watermark may still need it). It returns the
// number of versions discarded. Shards are collected one at a time,
// so GC never blocks writers of more than one stripe, and it never
// blocks readers.
//
// GC visits only each shard's list of multi-version records, and
// skips a shard whose list is empty without locking it: a pass costs
// O(multi-version records + versions dropped), so objects holding a
// single version cost nothing however many there are. Trimming only
// advances a record's low index (see object), so steady-state
// installs into it allocate nothing.
func (s *Store) GC(watermark uint64) int {
	dropped := 0
	for i := range s.shards {
		sh := &s.shards[i]
		if sh.nmulti.Load() == 0 {
			continue
		}
		sh.mu.Lock()
		dropped += sh.gcLocked(watermark)
		sh.mu.Unlock()
	}
	return dropped
}

// Locked is exclusive ownership of every shard covering a write set,
// acquired by LockObjs. It lets a commit protocol validate
// (LatestTS), then install, a whole write set under one atomic
// multi-shard critical section — the first-committer-wins window.
type Locked struct {
	s    *Store
	mask uint64 // bit i set ⇒ s.shards[i] is locked
}

// LockObjs locks every shard covering objs, in ascending shard
// order (the canonical order, so concurrent commits with overlapping
// write sets never deadlock), and returns the multi-shard lock.
// Callers must Unlock it exactly once.
func (s *Store) LockObjs(objs []model.Obj) *Locked {
	var mask uint64
	for _, x := range objs {
		mask |= 1 << shardIndex(x)
	}
	s.lockShards(mask)
	return &Locked{s: s, mask: mask}
}

// lockShards locks every shard in mask in ascending shard order, the
// canonical order every multi-shard acquisition uses.
func (s *Store) lockShards(mask uint64) {
	for mi := mask; mi != 0; mi &= mi - 1 {
		s.shards[bits.TrailingZeros64(mi)].mu.Lock()
	}
}

func (s *Store) unlockShards(mask uint64) {
	for mi := mask; mi != 0; mi &= mi - 1 {
		s.shards[bits.TrailingZeros64(mi)].mu.Unlock()
	}
}

// shard returns x's shard, which must be covered by the lock, and x's
// hash; op names the caller in the panic.
func (l *Locked) shard(x model.Obj, op string) (*shard, uint64) {
	h := hash(x)
	if l.mask&(1<<(h&(numShards-1))) == 0 {
		panic(fmt.Sprintf("mem: %s(%q) outside the locked write set", op, x))
	}
	return &l.s.shards[h&(numShards-1)], h
}

// LatestTS returns the newest timestamp of x. x must be covered by
// the locked write set. The held lock makes x's entry exact, so the
// answer never loads x's record.
func (l *Locked) LatestTS(x model.Obj) uint64 {
	sh, h := l.shard(x, "LatestTS")
	if e := sh.table.Load().find(x, h); e != nil {
		return e.ts.Load()
	}
	return 0
}

// ReadAt returns the latest version of x with TS ≤ ts. x must be
// covered by the locked write set.
func (l *Locked) ReadAt(x model.Obj, ts uint64) (Version, bool) {
	sh, h := l.shard(x, "ReadAt")
	if e := sh.table.Load().find(x, h); e != nil {
		return e.readAt(ts)
	}
	return Version{}, false
}

// Install appends a version to x's record under the held lock. x must
// be covered by the locked write set.
func (l *Locked) Install(x model.Obj, v Version) error {
	sh, h := l.shard(x, "Install")
	return sh.installLocked(x, h, v)
}

// Unlock releases every held shard. The Locked must not be used
// afterwards.
func (l *Locked) Unlock() {
	l.s.unlockShards(l.mask)
	l.mask = 0
}

// object is one object's versions: a ring of slots indexed by version
// number, holding versions lo..hi-1 (hi counts every version ever
// installed; lo is the first one GC kept). Writers hold the shard
// mutex; readers take no lock and write nothing. The first ring is the
// two slots inline in the record, so an object of one or two live
// versions allocates nothing beyond its record, and a reader of it
// touches one cache line: the record is 56 bytes, allocated from the
// 64-byte size class.
//
// Writers keep three rules, and they are what a lock-free reader
// relies on:
//
//   - Install writes version hi into slot hi&mask and only then
//     publishes hi+1. The ring holds at most its length of live
//     versions, so that slot held a version below lo.
//   - GC only advances lo. It never moves a survivor.
//   - A ring is replaced (doubled when full, shrunk when it is longer
//     than minRing and more than four times the live versions) by
//     copying the live versions into a fresh ring and publishing its
//     pointer, after GC's lo store. A replaced ring is never written
//     again.
//
// A reader loads lo, then hi, then the ring, searches versions lo to
// hi-1 of that ring, and re-loads lo: if lo moved, it starts over.
// Otherwise lo held still for the whole read, and then the read was
// exact. The ring is current at or after the hi load, so it holds
// every version below hi that was not below lo when the ring was
// filled — none of lo..hi-1 were. And an install overwrites only a
// slot whose version is below lo, so no slot of lo..hi-1 changed under
// the reader. A registered snapshot is at or above every GC
// watermark, and GC keeps the latest version at or below its
// watermark, so the answer of a registered read is never below lo: it
// always succeeds. A read below the watermark misses instead of
// returning a dropped version.
type object struct {
	lo, hi atomic.Uint64
	ring   atomic.Pointer[ring] // nil: the ring is inline
	inline [2]slot
}

// ring is the header of a power-of-two array of version slots, and
// the array follows it in the same allocation: newRing makes n+1 slots
// and the header takes the first. A reader reaches the length and the
// slots from the one pointer it loads, and a resize allocates once.
type ring struct {
	n int   // the slots after the header
	_ int64 // the header is one slot wide
}

// The header must be exactly one slot for the slots behind it to line up.
var _ [unsafe.Sizeof(ring{}) - unsafe.Sizeof(slot{})]struct{}
var _ [unsafe.Sizeof(slot{}) - unsafe.Sizeof(ring{})]struct{}

// newRing returns a ring of n zero slots.
func newRing(n int) *ring {
	buf := make([]slot, n+1)
	r := (*ring)(unsafe.Pointer(&buf[0]))
	r.n = n
	return r
}

// slots returns the ring's slot array.
func (r *ring) slots() []slot {
	return unsafe.Slice((*slot)(unsafe.Add(unsafe.Pointer(r), unsafe.Sizeof(ring{}))), r.n)
}

// slot is one version. Both fields are atomics: a reader whose lo
// moved may have raced a rewrite, and discards what it read.
type slot struct {
	ts  atomic.Uint64
	val atomic.Int64
}

// slots returns the current ring.
func (o *object) slots() []slot {
	if r := o.ring.Load(); r != nil {
		return r.slots()
	}
	return o.inline[:]
}

// readAt returns the latest version with TS ≤ snap. It takes no lock
// (the type comment gives the argument): it searches the versions
// from lo to hi-1 of the ring it loaded, and starts over if GC moved
// lo meanwhile.
func (o *object) readAt(snap uint64) (Version, bool) {
	for {
		lo := o.lo.Load()
		hi := o.hi.Load()
		slots := o.slots()
		mask := uint64(len(slots) - 1)
		k, ok := search(slots, mask, lo, hi, snap)
		var v Version
		if ok {
			sl := &slots[k&mask]
			v = Version{Val: model.Value(sl.val.Load()), TS: sl.ts.Load()}
		}
		if o.lo.Load() == lo {
			return v, ok
		}
	}
}

// search returns the index of the last version in [lo, hi) with TS ≤
// snap. It tries the newest version first — a current snapshot's
// answer — and binary-searches the rest, so a snapshot pinned far
// back, or a long chain, stays logarithmic.
func search(slots []slot, mask, lo, hi, snap uint64) (uint64, bool) {
	if hi == lo {
		return 0, false
	}
	if slots[(hi-1)&mask].ts.Load() <= snap {
		return hi - 1, true
	}
	// The answer, if any, is in [lo, hi-1): keep it within [b, b+n).
	b, n := lo, hi-1-lo
	if n == 0 {
		return 0, false
	}
	for n > 1 {
		half := n / 2
		if slots[(b+half)&mask].ts.Load() <= snap {
			b += half
		}
		n -= half
	}
	return b, slots[b&mask].ts.Load() <= snap
}

// appendLocked appends the live versions, oldest first. Callers hold
// the shard mutex.
func (o *object) appendLocked(dst []Version) []Version {
	lo, hi := o.lo.Load(), o.hi.Load()
	slots := o.slots()
	mask := uint64(len(slots) - 1)
	for i := lo; i < hi; i++ {
		sl := &slots[i&mask]
		dst = append(dst, Version{Val: model.Value(sl.val.Load()), TS: sl.ts.Load()})
	}
	return dst
}

// installLocked appends v, whose TS the caller has checked is above
// the latest, doubling the ring first when it is full. Callers hold
// the shard mutex.
func (o *object) installLocked(v Version) {
	lo, hi := o.lo.Load(), o.hi.Load()
	slots := o.slots()
	if hi-lo == uint64(len(slots)) {
		slots = o.resize(lo, hi, 2*len(slots))
	}
	sl := &slots[hi&uint64(len(slots)-1)]
	sl.val.Store(int64(v.Val))
	sl.ts.Store(v.TS)
	o.hi.Store(hi + 1)
}

// minRing is the shortest ring GC shrinks to, and a ring no longer than
// it is never shrunk. A record that holds a few live versions between
// passes keeps its ring, instead of GC shrinking it and the next
// installs growing it back, one allocation per doubling, on every
// pass. After a pass a ring holds at most max(minRing, 4·live) slots.
const minRing = 8

// gcLocked drops every version older than the latest one with TS ≤
// watermark and returns how many it dropped. It advances lo, and then
// shrinks a ring longer than minRing and more than four times the live
// versions, to the smallest power of two holding them, at least
// minRing. Callers hold the shard mutex.
func (o *object) gcLocked(watermark uint64) int {
	lo, hi := o.lo.Load(), o.hi.Load()
	slots := o.slots()
	// keep is the version a read at the watermark returns; everything
	// before it is unreachable for ts ≥ watermark.
	keep, ok := search(slots, uint64(len(slots)-1), lo, hi, watermark)
	if !ok || keep == lo {
		return 0
	}
	o.lo.Store(keep)
	if live := hi - keep; len(slots) > minRing && uint64(len(slots)) > 4*live {
		o.resize(keep, hi, max(minRing, 1<<bits.Len64(live-1)))
	}
	return int(keep - lo)
}

// resize copies versions lo..hi-1 into a fresh ring of n slots (a
// power of two, at least hi-lo) and publishes it. The copy is plain:
// no reader sees the ring before it is published, and the old ring's
// slots below hi are not written meanwhile (writers hold the mutex).
func (o *object) resize(lo, hi uint64, n int) []slot {
	old := o.slots()
	r := newRing(n)
	slots := r.slots()
	for i := lo; i < hi; {
		// Copy the longest run that wraps in neither ring.
		src, dst := i&uint64(len(old)-1), i&uint64(n-1)
		k := min(hi-i, uint64(len(old))-src, uint64(n)-dst)
		copy(slots[dst:dst+k], old[src:src+k])
		i += k
	}
	o.ring.Store(r)
	return slots
}
