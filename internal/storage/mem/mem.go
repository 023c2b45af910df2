// Package mem is the in-memory storage driver: the multi-version
// key-value substrate used by the transactional engines in
// internal/engine, reached through the internal/storage driver
// interface (storage.NewMem) or embedded directly by drivers that add
// durability on top (internal/storage/wal).
//
// A Store keeps, per object, a chain of versions ordered by a caller-
// supplied logical timestamp. Snapshot reads (ReadAt) return the
// latest version at or below a timestamp — exactly the primitive the
// SI concurrency-control algorithm of §1 of the paper needs ("a
// transaction reads values of shared objects from a snapshot taken at
// its start"), and the one each parallel-SI replica needs for its
// local snapshots. Garbage collection (GC) trims chains below a
// caller-chosen watermark; each shard lists its multi-version chains,
// so a pass visits only chains that hold something to drop and trims
// them in place.
//
// The store is lock-striped: objects hash onto a fixed number of
// shards, each with its own mutex, chain map and garbage collection,
// so reads and installs on disjoint objects never contend. Commit
// protocols that must validate and install a whole write set
// atomically take the write set's shard locks once, in canonical
// shard order, through LockObjs; the batch operations (InstallBatch,
// ReadAtBatch, LatestTSBatch) likewise visit each shard lock once
// per call instead of once per object.
//
// The store is safe for concurrent use; the zero value is ready.
package mem

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

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

// shard is one lock stripe: a mutex and the chains of every object
// hashing onto it.
type shard struct {
	mu     sync.RWMutex
	chains map[model.Obj][]Version
	// multi lists exactly the objects whose chain holds more than one
	// version — the only chains GC can trim. An object joins when an
	// install gives its chain a second version and leaves when GC trims
	// the chain back to one.
	multi []model.Obj
}

// Store is a sharded multi-version key-value store. The zero value is
// ready to use.
type Store struct {
	shards [numShards]shard
}

// New returns an empty store. Equivalent to new(Store); provided for
// symmetry with the rest of the module.
func New() *Store { return &Store{} }

// shardIndex hashes x onto a stripe (FNV-1a).
func shardIndex(x model.Obj) uint32 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(x); i++ {
		h ^= uint64(x[i])
		h *= 1099511628211
	}
	return uint32(h) & (numShards - 1)
}

func (s *Store) shardOf(x model.Obj) *shard { return &s.shards[shardIndex(x)] }

// installLocked appends a version to the object's chain. Callers hold
// sh.mu.
func (sh *shard) installLocked(x model.Obj, v Version) error {
	if sh.chains == nil {
		sh.chains = make(map[model.Obj][]Version)
	}
	chain := sh.chains[x]
	if len(chain) > 0 && chain[len(chain)-1].TS >= v.TS {
		return fmt.Errorf("mem: non-monotonic install on %q: ts %d ≤ latest %d",
			x, v.TS, chain[len(chain)-1].TS)
	}
	chain = append(chain, v)
	sh.chains[x] = chain
	if len(chain) == 2 {
		sh.multi = append(sh.multi, x)
	}
	return nil
}

// readAtLocked returns the latest version of x with TS ≤ ts, if any.
// Callers hold sh.mu (read or write).
func (sh *shard) readAtLocked(x model.Obj, ts uint64) (Version, bool) {
	chain := sh.chains[x]
	// Chains are sorted by TS; binary-search the first version > ts.
	i := sort.Search(len(chain), func(i int) bool { return chain[i].TS > ts })
	if i == 0 {
		return Version{}, false
	}
	return chain[i-1], true
}

// latestTSLocked returns the newest timestamp of x, or zero. Callers
// hold sh.mu.
func (sh *shard) latestTSLocked(x model.Obj) uint64 {
	chain := sh.chains[x]
	if len(chain) == 0 {
		return 0
	}
	return chain[len(chain)-1].TS
}

// Install appends a version to the object's chain. The version's
// timestamp must strictly exceed the current latest; otherwise an
// error is returned and the store is unchanged.
func (s *Store) Install(x model.Obj, v Version) error {
	sh := s.shardOf(x)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.installLocked(x, v)
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
	l := s.lockMask(writeMask(ws))
	defer l.Unlock()
	for _, w := range ws {
		if err := s.shardOf(w.Obj).installLocked(w.Obj, w.Version); err != nil {
			return err
		}
	}
	return nil
}

// ReadAt returns the latest version of x with TS ≤ ts, if any.
func (s *Store) ReadAt(x model.Obj, ts uint64) (Version, bool) {
	sh := s.shardOf(x)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.readAtLocked(x, ts)
}

// ReadAtBatch performs ReadAt for every object at one timestamp,
// taking each covered shard read-lock exactly once. The i-th result
// corresponds to objs[i]; oks[i] reports whether a version existed.
// The reads are not a cross-shard atomic snapshot — like a sequence
// of ReadAt calls, each shard is consistent internally and the
// timestamp bound provides the snapshot semantics the engines need.
func (s *Store) ReadAtBatch(objs []model.Obj, ts uint64) ([]Version, []bool) {
	out := make([]Version, len(objs))
	oks := make([]bool, len(objs))
	if len(objs) == 0 {
		return out, oks
	}
	var mask uint64
	for _, x := range objs {
		mask |= 1 << shardIndex(x)
	}
	for mi := mask; mi != 0; mi &= mi - 1 {
		sh := &s.shards[bits.TrailingZeros64(mi)]
		sh.mu.RLock()
	}
	for i, x := range objs {
		out[i], oks[i] = s.shardOf(x).readAtLocked(x, ts)
	}
	for mi := mask; mi != 0; mi &= mi - 1 {
		sh := &s.shards[bits.TrailingZeros64(mi)]
		sh.mu.RUnlock()
	}
	return out, oks
}

// Latest returns the most recent version of x, if any.
func (s *Store) Latest(x model.Obj) (Version, bool) {
	sh := s.shardOf(x)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	chain := sh.chains[x]
	if len(chain) == 0 {
		return Version{}, false
	}
	return chain[len(chain)-1], true
}

// LatestTS returns the timestamp of the most recent version of x, or
// zero when x has never been written.
func (s *Store) LatestTS(x model.Obj) uint64 {
	sh := s.shardOf(x)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.latestTSLocked(x)
}

// LatestTSBatch returns LatestTS for every object, taking each
// covered shard read-lock exactly once.
func (s *Store) LatestTSBatch(objs []model.Obj) []uint64 {
	out := make([]uint64, len(objs))
	if len(objs) == 0 {
		return out
	}
	var mask uint64
	for _, x := range objs {
		mask |= 1 << shardIndex(x)
	}
	for mi := mask; mi != 0; mi &= mi - 1 {
		s.shards[bits.TrailingZeros64(mi)].mu.RLock()
	}
	for i, x := range objs {
		out[i] = s.shardOf(x).latestTSLocked(x)
	}
	for mi := mask; mi != 0; mi &= mi - 1 {
		s.shards[bits.TrailingZeros64(mi)].mu.RUnlock()
	}
	return out
}

// Objects returns the sorted list of objects with at least one
// version.
func (s *Store) Objects() []model.Obj {
	var out []model.Obj
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for x := range sh.chains {
			out = append(out, x)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// VersionCount returns the number of stored versions of x.
func (s *Store) VersionCount(x model.Obj) int {
	sh := s.shardOf(x)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.chains[x])
}

// Chain returns a copy of x's full version chain, oldest first (empty
// when x has never been written). Diagnostic accessor used by
// durability tests to assert that an acknowledged write survived.
func (s *Store) Chain(x model.Obj) []Version {
	sh := s.shardOf(x)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return append([]Version(nil), sh.chains[x]...)
}

// SnapshotLatest returns the latest version of every object plus the
// maximum timestamp present, captured atomically across all shards:
// every shard lock is held at once, so no commit window (LockObjs) can
// be mid-install while the cut is taken. Commits are therefore
// all-or-nothing in the snapshot — the property the WAL driver's
// conditional replay relies on. The stop-the-world window lasts one
// map walk; callers (log compaction) are rare.
func (s *Store) SnapshotLatest() (map[model.Obj]Version, uint64) {
	l := s.lockMask(^uint64(0))
	defer l.Unlock()
	out := make(map[model.Obj]Version)
	var maxTS uint64
	for i := range s.shards {
		for x, chain := range s.shards[i].chains {
			if len(chain) == 0 {
				continue
			}
			v := chain[len(chain)-1]
			out[x] = v
			if v.TS > maxTS {
				maxTS = v.TS
			}
		}
	}
	return out, maxTS
}

// Clone returns a deep copy of the store (used for replica state
// transfer). The copy is shard-by-shard: each shard is internally
// consistent, and callers quiesce writers (the PSI state transfer
// holds the donor replica's mutex) when they need a point-in-time
// snapshot.
func (s *Store) Clone() *Store {
	out := &Store{}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		if len(sh.chains) > 0 {
			dst := make(map[model.Obj][]Version, len(sh.chains))
			for x, chain := range sh.chains {
				cp := make([]Version, len(chain))
				copy(cp, chain)
				dst[x] = cp
			}
			out.shards[i].chains = dst
			out.shards[i].multi = append([]model.Obj(nil), sh.multi...)
		}
		sh.mu.RUnlock()
	}
	return out
}

// GC drops all versions of every object that are older than the
// latest version with TS ≤ watermark (which is kept, since snapshot
// reads at or above the watermark may still need it). It returns the
// number of versions discarded. Shards are collected one at a time,
// so GC never blocks readers or writers of more than one stripe.
//
// GC walks only each shard's list of multi-version chains, never the
// whole chain map: a pass costs O(multi-version chains + versions
// dropped), so objects holding a single version cost nothing however
// many there are. A trimmed chain keeps its array (see trimChain), so
// steady-state installs into it allocate nothing.
func (s *Store) GC(watermark uint64) int {
	dropped := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n := 0
		for _, x := range sh.multi {
			chain := sh.chains[x]
			j := sort.Search(len(chain), func(j int) bool { return chain[j].TS > watermark })
			// chain[j-1] is the version a read at the watermark returns;
			// everything before it is unreachable for ts ≥ watermark.
			if j > 1 {
				chain = trimChain(chain, j-1)
				sh.chains[x] = chain
				dropped += j - 1
			}
			if len(chain) > 1 {
				sh.multi[n] = x
				n++
			}
		}
		sh.multi = sh.multi[:n]
		sh.mu.Unlock()
	}
	return dropped
}

// trimChain drops the chain's first k versions. The survivors move
// down within the chain's own array; a fresh, right-sized array is
// taken only when the old one is more than 4x the survivors, so a
// chain that grew long (behind a pinned snapshot, say) does not keep
// its peak size.
func trimChain(chain []Version, k int) []Version {
	live := chain[k:]
	if cap(chain) > 4*len(live) {
		return append([]Version(nil), live...)
	}
	n := copy(chain, live)
	clear(chain[n:])
	return chain[:n]
}

// Locked is exclusive ownership of every shard covering a write set,
// acquired by LockObjs. It lets a commit protocol validate
// (LatestTS), then install, a whole write set under one atomic
// multi-shard critical section — the first-committer-wins window.
type Locked struct {
	s    *Store
	mask uint64 // bit i set ⇒ s.shards[i] is write-locked
}

// LockObjs write-locks every shard covering objs, in ascending shard
// order (the canonical order, so concurrent commits with overlapping
// write sets never deadlock), and returns the multi-shard lock.
// Callers must Unlock it exactly once.
func (s *Store) LockObjs(objs []model.Obj) *Locked {
	var mask uint64
	for _, x := range objs {
		mask |= 1 << shardIndex(x)
	}
	return s.lockMask(mask)
}

func (s *Store) lockMask(mask uint64) *Locked {
	for mi := mask; mi != 0; mi &= mi - 1 {
		s.shards[bits.TrailingZeros64(mi)].mu.Lock()
	}
	return &Locked{s: s, mask: mask}
}

func writeMask(ws []Write) uint64 {
	var mask uint64
	for _, w := range ws {
		mask |= 1 << shardIndex(w.Obj)
	}
	return mask
}

// covers reports whether x's shard is held by the lock.
func (l *Locked) covers(x model.Obj) bool {
	return l.mask&(1<<shardIndex(x)) != 0
}

// LatestTS returns the newest timestamp of x. x must be covered by
// the locked write set.
func (l *Locked) LatestTS(x model.Obj) uint64 {
	if !l.covers(x) {
		panic(fmt.Sprintf("mem: LatestTS(%q) outside the locked write set", x))
	}
	return l.s.shardOf(x).latestTSLocked(x)
}

// ReadAt returns the latest version of x with TS ≤ ts. x must be
// covered by the locked write set.
func (l *Locked) ReadAt(x model.Obj, ts uint64) (Version, bool) {
	if !l.covers(x) {
		panic(fmt.Sprintf("mem: ReadAt(%q) outside the locked write set", x))
	}
	return l.s.shardOf(x).readAtLocked(x, ts)
}

// Install appends a version to x's chain under the held lock. x must
// be covered by the locked write set.
func (l *Locked) Install(x model.Obj, v Version) error {
	if !l.covers(x) {
		panic(fmt.Sprintf("mem: Install(%q) outside the locked write set", x))
	}
	return l.s.shardOf(x).installLocked(x, v)
}

// Unlock releases every held shard. The Locked must not be used
// afterwards.
func (l *Locked) Unlock() {
	for mi := l.mask; mi != 0; mi &= mi - 1 {
		l.s.shards[bits.TrailingZeros64(mi)].mu.Unlock()
	}
	l.mask = 0
}
