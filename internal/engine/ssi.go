package engine

import (
	"sync"
	"sync/atomic"

	"sian/internal/model"
)

// ssiTracker turns the SI commit path of si.go into Serializable
// Snapshot Isolation (Cahill, Röhm, Fekete, SIGMOD 2008): run-time
// detection of the dangerous structure of Fekete et al. — two
// consecutive anti-dependency edges T1 —rw→ T2 —rw→ T3 between
// concurrent transactions. This is precisely the structure the paper's
// Theorem 19 shows to be the signature of SI executions that are not
// serializable; SSI is thus the run-time counterpart of the §6.1
// static robustness analysis, and every history an SSI engine records
// certifies serializable.
//
// The tracker holds only that paper-specific part. Snapshots,
// first-committer-wins, timestamps, installation, logging and
// publication are siProtocol's, which consults the tracker at read,
// inside the commit window (vet, then stamp) and at finish (end).
//
// Detection uses the classical conservative marking: each transaction
// carries an in flag (some concurrent transaction has an
// anti-dependency INTO it) and an out flag (it has an anti-dependency
// OUT to a concurrent transaction). A transaction that would commit
// with both flags — a potential pivot — is vetoed, and a marking that
// would turn a transaction already past its veto into a pivot aborts
// the marker instead. False positives are possible; serializability
// violations are not.
//
// Commits run in parallel, one lock window per write set, so the
// marking rests on one invariant: a reader registers in x's sireads
// and scans x's writers in one critical section of mu (read), and a
// writer scans x's sireads and registers in x's writers in one critical
// section (vet). Of any reader/writer pair on x, whichever arrives
// second therefore sees the other, whether or not the writer's version
// is installed or published yet. A writer between vet and stamp
// (commitTS == 0, not ended) counts as concurrent with everyone: its
// timestamp will exceed every snapshot handed out so far. Lock order
// is shard locks → mu; a read takes mu only after ReadAt has released
// its shard.
type ssiTracker struct {
	mu   sync.Mutex
	objs map[model.Obj]*ssiObject
	// ends counts finished transactions; a prune is due every
	// pruneEvery of them. Between prunes the per-object lists — which
	// every read and vet of a hot object scans — grow by that many.
	ends int
}

const pruneEvery = 64

// ssiObject is the tracker's state for one object. sireads are the
// transactions that read it; the records persist after commit so that
// later writers can discover anti-dependencies from committed readers.
// writers are the transactions that passed vet with it in their write
// set, so that readers recognise concurrent writers without probing
// the store, whose version chains Compact truncates.
type ssiObject struct{ sireads, writers []*ssiRecord }

// object returns x's state, creating it on first use.
func (k *ssiTracker) object(x model.Obj) *ssiObject {
	o := k.objs[x]
	if o == nil {
		o = new(ssiObject)
		k.objs[x] = o
	}
	return o
}

// ssiRecord carries the conflict flags of a (possibly committed)
// transaction. snap is immutable; commitTS is written once, by stamp,
// without the tracker mutex (a reader that misses the store takes the
// writer for in flight, which it then is: a snapshot at or above the
// timestamp exists only after its publication, which follows the
// store); every other field is guarded by the mutex.
type ssiRecord struct {
	snap     uint64
	commitTS atomic.Uint64 // 0 until stamped; stays 0 for read-only and aborted
	// endTS is the published commit timestamp when the transaction
	// finished. Needed so that committed *read-only* transactions
	// remain visible as concurrent readers — dropping them is exactly
	// what admits the read-only anomaly of Fekete, O'Neil & O'Neil.
	endTS   uint64
	ended   bool
	aborted bool
	in, out bool
}

func newSSITracker() *ssiTracker { return &ssiTracker{objs: make(map[model.Obj]*ssiObject)} }

// read records t's SIREAD on x and marks the anti-dependency
// t —rw→ w for every writer w of x that is in flight or committed
// above t's snapshot. It reports false when a mark would make w — past
// its veto, so no longer abortable — a pivot: the reader aborts
// instead. The reader itself cannot become a pivot here: in flags are
// set only from a transaction's own vet on.
func (k *ssiTracker) read(t *ssiRecord, x model.Obj) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	// A repeated read re-registers unless it is still the latest; marks
	// are idempotent, so duplicates only lengthen the scans until pruned.
	o := k.object(x)
	if rs := o.sireads; len(rs) == 0 || rs[len(rs)-1] != t {
		o.sireads = append(rs, t)
	}
	// Writers of x vet and stamp under x's shard lock, so o.writers is
	// in timestamp order: scan from the newest and stop at the first
	// whose version t's snapshot includes.
	ws := o.writers
	for i := len(ws) - 1; i >= 0; i-- {
		if ts := ws[i].commitTS.Load(); ts != 0 && ts <= t.snap {
			break
		}
		if ws[i].out {
			return false
		}
		ws[i].in = true
		t.out = true
	}
	return true
}

// vet is the veto, called inside t's commit window once
// first-committer-wins has passed and before a timestamp is allocated.
// Every concurrent SIREAD holder r of the write set yields r —rw→ t.
// It reports false, having changed nothing, if t would commit as a
// pivot or would turn a reader that is itself past its veto into one.
// Otherwise it applies the marks and registers t as a writer of each
// object: t's point of no return.
func (k *ssiTracker) vet(t *ssiRecord, order []model.Obj) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	readers := make([]*ssiRecord, 0, 8) // on the stack for the usual handful
	for _, x := range order {
		for _, r := range k.object(x).sireads {
			if r == t || !r.concurrentWith(t.snap) {
				continue
			}
			if r.in {
				return false
			}
			readers = append(readers, r)
		}
	}
	if len(readers) > 0 && t.out {
		return false
	}
	for _, r := range readers {
		r.out = true
	}
	for _, x := range order {
		o := k.objs[x]
		o.writers = append(o.writers, t)
	}
	t.in = len(readers) > 0
	return true
}

// stamp records the commit timestamp allocated to t after vet.
func (t *ssiRecord) stamp(ts uint64) { t.commitTS.Store(ts) }

// end finishes t's record, committed or aborted, at the published
// commit timestamp now, and reports whether a prune is due.
func (k *ssiTracker) end(t *ssiRecord, now uint64, committed bool) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	t.ended, t.endTS, t.aborted = true, now, !committed
	k.ends++
	return k.ends%pruneEvery == 0
}

// prune discards the records that can no longer be concurrent with any
// live or future transaction, given the snapshot registry's watermark
// minSnap (a lower bound on every snapshot still or yet to be handed
// out): committed writers with commitTS ≤ minSnap, committed read-only
// records with endTS < minSnap, and aborted records. Without pruning
// the tables grow with the total transaction count and every scan
// becomes linear in history size.
func (k *ssiTracker) prune(minSnap uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	live := func(recs []*ssiRecord) []*ssiRecord {
		kept := recs[:0]
		for _, r := range recs {
			if r.concurrentWith(minSnap) {
				kept = append(kept, r)
			}
		}
		return kept
	}
	for x, o := range k.objs {
		o.sireads, o.writers = live(o.sireads), live(o.writers)
		if len(o.sireads)+len(o.writers) == 0 {
			delete(k.objs, x)
		}
	}
}

// concurrentWith reports whether r's lifetime overlaps that of a
// transaction reading at snap: r was active at some point at or after
// that snapshot. Aborted transactions carry no edges. The read-only
// boundary case (r finished at the same commit counter the other
// started at) is treated as concurrent, which is conservative: SSI may
// abort more, never less. Callers hold the tracker mutex.
func (r *ssiRecord) concurrentWith(snap uint64) bool {
	switch ts := r.commitTS.Load(); {
	case r.aborted:
		return false
	case !r.ended:
		return true
	case ts > 0:
		return ts > snap
	default: // committed read-only
		return r.endTS >= snap
	}
}
