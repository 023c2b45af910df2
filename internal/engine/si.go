package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"sian/internal/model"
	"sian/internal/obs"
	"sian/internal/obs/txtrace"
	"sian/internal/storage"
)

// siProtocol is the idealised SI concurrency control of §1 of the
// paper: a transaction reads from the snapshot of committed state
// taken at its start, and commits only if no other committed
// transaction has written any object it also wrote since that
// snapshot (first-committer-wins).
//
// The implementation is built for multicore parallelism — no global
// mutex on the uncontended transaction path:
//
//   - begin is lock-free: one atomic load of the published commit
//     timestamp plus a slot registration in snapRegistry (see
//     snapreg.go for the begin/GC handshake);
//   - reads take only the lock of the one store shard holding the
//     object, a spinning mutex held for one chain lookup;
//   - commit locks only the shards covering its write set, in
//     canonical shard order (Driver.LockObjs), validates
//     first-committer-wins per shard and installs under that one
//     multi-shard critical section, so transactions with disjoint
//     write sets commit fully in parallel;
//   - publication is one CAS when the predecessor has published, a
//     bounded spin-then-yield retry of that CAS when it is about to,
//     and a parked wait behind it otherwise (publish, the
//     ordered-publish gate);
//   - read-only transactions touch no lock at all: their commit is a
//     single atomic slot release.
//
// Timestamps are split in two atomics. nextTS allocates commit
// timestamps; commitTS publishes them, strictly in order, once the
// writes are installed. A snapshot is always a published timestamp,
// so every version at or below it is fully installed — the short
// install window between allocation and publication is invisible to
// snapshots. First-committer-wins stays sound because validation and
// installation happen while holding every write-set shard: two
// commits writing a common object serialize on its shard, and the
// second sees the first's installed version (necessarily newer than
// its snapshot — a published snapshot can never be at or above an
// unpublished timestamp) and aborts. See DESIGN.md §10 for the full
// argument.
//
// The protocol runs over any storage.Driver. With a durable driver
// (storage/wal) the commit window also persists the transaction:
// LogCommit stages the commit record — full op list included, so
// recovery replay re-certifies the history — inside the window (per-
// object log order therefore matches timestamp order), Unlock returns
// only after the record is fsynced (group fsync permitted), and the
// timestamp is published after Unlock. An acknowledged commit is thus
// always durable, and — because publication is strictly in timestamp
// order — so are all its predecessors; see DESIGN.md §12.
//
// The commit path also compacts on its own (compactIfDue): once enough
// installs have superseded a version since the last pass, the commit
// that crosses the threshold runs one gc pass, the same pass
// DB.Compact forces, so version chains stay a few versions long.
type siProtocol struct {
	store storage.Driver
	// ssi, nil under SI, makes this SSI: reads and commits report to the
	// dangerous-structure tracker of ssi.go, which may veto them.
	ssi *ssiTracker
	// psi, nil under SI, makes this a PSI site (psi.go): commits pass
	// Walter's write-conflict veto and are logged for the other sites.
	psi *psiSite

	// nextTS is the commit-timestamp allocation sequence.
	nextTS atomic.Uint64
	// commitTS is the published watermark: every version with a
	// timestamp at or below it is fully installed. Begins snapshot
	// this value.
	commitTS atomic.Uint64
	// snaps registers live snapshots for the GC watermark.
	snaps snapRegistry

	// The ordered-publish gate (publish): commits whose predecessor
	// has not published within the spin budget park on pubCond;
	// pubWaiters counts them so that an uncontended publish never
	// touches pubMu, and parks (engine_publish_parks_total) counts
	// every commit that parked.
	pubWaiters atomic.Int32
	pubMu      sync.Mutex
	pubCond    sync.Cond
	parks      *obs.Counter

	// Automatic compaction (compactIfDue). superseded counts the
	// installs that replaced a version since the last gc pass; retained
	// estimates the superseded versions earlier passes had to keep
	// because snapshots pinned them; compacting is held by the one
	// automatic pass in flight.
	superseded atomic.Int64
	retained   atomic.Int64
	compacting atomic.Bool
}

// minPass is the fewest superseded versions that make a commit run an
// automatic compaction pass. The threshold is max(minPass, retained):
// versions that pinned snapshots kept through one pass raise it, so a
// long-lived snapshot doubles the interval between passes instead of
// having every pass re-scan the chains it pins.
const minPass = 4096

func newSIProtocol(cfg Config, parks *obs.Counter) *siProtocol {
	st := cfg.Driver
	if st == nil {
		st = storage.NewMem()
	}
	p := &siProtocol{store: st, parks: parks}
	p.pubCond.L = &p.pubMu
	// A driver restored from a log already holds versions; seed the
	// allocator above them so fresh commits stay monotonic and fresh
	// snapshots see the recovered state.
	if r, ok := st.(storage.Recovered); ok {
		ts := r.RecoveredMaxTS()
		p.nextTS.Store(ts)
		p.commitTS.Store(ts)
	}
	return p
}

func (p *siProtocol) ensureSite(int) {}

func (p *siProtocol) close() error { return p.store.Close() }

// begin re-initialises prev when it is a finished siTx (a session
// stays on one protocol, or PSI site), and allocates an siTx otherwise.
// Under SSI the record is always fresh: the tracker keeps it after the
// transaction ends.
func (p *siProtocol) begin(_ int, prev txProtocol) (txProtocol, error) {
	t, ok := prev.(*siTx)
	if !ok || !t.done {
		t = new(siTx)
	}
	*t = siTx{p: p, ticket: p.snaps.acquire(p.commitTS.Load)}
	if p.ssi != nil {
		t.rec = &ssiRecord{snap: t.ticket.snap}
	}
	return t, nil
}

// gc truncates version chains below the oldest live snapshot and
// returns the number of versions discarded. It is the one compaction
// pass, explicit (DB.Compact) or automatic (compactIfDue), and keeps
// the trigger's books: the superseded versions counted since the last
// pass, less those dropped, are what the pinned snapshots retain.
// Concurrent passes are safe: each swaps out its own count, and every
// dropped version is dropped by exactly one of them.
func (p *siProtocol) gc() int {
	counted := p.superseded.Swap(0)
	dropped := p.store.Compact(p.snaps.watermark(p.commitTS.Load()))
	for {
		r := p.retained.Load()
		if p.retained.CompareAndSwap(r, max(0, r+counted-int64(dropped))) {
			return dropped
		}
	}
}

// compactIfDue counts n superseding installs of a finished commit and,
// when the count since the last pass reaches max(minPass, retained),
// runs one gc pass on the calling goroutine. A pass costs O(counted +
// retained) — the chains it visits hold at most that many superseded
// versions — and runs only once counted ≥ retained, so each
// superseding install pays O(1) amortised. No committer waits for a
// pass: while one is in flight the others skip it.
func (p *siProtocol) compactIfDue(n int) {
	if n == 0 || p.superseded.Add(int64(n)) < max(minPass, p.retained.Load()) {
		return
	}
	if p.compacting.CompareAndSwap(false, true) {
		p.gc()
		p.compacting.Store(false)
	}
}

type siTx struct {
	p      *siProtocol
	ticket snapTicket
	rec    *ssiRecord // conflict flags; nil under SI
	done   bool
}

func (t *siTx) read(x model.Obj) (model.Value, error) {
	v, ok := t.p.store.ReadAt(x, t.ticket.snap)
	if !ok {
		return 0, ErrUninitialized
	}
	if t.rec != nil && !t.p.ssi.read(t.rec, x) {
		return 0, ErrConflict
	}
	return v.Val, nil
}

// commit is the one commit procedure of SI, SSI and PSI: one lock
// window over the write set's shards, first-committer-wins validation
// (then the SSI or PSI veto), one timestamp, install (then the PSI log
// append), one staged WAL record, Unlock (append + join the log's group
// fsync), in-order publish. It is the path of record for the DESIGN.md
// §10/§12 soundness arguments.
func (t *siTx) commit(req commitReq) (uint64, error) {
	p := t.p
	tr := req.trace
	if len(req.order) == 0 {
		// Read-only transactions always commit: no lock, no validation,
		// no publish. Mark the terminal stage anyway so the commit stays
		// attributable in /trace/{id} span trees.
		tr.Mark(txtrace.StageROCommit)
		t.finish(true)
		return 0, nil
	}
	snap := t.ticket.snap
	lock := p.store.LockObjs(req.order)
	tr.Mark(txtrace.StageLockWait)
	// Write-conflict detection: any object we wrote that gained a
	// committed version after our snapshot aborts us. Holding every
	// write-set shard makes validate-then-install atomic against any
	// commit overlapping our write set. Under SSI a commit that would
	// complete a dangerous structure is vetoed the same way, and under
	// PSI one that has not seen another site's last write. No
	// loser allocates a timestamp, so none leaves a gap the publish
	// gate waits on. A write to an object that already has a version
	// supersedes it: compactIfDue counts those once the commit is done.
	ok := true
	superseding := 0
	for _, x := range req.order {
		latest := lock.LatestTS(x)
		if latest > snap {
			ok = false
			break
		}
		if latest != 0 {
			superseding++
		}
	}
	if ok && t.rec != nil {
		ok = p.ssi.vet(t.rec, req.order)
	}
	if ok && p.psi != nil {
		ok = p.psi.vet(req.order)
	}
	tr.Mark(txtrace.StageValidate)
	if !ok {
		lock.Unlock()
		t.finish(false)
		return 0, ErrConflict
	}
	ts := p.nextTS.Add(1)
	if t.rec != nil {
		t.rec.stamp(ts)
	}
	var installErr error
	for i, x := range req.order {
		if err := lock.Install(x, storage.Version{Val: req.vals[i], TS: ts}); err != nil {
			// Unreachable while the write-set shards are held (the
			// allocation order argument above); surface it rather than
			// panic per the no-panic guideline — but only after the
			// timestamp is published, or the pipeline would stall.
			if installErr == nil {
				installErr = err
			}
		}
	}
	if p.psi != nil {
		p.psi.append(req.order, req.vals)
	}
	tr.Mark(txtrace.StageInstall)
	// Hand a durable window the commit record while the shards are
	// still held, so the log's per-object record order matches the
	// timestamp order installed above.
	if lg, ok := lock.(storage.CommitLogger); ok {
		lg.LogCommit(storage.CommitRecord{TS: ts, Session: req.session, TxID: req.txid, Ops: req.ops})
	}
	// A durable window marks the wal_append and fsync_wait stages
	// itself (they happen inside Unlock, below).
	if tr != nil {
		if ta, ok := lock.(storage.TraceAttacher); ok {
			ta.AttachTrace(tr)
		}
	}
	// For a durable driver, Unlock appends the staged record inside
	// the critical section, releases the shards, and returns only once
	// the record is fsynced — so the publication below never exposes
	// an un-synced commit. Concurrent commits meet in the log's group
	// fsync, which is the stack's only commit batching.
	dw, durable := lock.(storage.DurableWindow)
	lock.Unlock()
	p.publish(ts, !durable)
	tr.Mark(txtrace.StagePublish)
	var lsn uint64
	if durable {
		durLSN, err := dw.Durable()
		lsn = durLSN
		// A sync failure leaves the writes visible in memory but not
		// durable; surface it (after publishing, so the in-order
		// pipeline cannot stall) and let the caller treat the commit
		// as failed.
		if installErr == nil {
			installErr = err
		}
	}
	t.finish(true)
	p.compactIfDue(superseding)
	return lsn, installErr
}

// publish is the ordered-publish gate: it advances commitTS from ts-1
// to ts, so timestamp ts becomes visible to snapshots only when
// everything at or below it is installed (and, for durable drivers,
// synced). When the predecessor has already published — the common
// case — that is one successful CAS and no lock. When it has not and
// spin is set, the commit retries the CAS for a constant budget
// (spinPublish): over a volatile window the predecessor is at most an
// install and an Unlock behind, far less than a park and wake-up
// costs. Commits past the budget, and every commit of a durable
// window (spin unset: its predecessor may be waiting for an fsync, and
// a spinner would take the CPU the log's group commit needs), park on
// pubCond until their turn comes; every publisher wakes the parked
// commits when there are any.
//
// No wake-up is lost: a waiter increments pubWaiters before re-trying
// its CAS under pubMu, and a publisher loads pubWaiters after its CAS.
// If the publisher reads zero, the waiter's increment — and so its
// re-tried CAS — comes after the publisher's CAS and succeeds; if it
// reads non-zero it broadcasts under pubMu, which the waiter holds
// from its failed CAS until it is parked in Wait. The spin touches
// neither pubWaiters nor pubMu, so it changes none of this.
func (p *siProtocol) publish(ts uint64, spin bool) {
	if !p.commitTS.CompareAndSwap(ts-1, ts) && !(spin && p.spinPublish(ts)) {
		p.parks.Inc()
		p.pubWaiters.Add(1)
		p.pubMu.Lock()
		for !p.commitTS.CompareAndSwap(ts-1, ts) {
			p.pubCond.Wait()
		}
		p.pubMu.Unlock()
		p.pubWaiters.Add(-1)
	}
	if p.pubWaiters.Load() != 0 {
		p.pubMu.Lock()
		p.pubCond.Broadcast()
		p.pubMu.Unlock()
	}
}

// The spin budget of the publish gate: publishSpins loads of commitTS,
// then publishYields yields of the processor, each followed by a CAS
// when the predecessor has published. The spins cover a predecessor
// running on another core; the yields one that is runnable on this
// one (at GOMAXPROCS 1 it can run only when this commit yields). A
// predecessor still unpublished after both is descheduled or blocked,
// and parking costs less than waiting for it.
const (
	publishSpins  = 128
	publishYields = 8
)

// spinPublish retries publish's CAS within the spin budget and
// reports whether it succeeded.
func (p *siProtocol) spinPublish(ts uint64) bool {
	for i := 0; i < publishSpins+publishYields; i++ {
		if i >= publishSpins {
			runtime.Gosched()
		}
		if p.commitTS.Load() == ts-1 && p.commitTS.CompareAndSwap(ts-1, ts) {
			return true
		}
	}
	return false
}

func (t *siTx) abort() { t.finish(false) }

// finish releases the snapshot registration exactly once. Under SSI it
// also ends the conflict-flag record at the published timestamp and,
// when one is due, prunes the tracker against the registry watermark.
func (t *siTx) finish(committed bool) {
	if t.done {
		return
	}
	t.done = true
	p := t.p
	p.snaps.release(t.ticket)
	if t.rec != nil {
		if now := p.commitTS.Load(); p.ssi.end(t.rec, now, committed) {
			p.ssi.prune(p.snaps.watermark(now))
		}
	}
}
