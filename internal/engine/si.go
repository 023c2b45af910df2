package engine

import (
	"sync"
	"sync/atomic"

	"sian/internal/model"
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
//   - reads take only the read-lock of the one store shard holding
//     the object;
//   - commit locks only the shards covering its write set, in
//     canonical shard order (Driver.LockObjs), validates
//     first-committer-wins per shard and installs under that one
//     multi-shard critical section, so transactions with disjoint
//     write sets commit fully in parallel;
//   - publication is one CAS when the predecessor has published and
//     a parked wait behind it otherwise (publish, the ordered-publish
//     gate);
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
type siProtocol struct {
	store storage.Driver
	// ssi, nil under SI, makes this SSI: reads and commits report to the
	// dangerous-structure tracker of ssi.go, which may veto them.
	ssi *ssiTracker

	// nextTS is the commit-timestamp allocation sequence.
	nextTS atomic.Uint64
	// commitTS is the published watermark: every version with a
	// timestamp at or below it is fully installed. Begins snapshot
	// this value.
	commitTS atomic.Uint64
	// snaps registers live snapshots for the GC watermark.
	snaps snapRegistry

	// The ordered-publish gate (publish): commits whose predecessor
	// has not published yet park on pubCond; pubWaiters counts them so
	// that an uncontended publish never touches pubMu.
	pubWaiters atomic.Int32
	pubMu      sync.Mutex
	pubCond    sync.Cond
}

func newSIProtocol(cfg Config) *siProtocol {
	st := cfg.Driver
	if st == nil {
		st = storage.NewMem()
	}
	p := &siProtocol{store: st}
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

func (p *siProtocol) begin(int) (txProtocol, error) {
	t := &siTx{p: p, ticket: p.snaps.acquire(p.commitTS.Load)}
	if p.ssi != nil {
		t.rec = &ssiRecord{snap: t.ticket.snap}
	}
	return t, nil
}

// gc truncates version chains below the oldest live snapshot and
// returns the number of versions discarded.
func (p *siProtocol) gc() int {
	return p.store.Compact(p.snaps.watermark(p.commitTS.Load()))
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

// commit is the one commit procedure of SI and SSI: one lock window
// over the write set's shards, first-committer-wins validation (then
// the SSI veto), one timestamp, install, one staged WAL record, Unlock
// (append + join the log's group fsync), in-order publish. It is the
// path of record for the DESIGN.md §10/§12 soundness arguments.
func (t *siTx) commit(req commitReq) (uint64, error) {
	p := t.p
	tr := req.trace
	if len(req.writes) == 0 {
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
	// complete a dangerous structure is vetoed the same way. Neither
	// loser allocates a timestamp, so neither leaves a gap the publish
	// gate waits on.
	ok := true
	for _, x := range req.order {
		if lock.LatestTS(x) > snap {
			ok = false
			break
		}
	}
	if ok && t.rec != nil {
		ok = p.ssi.vet(t.rec, req.order)
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
	for _, x := range req.order {
		if err := lock.Install(x, storage.Version{Val: req.writes[x], TS: ts}); err != nil {
			// Unreachable while the write-set shards are held (the
			// allocation order argument above); surface it rather than
			// panic per the no-panic guideline — but only after the
			// timestamp is published, or the pipeline would stall.
			if installErr == nil {
				installErr = err
			}
		}
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
	lock.Unlock()
	p.publish(ts)
	tr.Mark(txtrace.StagePublish)
	var lsn uint64
	if dw, ok := lock.(storage.DurableWindow); ok {
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
	return lsn, installErr
}

// publish is the ordered-publish gate: it advances commitTS from ts-1
// to ts, so timestamp ts becomes visible to snapshots only when
// everything at or below it is installed (and, for durable drivers,
// synced). When the predecessor has already published — the common
// case — that is one successful CAS and no lock. Otherwise the commit
// parks on pubCond until its turn comes, and every publisher wakes the
// parked commits when there are any.
//
// No wake-up is lost: a waiter increments pubWaiters before re-trying
// its CAS under pubMu, and a publisher loads pubWaiters after its CAS.
// If the publisher reads zero, the waiter's increment — and so its
// re-tried CAS — comes after the publisher's CAS and succeeds; if it
// reads non-zero it broadcasts under pubMu, which the waiter holds
// from its failed CAS until it is parked in Wait.
func (p *siProtocol) publish(ts uint64) {
	if !p.commitTS.CompareAndSwap(ts-1, ts) {
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
