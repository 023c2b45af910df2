package engine

import (
	"sync"
	"sync/atomic"
)

// snapRegistry tracks the snapshot timestamps of live SI transactions
// so that garbage collection can compute a safe watermark — without a
// global mutex on the begin path and without the O(live-snapshots)
// map scan the seed engine performed under that mutex.
//
// Registration is a lock-free slot array: a beginning transaction
// claims a free slot with one CAS and publishes its snapshot there;
// release is a single atomic store. The watermark scan reads the
// fixed slot array with atomic loads, so its cost is bounded by the
// slot count, not by the number of live snapshots, and it never
// blocks a begin.
//
// When every slot is taken (more than snapSlots concurrent
// transactions) registration spills into a mutex-protected map that
// counts live registrations per epoch (snap >> epochShift). A live
// epoch holds the watermark at its floor (epoch << epochShift) — a
// conservative lower bound on every snapshot in it — so the scan costs
// O(slots + live overflow epochs), at the price of holding the
// watermark back by at most 2^epochShift − 1 timestamps while the
// registry is overflowed. Correctness never depends on the slots
// having room.
//
// # The begin/GC race
//
// A transaction must never read at a snapshot below a watermark some
// concurrent GC has already collected to. The danger window is
// between loading the commit timestamp and publishing it in a slot: a
// GC scanning in between would miss the registration. The registry
// closes it with an intent handshake:
//
//   - watermark(now) first raises gcIntent to now (monotonically,
//     CAS-max), then scans.
//   - acquire(now) publishes the registration, then re-checks
//     gcIntent. If gcIntent ≤ snap, any GC that could collect above
//     snap must have raised the intent after the registration was
//     published — and then its scan sees it. If gcIntent > snap, a
//     scan may have missed us; acquire retries with a fresher
//     timestamp. Retries terminate because gcIntent never exceeds the
//     commit timestamp it was loaded from.
//
// The spill map instead orders registration against the scan with its
// mutex. Both sides of the handshake use atomics with sequentially
// consistent ordering (Go's sync/atomic), which the argument above
// relies on.
const snapSlots = 512

// epochShift sets the spill map's granularity: 2^epochShift snapshots
// share an epoch.
const epochShift = 6

type snapRegistry struct {
	slots  [snapSlots]atomic.Uint64 // snapshot+1; 0 = free
	cursor atomic.Uint64            // round-robin claim hint
	// gcIntent is the highest watermark any collector has advertised
	// before scanning; begins above it are guaranteed visible to every
	// in-flight scan.
	gcIntent atomic.Uint64

	// spill counts the registrations that found every slot taken. The
	// mutex orders registration against watermark's scan, so no intent
	// handshake is needed on this path.
	spillMu sync.Mutex
	spill   map[uint64]int // epoch → live registrations
}

// snapTicket is one live registration, released exactly once.
type snapTicket struct {
	snap  uint64
	slot  *atomic.Uint64 // nil ⇒ counted in the spill map under epoch
	epoch uint64
}

// acquire registers a snapshot read from now (typically the published
// commit timestamp) and returns the ticket carrying the snapshot to
// read at.
func (r *snapRegistry) acquire(now func() uint64) snapTicket {
	start := r.cursor.Add(1)
	for i := uint64(0); i < snapSlots; i++ {
		slot := &r.slots[(start+i)%snapSlots]
		v := now()
		if !slot.CompareAndSwap(0, v+1) {
			continue // taken; probe the next slot
		}
		for {
			if r.gcIntent.Load() <= v {
				return snapTicket{snap: v, slot: slot}
			}
			// A collector may be scanning above v and may have missed
			// this slot; republish with a fresher timestamp.
			v = now()
			slot.Store(v + 1)
		}
	}
	// Slot array exhausted: the mutex-ordered spill map (see watermark).
	r.spillMu.Lock()
	v := now()
	e := v >> epochShift
	if r.spill == nil {
		r.spill = make(map[uint64]int)
	}
	r.spill[e]++
	r.spillMu.Unlock()
	return snapTicket{snap: v, epoch: e}
}

// release drops the registration. Call exactly once per ticket.
func (r *snapRegistry) release(t snapTicket) {
	if t.slot != nil {
		t.slot.Store(0)
		return
	}
	r.spillMu.Lock()
	if n := r.spill[t.epoch]; n > 1 {
		r.spill[t.epoch] = n - 1
	} else {
		delete(r.spill, t.epoch)
	}
	r.spillMu.Unlock()
}

// watermark returns the oldest snapshot any live transaction may read
// at, bounded above by now (the published commit timestamp). Callers
// collect versions strictly below the result. Spilled registrations
// contribute their epoch floor — a conservative bound ≤ every snapshot
// they cover, so the result can lag the true minimum by at most
// 2^epochShift − 1 when the registry is overflowed.
func (r *snapRegistry) watermark(now uint64) uint64 {
	// Advertise intent before scanning; CAS-max so a slower concurrent
	// collector with an older timestamp cannot regress it.
	for {
		cur := r.gcIntent.Load()
		if cur >= now || r.gcIntent.CompareAndSwap(cur, now) {
			break
		}
	}
	min := now
	for i := range r.slots {
		if v := r.slots[i].Load(); v != 0 && v-1 < min {
			min = v - 1
		}
	}
	// Spill registrations happen under the same lock; a scan that runs
	// first is ordered before the registration, whose snapshot is then
	// ≥ the commit timestamp this scan was bounded by — safe.
	r.spillMu.Lock()
	for e := range r.spill {
		if f := e << epochShift; f < min {
			min = f
		}
	}
	r.spillMu.Unlock()
	return min
}
