// Package eventlog is the engine's flight recorder: a fixed-capacity,
// lock-light ring buffer of structured transactional events
// (begin/read/write/commit/abort/conflict). Engines append events from
// many worker goroutines; the recorder shards the ring by session so
// an append contends only on its shard's mutex, while a single atomic
// sequence number gives every event a global order. A shard's ring
// grows on demand, doubling up to the shard's share of the capacity, so
// a recorder that records little holds little. When the ring is full
// the oldest events of the appending shard are overwritten, so
// recording never blocks and never grows past the capacity — the
// recorder keeps the recent past, like an aircraft flight recorder.
//
// The stream is the history's event log, nothing more: the online
// monitor's input, NDJSON via internal/histio (-record), and the live
// /events tail. Timelines are spans, drawn by internal/obs/txtrace.
package eventlog

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sian/internal/model"
)

// Kind labels one transactional event.
type Kind int

// Event kinds. Begin/Commit/Abort delimit a transaction attempt;
// Conflict marks an attempt aborted by the protocol (first-committer-
// wins, lock or SSI dangerous-structure conflicts); Read and Write are
// the attempt's operations.
const (
	KindInvalid Kind = iota
	Begin
	Read
	Write
	Commit
	Abort
	Conflict
)

// String returns "begin", "read", "write", "commit", "abort" or
// "conflict".
func (k Kind) String() string {
	switch k {
	case Begin:
		return "begin"
	case Read:
		return "read"
	case Write:
		return "write"
	case Commit:
		return "commit"
	case Abort:
		return "abort"
	case Conflict:
		return "conflict"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind is the inverse of Kind.String.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "begin":
		return Begin, nil
	case "read":
		return Read, nil
	case "write":
		return Write, nil
	case "commit":
		return Commit, nil
	case "abort":
		return Abort, nil
	case "conflict":
		return Conflict, nil
	default:
		return KindInvalid, fmt.Errorf("eventlog: unknown event kind %q", s)
	}
}

// Event is one recorded transactional event.
type Event struct {
	// Seq is the event's position in the recorder's global order,
	// assigned by Record (starting at 1).
	Seq int64
	// TS is the event's wall-clock timestamp in Unix nanoseconds.
	TS int64
	// Kind is the event kind.
	Kind Kind
	// Session identifies the issuing session.
	Session string
	// TxID identifies the transaction attempt within the session
	// (each conflict retry is a fresh attempt with a fresh id).
	TxID string
	// Name, set on Commit events only, is the canonical id the
	// committed transaction carries in the recorded history (for
	// example "s1/2", or "init" for the initialisation transaction).
	Name string
	// Obj and Val carry the operation of Read and Write events.
	Obj model.Obj
	Val model.Value
	// LSN, set on Commit events of a durable storage driver, is the
	// write-ahead-log sequence number the commit was fsynced at (zero
	// for volatile drivers), correlating publish order with log order.
	LSN uint64
}

// shardCount is the number of independent rings; a power of two so the
// shard index is a mask away from the session hash.
const shardCount = 8

// DefaultCapacity is the recorder capacity used when NewRecorder is
// given a non-positive one: large enough to hold a sizeable benchmark
// run, small enough (a few MB when full) to always leave on.
const DefaultCapacity = 1 << 16

// Recorder is the ring-buffer flight recorder. All methods are safe
// for concurrent use and are no-ops on a nil recorder, so engine code
// can thread an optional *Recorder without branching.
type Recorder struct {
	seq     atomic.Int64
	dropped atomic.Int64
	shards  [shardCount]shard

	// Live-tail subscriptions. nsubs mirrors len(subs) so the record
	// hot path can skip the fan-out with one atomic load when nobody
	// is tailing.
	subMu sync.RWMutex
	subs  []*Subscription
	nsubs atomic.Int32
}

// shard is one independent ring. Total appended count n never wraps.
// Until n reaches limit, buf holds every event appended, in order, and
// grows by doubling; from then on len(buf) is limit and the ring slot
// of the i-th append is i % limit.
type shard struct {
	mu    sync.Mutex
	buf   []Event
	limit int
	n     int
}

// minRing is the first allocation of a shard's ring.
const minRing = 64

// NewRecorder returns a recorder holding at most capacity events
// (approximately: the capacity is split evenly across internal shards,
// so a workload hammering one session can overwrite that shard while
// others have room). Non-positive capacity selects DefaultCapacity.
// Nothing is allocated for the rings until events arrive.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	per := max(capacity/shardCount, 1)
	r := &Recorder{}
	for i := range r.shards {
		r.shards[i].limit = per
	}
	return r
}

// add stores ev in the ring and reports whether it overwrote the
// oldest event. The caller holds s.mu.
func (s *shard) add(ev Event) (dropped bool) {
	if len(s.buf) < s.limit {
		if len(s.buf) == cap(s.buf) {
			grown := make([]Event, len(s.buf), min(max(2*len(s.buf), minRing), s.limit))
			copy(grown, s.buf)
			s.buf = grown
		}
		s.buf = append(s.buf, ev)
	} else {
		s.buf[s.n%s.limit] = ev
		dropped = true
	}
	s.n++
	return dropped
}

// Record appends the event, assigning its Seq and, when ev.TS is zero,
// stamping the current time. When the event's shard ring is full the
// oldest event in it is overwritten (counted by Dropped).
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	ev.Seq = r.seq.Add(1)
	if ev.TS == 0 {
		ev.TS = time.Now().UnixNano()
	}
	s := &r.shards[shardOf(ev.Session)]
	s.mu.Lock()
	if s.add(ev) {
		r.dropped.Add(1)
	}
	s.mu.Unlock()
	if r.nsubs.Load() > 0 {
		r.publish(ev)
	}
}

// publish fans ev out to every live subscription without blocking: a
// subscriber whose buffer is full loses the event and has its drop
// counter bumped instead.
func (r *Recorder) publish(ev Event) {
	r.subMu.RLock()
	for _, sub := range r.subs {
		select {
		case sub.ch <- ev:
		default:
			sub.dropped.Add(1)
		}
	}
	r.subMu.RUnlock()
}

// Subscription is one live tail of a recorder's event stream, created
// by Subscribe. Events arrive on C in Record order; when the consumer
// falls behind the buffer, events are dropped (never blocking the
// recording engine) and counted by Dropped.
type Subscription struct {
	rec     *Recorder
	ch      chan Event
	dropped atomic.Int64
}

// DefaultSubscriptionBuffer is the per-subscriber channel capacity used
// when Subscribe is given a non-positive one.
const DefaultSubscriptionBuffer = 256

// Subscribe registers a live tail with the given buffer capacity
// (non-positive selects DefaultSubscriptionBuffer). The caller must
// drain C promptly or accept drops, and must Close the subscription
// when done. Subscribe on a nil recorder returns nil; all Subscription
// methods tolerate a nil receiver.
func (r *Recorder) Subscribe(buf int) *Subscription {
	if r == nil {
		return nil
	}
	if buf <= 0 {
		buf = DefaultSubscriptionBuffer
	}
	sub := &Subscription{rec: r, ch: make(chan Event, buf)}
	r.subMu.Lock()
	r.subs = append(r.subs, sub)
	r.nsubs.Store(int32(len(r.subs)))
	r.subMu.Unlock()
	return sub
}

// C returns the subscription's event channel. It is closed by Close.
func (s *Subscription) C() <-chan Event {
	if s == nil {
		return nil
	}
	return s.ch
}

// Dropped returns the number of events this subscriber lost to a full
// buffer.
func (s *Subscription) Dropped() int64 {
	if s == nil {
		return 0
	}
	return s.dropped.Load()
}

// Close unregisters the subscription and closes its channel. It is
// safe to call once; events still buffered remain readable until the
// channel drains to its close.
func (s *Subscription) Close() {
	if s == nil {
		return
	}
	r := s.rec
	r.subMu.Lock()
	for i, sub := range r.subs {
		if sub == s {
			r.subs = append(r.subs[:i], r.subs[i+1:]...)
			close(s.ch)
			break
		}
	}
	r.nsubs.Store(int32(len(r.subs)))
	r.subMu.Unlock()
}

// shardOf hashes a session id to a shard index (FNV-1a).
func shardOf(session string) int {
	h := uint32(2166136261)
	for i := 0; i < len(session); i++ {
		h ^= uint32(session[i])
		h *= 16777619
	}
	return int(h) & (shardCount - 1)
}

// Events returns the retained events sorted by Seq. It locks each
// shard briefly; recording may proceed concurrently, and the snapshot
// reflects some linearisation of the appends.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	// Events recorded after Len only make the appends below grow out.
	out := make([]Event, 0, r.Len())
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		out = append(out, s.buf...)
		s.mu.Unlock()
	}
	sortBySeq(out)
	return out
}

// sortBySeq sorts events with distinct seqs. When the seqs are one
// contiguous range, as they are when nothing was overwritten and no
// append raced the copy, each event's place is its seq minus the
// smallest, and one cycle walk puts every event there; otherwise they
// are sorted.
func sortBySeq(evs []Event) {
	if len(evs) == 0 {
		return
	}
	lo, hi := evs[0].Seq, evs[0].Seq
	for _, ev := range evs[1:] {
		lo, hi = min(lo, ev.Seq), max(hi, ev.Seq)
	}
	if hi-lo+1 != int64(len(evs)) {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
		return
	}
	for i := range evs {
		for j := int(evs[i].Seq - lo); j != i; j = int(evs[i].Seq - lo) {
			evs[i], evs[j] = evs[j], evs[i]
		}
	}
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	total := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		total += len(s.buf)
		s.mu.Unlock()
	}
	return total
}

// Recorded returns the total number of events ever recorded, including
// overwritten ones.
func (r *Recorder) Recorded() int64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Dropped returns the number of events overwritten by ring wrap-
// around.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}
