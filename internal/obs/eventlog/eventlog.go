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
// /events tail, which reads the ring through Since rather than being
// pushed to. Timelines are spans, drawn by internal/obs/txtrace.
package eventlog

import (
	"fmt"
	"math"
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
// oldest event in it is overwritten (counted by Dropped). The Seq is
// taken under the shard's lock, so a shard's events are stored in Seq
// order and Since can tell which seqs are stored.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	if ev.TS == 0 {
		ev.TS = time.Now().UnixNano()
	}
	s := &r.shards[shardOf(ev.Session)]
	s.mu.Lock()
	ev.Seq = r.seq.Add(1)
	if s.add(ev) {
		r.dropped.Add(1)
	}
	s.mu.Unlock()
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

// Events returns the retained events sorted by Seq: Since(0) without
// its bound.
func (r *Recorder) Events() []Event {
	evs, _ := r.Since(0)
	return evs
}

// Since returns, in Seq order, the retained events with after < Seq ≤
// upto, where every event at or below upto has been stored (and may
// since have been overwritten). A live tail is a cursor: it passes the upto of its
// last call as after, so it sees each event at most once and learns
// that upto − after − len(evs) events were overwritten before it asked.
//
// upto is the least of the seq counters read under each shard's lock:
// Record takes a Seq under its shard's lock, so at that read every
// event of the shard at or below upto had been stored, and those not
// copied then had already been overwritten.
func (r *Recorder) Since(after int64) (evs []Event, upto int64) {
	if r == nil {
		return nil, after
	}
	// At most Len events are retained and seq − after have Seq > after;
	// events recorded meanwhile only make the appends below grow out.
	evs = make([]Event, 0, max(min(int64(r.Len()), r.seq.Load()-after), 0))
	upto = math.MaxInt64
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		upto = min(upto, r.seq.Load())
		evs = s.appendAfter(evs, after)
		s.mu.Unlock()
	}
	// Drop what was recorded past upto while the shards were read; the
	// sort below restores the order.
	for i := 0; i < len(evs); {
		if evs[i].Seq > upto {
			evs[i] = evs[len(evs)-1]
			evs = evs[:len(evs)-1]
		} else {
			i++
		}
	}
	sortBySeq(evs)
	return evs, upto
}

// appendAfter appends the shard's events with Seq > after, oldest
// first. The caller holds s.mu. The ring holds its events in Seq order
// from the oldest, at slot s.n % len(s.buf).
func (s *shard) appendAfter(evs []Event, after int64) []Event {
	n := len(s.buf)
	if n == 0 {
		return evs
	}
	i := sort.Search(n, func(i int) bool { return s.buf[(s.n+i)%n].Seq > after })
	from, k := (s.n+i)%n, n-i
	if from+k <= n {
		return append(evs, s.buf[from:from+k]...)
	}
	evs = append(evs, s.buf[from:]...)
	return append(evs, s.buf[:from+k-n]...)
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
