// Package txtrace is the per-transaction tracer: it assigns each
// transaction a trace ID at Begin, records monotonic stage spans as the
// transaction moves through the commit pipeline (begin-wait, reads,
// shard-lock wait, first-committer-wins validation, install, WAL
// append, group-fsync wait, publish CAS, ack), and retains finished
// traces in a bounded ring plus a top-K slow log for forensics.
//
// Design constraints, in order:
//
//  1. Free when off. Instrumented code holds a *Trace that is nil when
//     tracing is disabled; every Trace and Tracer method is nil-safe
//     and returns before touching the clock, so the only cost on the
//     hot path is a pointer nil-check.
//  2. No locks on the live path. A live Trace is owned by exactly one
//     goroutine (the session driving the transaction — stage marks
//     from inside the WAL lock window happen on that same goroutine),
//     so Mark appends to a plain slice. The Tracer's mutex is taken
//     only at Finish, when the immutable TraceData is published.
//  3. Mergeable across machines. Span timestamps are absolute UNIX
//     nanoseconds (derived from one wall-clock anchor plus monotonic
//     offsets, so spans never run backwards), and trace IDs propagate
//     over siwire so the client's wire spans and the server's pipeline
//     spans join into one timeline.
package txtrace

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sian/internal/obs"
)

// Stage names one segment of a transaction's lifetime. The pipeline
// stages below are emitted by the engine and storage layers; the wire_*
// stages by a tracing siwire client. Consumers should tolerate unknown
// stages (the set grows with the pipeline).
type Stage string

const (
	// StageBeginWait covers Begin: snapshot acquisition (one atomic
	// commitTS load plus a snapshot-registry slot claim under SI).
	StageBeginWait Stage = "begin_wait"
	// StageReads covers the transaction body: every read and buffered
	// write between Begin and the commit request.
	StageReads Stage = "reads"
	// StageROCommit is the ack-terminal stage of a read-only commit:
	// protocols mark it in their empty-write-set early return (no lock,
	// no validation, no publish) so read-only transactions still carry
	// an attributable commit span instead of jumping straight to ack.
	StageROCommit Stage = "ro_commit"
	// StageLockWait covers acquiring the write-set's shard locks in
	// ascending shard order (PSI: the engine-wide mutex).
	StageLockWait Stage = "lock_wait"
	// StageValidate covers first-committer-wins validation: comparing
	// each written object's latest committed timestamp to the
	// transaction's snapshot (SSI: then the dangerous-structure veto).
	StageValidate Stage = "validate"
	// StageInstall covers installing the write set's new versions into
	// the MVCC store at the freshly allocated commit timestamp.
	StageInstall Stage = "install"
	// StageWALAppend covers encoding and appending the commit record
	// to the write-ahead log (LSN assignment).
	StageWALAppend Stage = "wal_append"
	// StageFsyncWait covers waiting for the group fsync that makes the
	// record durable; attrs carry the append/sync LSN gap that shows
	// how many records the group covered.
	StageFsyncWait Stage = "fsync_wait"
	// StagePublish covers the in-order publish CAS that makes the
	// commit visible to new snapshots.
	StagePublish Stage = "publish"
	// StageAck covers everything after publish up to the commit call
	// returning to the caller (durability wait, metrics, recording).
	StageAck Stage = "ack"

	// StageWireBegin, StageWireOps and StageWireCommit are the client
	// side of a traced network run: the begin call, the read/write op
	// calls, and the commit round-trip (which contains the server
	// pipeline stages above). siwire pipelines begin and write, so
	// wire_begin times only the enqueue; begin's round trip is paid by
	// the first read, inside wire_ops.
	StageWireBegin  Stage = "wire_begin"
	StageWireOps    Stage = "wire_ops"
	StageWireCommit Stage = "wire_commit"
)

// Transaction outcomes recorded at Finish.
const (
	OutcomeCommit   = "commit"
	OutcomeConflict = "conflict"
	OutcomeAbort    = "abort"
	OutcomeError    = "error"
)

// stageOrder is the canonical presentation order for per-stage
// aggregates; unknown stages sort after these, alphabetically.
var stageOrder = []Stage{
	StageWireBegin, StageWireOps, StageWireCommit,
	StageBeginWait, StageReads, StageROCommit, StageLockWait, StageValidate,
	StageInstall, StageWALAppend, StageFsyncWait, StagePublish, StageAck,
}

func stageRank(s Stage) int {
	for i, o := range stageOrder {
		if s == o {
			return i
		}
	}
	return len(stageOrder)
}

// Span is one closed stage interval. Start and End are absolute UNIX
// nanoseconds; Attrs carries optional stage-specific integers (for
// example the WAL append LSN and the group-fsync LSN gap).
type Span struct {
	Stage Stage            `json:"stage"`
	Start int64            `json:"start_ns"`
	End   int64            `json:"end_ns"`
	Attrs map[string]int64 `json:"attrs,omitempty"`
}

// TraceData is a finished, immutable trace: the span tree served by
// GET /trace/{id}. The root is the transaction itself; Spans are its
// children in chronological order. The trace ID is rendered as a
// 16-digit hex string (JSON numbers lose precision above 2^53).
type TraceData struct {
	TraceID  string `json:"trace_id"`
	Session  string `json:"session"`
	TxID     string `json:"txid,omitempty"`
	Outcome  string `json:"outcome"`
	LSN      uint64 `json:"lsn,omitempty"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Duration int64  `json:"duration_ns"`
	Spans    []Span `json:"spans"`

	id uint64
}

// ID returns the numeric trace ID.
func (td *TraceData) ID() uint64 { return td.id }

// FormatID renders a trace ID the way TraceData.TraceID and the
// /trace/{id} route expect it: 16 lowercase hex digits.
func FormatID(id uint64) string { return fmt.Sprintf("%016x", id) }

// ParseID parses a hex trace ID (with or without leading zeros).
func ParseID(s string) (uint64, error) { return strconv.ParseUint(s, 16, 64) }

// Trace is one live transaction's trace. It is single-goroutine until
// Finish publishes it; all methods are no-ops on a nil receiver so
// instrumentation sites need no enabled-checks beyond holding nil.
type Trace struct {
	tracer  *Tracer
	id      uint64
	session string
	txid    string

	startWall int64     // UNIX ns anchor
	startMono time.Time // monotonic anchor
	cursor    time.Duration
	spans     []Span

	data *TraceData // set by Finish
}

// ID returns the trace ID (0 on nil).
func (tr *Trace) ID() uint64 {
	if tr == nil {
		return 0
	}
	return tr.id
}

// SetTxID attaches the transaction's recorded ID once known.
func (tr *Trace) SetTxID(txid string) {
	if tr == nil {
		return
	}
	tr.txid = txid
}

// Mark closes the span from the previous boundary (Begin or the last
// Mark) to now under the given stage and advances the boundary.
func (tr *Trace) Mark(stage Stage) { tr.MarkAttrs(stage, nil) }

// MarkAttrs is Mark with stage attributes attached to the span.
func (tr *Trace) MarkAttrs(stage Stage, attrs map[string]int64) {
	if tr == nil {
		return
	}
	now := time.Since(tr.startMono)
	tr.spans = append(tr.spans, Span{
		Stage: stage,
		Start: tr.startWall + int64(tr.cursor),
		End:   tr.startWall + int64(now),
		Attrs: attrs,
	})
	tr.cursor = now
}

// AddSpans appends externally produced spans (for example the server's
// pipeline spans returned inside a siwire commit response). They do not
// move the local boundary; their timestamps are kept verbatim.
func (tr *Trace) AddSpans(spans []Span) {
	if tr == nil || len(spans) == 0 {
		return
	}
	tr.spans = append(tr.spans, spans...)
}

// Finish seals the trace with an outcome (and the durable LSN for
// commits) and publishes it to the tracer's ring, slow log and
// per-stage aggregates. Calling Finish more than once is a no-op.
func (tr *Trace) Finish(outcome string, lsn uint64) {
	if tr == nil || tr.data != nil {
		return
	}
	end := tr.startWall + int64(time.Since(tr.startMono))
	td := &TraceData{
		TraceID:  FormatID(tr.id),
		Session:  tr.session,
		TxID:     tr.txid,
		Outcome:  outcome,
		LSN:      lsn,
		Start:    tr.startWall,
		End:      end,
		Duration: end - tr.startWall,
		Spans:    tr.spans,
		id:       tr.id,
	}
	tr.data = td
	tr.tracer.publish(td)
}

// Data returns the finished TraceData (nil before Finish or on nil).
func (tr *Trace) Data() *TraceData {
	if tr == nil {
		return nil
	}
	return tr.data
}

// Options configures a Tracer. The zero value is ready for production
// use: 4096 retained traces, a top-64 slow log, randomized IDs.
type Options struct {
	// Capacity bounds the ring of retained finished traces
	// (default 4096). Oldest traces are evicted first; traces still
	// referenced by the slow log stay resolvable via Get.
	Capacity int
	// SlowCap bounds the slow log (default 64): the finished traces
	// with the largest total duration.
	SlowCap int
	// Start, when non-zero, is the first assigned trace ID and
	// subsequent IDs increment from it — deterministic, for tests.
	// When zero, IDs start from a random 32-bit prefix so traces from
	// different processes (a tracing client and a tracing server) do
	// not collide in a merged timeline.
	Start uint64
}

// Tracer mints trace IDs and retains finished traces. Create with New;
// a nil *Tracer is a valid "tracing off" tracer whose Begin returns a
// nil Trace.
type Tracer struct {
	next atomic.Uint64

	mu     sync.Mutex
	byID   map[uint64]*TraceData
	ring   []uint64 // FIFO of retained IDs
	pos    int
	filled bool
	slow   []*TraceData
	cap    int
	slowCp int
	stages map[Stage]*obs.Histogram

	started  atomic.Int64
	finished atomic.Int64
	evicted  atomic.Int64
}

// New returns a Tracer with the given options.
func New(opts Options) *Tracer {
	if opts.Capacity <= 0 {
		opts.Capacity = 4096
	}
	if opts.SlowCap <= 0 {
		opts.SlowCap = 64
	}
	t := &Tracer{
		byID:   make(map[uint64]*TraceData),
		ring:   make([]uint64, opts.Capacity),
		cap:    opts.Capacity,
		slowCp: opts.SlowCap,
		stages: make(map[Stage]*obs.Histogram),
	}
	start := opts.Start
	if start == 0 {
		start = uint64(rand.Uint32())<<32 | 1
	}
	t.next.Store(start - 1)
	return t
}

// Begin starts a trace with a fresh ID. Returns nil on a nil tracer.
func (t *Tracer) Begin(session string) *Trace {
	if t == nil {
		return nil
	}
	return t.begin(t.next.Add(1), session)
}

// BeginWithID starts a trace under a caller-provided ID — the server
// side of wire propagation, adopting the client's ID so both halves
// merge. A zero ID falls back to a fresh one.
func (t *Tracer) BeginWithID(id uint64, session string) *Trace {
	if t == nil {
		return nil
	}
	if id == 0 {
		id = t.next.Add(1)
	}
	return t.begin(id, session)
}

func (t *Tracer) begin(id uint64, session string) *Trace {
	t.started.Add(1)
	return &Trace{
		tracer:    t,
		id:        id,
		session:   session,
		startWall: time.Now().UnixNano(),
		startMono: time.Now(),
	}
}

// Ingest publishes an externally assembled TraceData (for example a
// client-side trace carrying merged server spans) as if one of this
// tracer's traces had finished.
func (t *Tracer) Ingest(td *TraceData) {
	if t == nil || td == nil {
		return
	}
	if td.id == 0 {
		if id, err := ParseID(td.TraceID); err == nil {
			td.id = id
		}
	}
	t.started.Add(1)
	t.publish(td)
}

func (t *Tracer) publish(td *TraceData) {
	if t == nil {
		return
	}
	t.finished.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()

	if old := t.ring[t.pos]; t.filled {
		if _, ok := t.byID[old]; ok && !t.inSlowLocked(old) {
			delete(t.byID, old)
			t.evicted.Add(1)
		}
	}
	t.ring[t.pos] = td.id
	t.pos++
	if t.pos == t.cap {
		t.pos, t.filled = 0, true
	}
	t.byID[td.id] = td

	if len(t.slow) < t.slowCp {
		t.slow = append(t.slow, td)
	} else {
		min := 0
		for i, s := range t.slow {
			if s.Duration < t.slow[min].Duration {
				min = i
			}
		}
		if td.Duration > t.slow[min].Duration {
			dropped := t.slow[min]
			t.slow[min] = td
			// A trace evicted from the slow log but no longer in the
			// ring loses its last reference.
			if !t.inRingLocked(dropped.id) {
				delete(t.byID, dropped.id)
				t.evicted.Add(1)
			}
		}
	}

	for _, sp := range td.Spans {
		h := t.stages[sp.Stage]
		if h == nil {
			h = &obs.Histogram{}
			t.stages[sp.Stage] = h
		}
		h.Observe(sp.End - sp.Start)
	}
}

func (t *Tracer) inSlowLocked(id uint64) bool {
	for _, s := range t.slow {
		if s.id == id {
			return true
		}
	}
	return false
}

func (t *Tracer) inRingLocked(id uint64) bool {
	n := t.pos
	if t.filled {
		n = t.cap
	}
	for i := 0; i < n; i++ {
		if t.ring[i] == id {
			return true
		}
	}
	return false
}

// Get returns the finished trace with the given ID, or nil.
func (t *Tracer) Get(id uint64) *TraceData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byID[id]
}

// Slow returns up to limit finished traces with total duration ≥
// minDur, slowest first. limit ≤ 0 means the slow log's capacity.
func (t *Tracer) Slow(minDur time.Duration, limit int) []*TraceData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]*TraceData, 0, len(t.slow))
	for _, td := range t.slow {
		if td.Duration >= int64(minDur) {
			out = append(out, td)
		}
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Duration != out[j].Duration {
			return out[i].Duration > out[j].Duration
		}
		return out[i].id < out[j].id
	})
	if limit <= 0 {
		limit = t.slowCp
	}
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Finished returns up to limit retained traces, oldest first
// (limit ≤ 0 means all retained). This is the ring, not the slow log —
// the input for a merged timeline export.
func (t *Tracer) Finished(limit int) []*TraceData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.pos
	start := 0
	if t.filled {
		n = t.cap
		start = t.pos
	}
	out := make([]*TraceData, 0, n)
	for i := 0; i < n; i++ {
		id := t.ring[(start+i)%t.cap]
		if td, ok := t.byID[id]; ok {
			out = append(out, td)
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// StageLatency is one stage's aggregate over every finished trace.
type StageLatency struct {
	Stage Stage   `json:"stage"`
	Count int64   `json:"count"`
	P50NS float64 `json:"p50_ns"`
	P99NS float64 `json:"p99_ns"`
}

// StageLatencies returns per-stage latency aggregates in canonical
// pipeline order (wire stages first, then the server pipeline).
func (t *Tracer) StageLatencies() []StageLatency {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]StageLatency, 0, len(t.stages))
	for st, h := range t.stages {
		out = append(out, StageLatency{
			Stage: st,
			Count: h.Count(),
			P50NS: h.Quantile(0.50),
			P99NS: h.Quantile(0.99),
		})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		ri, rj := stageRank(out[i].Stage), stageRank(out[j].Stage)
		if ri != rj {
			return ri < rj
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// Stats returns lifetime counters: traces started, finished, and
// evicted from retention.
func (t *Tracer) Stats() (started, finished, evicted int64) {
	if t == nil {
		return 0, 0, 0
	}
	return t.started.Load(), t.finished.Load(), t.evicted.Load()
}
