package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// spanKind names one timed call into a layer. The layer is the module
// that does the work behind the call, which for the in-memory parts of
// the wal driver is mem.
type spanKind uint8

const (
	spTransact  spanKind = iota // engine: Session.Transact, entry to return
	spReadAt                    // mem: Driver.ReadAt / ReadAtBatch
	spLock                      // mem: Driver.LockObjs / LockBatch
	spInstall                   // mem: Locked.Install
	spHold                      // mem: lock return → Unlock return (no log)
	spUnlock                    // mem: Locked.Unlock without a log
	spWalUnlock                 // wal: Locked.Unlock = append + fsync wait
	spClientTxn                 // siwire: one client transaction, retries included
	spBegin                     // siwire: Client.Begin
	spRead                      // siwire: Client.Read
	spWrite                     // siwire: Client.Write
	spCommit                    // siwire: Client.Commit
	spInfo                      // siwire: Client.Info (bare round trip)
	spHTTP                      // siwire: POST /v1/transact
	spIngest                    // monitor: Ingest of one event
	spFinish                    // monitor: Finish
	spCertify                   // check: Certify
	numSpanKinds
)

var spanNames = [numSpanKinds]struct{ layer, name string }{
	spTransact: {"engine", "transact"}, spReadAt: {"mem", "read_at"}, spLock: {"mem", "lock_wait"},
	spInstall: {"mem", "install"}, spHold: {"mem", "window_hold"}, spUnlock: {"mem", "unlock"},
	spWalUnlock: {"wal", "unlock"}, spClientTxn: {"siwire", "transact"}, spBegin: {"siwire", "begin"}, spRead: {"siwire", "read"},
	spWrite: {"siwire", "write"}, spCommit: {"siwire", "commit"}, spInfo: {"siwire", "rtt"},
	spHTTP: {"siwire", "http_transact"}, spIngest: {"monitor", "ingest"}, spFinish: {"monitor", "finish"},
	spCertify: {"check", "certify"},
}

// span is one recorded call. parent is the index+1 of the Transact (or
// client transaction) span that caused it, 0 when unknown: the storage
// decorator learns the session from the key's owner, so shared keys
// carry no parent.
type span struct {
	start  int64 // ns since the process epoch (see nanos)
	dur    int64 // ns
	parent uint32
	kind   spanKind
	sess   int8 // -1 unknown
}

var processEpoch = time.Now()

// nanos is the benchmark's clock: monotonic nanoseconds since process
// start. One vDSO read, where time.Now makes two.
func nanos() int64 { return int64(time.Since(processEpoch)) }

const (
	maxSessions = 8
	// Spans live in chunks allocated as the run reaches them, so the
	// tracer's heap footprint — which the GC paces itself by — follows
	// what was recorded. 256 chunks of 64k spans hold ~17M spans, a 30 s
	// traced half of the busiest workload.
	chunkShift = 16
	chunkSpans = 1 << chunkShift
	maxChunks  = 256
)

// tracer keeps every span of a traced run in memory; slots are claimed
// with one atomic add, so the recording goroutines never share a lock.
// A nil tracer records nothing, and on() is how instrumented paths skip
// their clock reads.
//
// The hot words sit on cache lines of their own: enabled is read on
// every instrumented call, next is bumped by every span, and each
// session rewrites its current slot once per transaction — sharing a
// line would make every one of those a cross-core transfer.
type tracer struct {
	enabled atomic.Bool
	_       [cacheLine]byte
	next    atomic.Uint32
	_       [cacheLine]byte
	// current[s] is the open transaction span of session s (index+1).
	current [maxSessions]struct {
		atomic.Uint32
		_ [cacheLine]byte
	}
	dropped atomic.Uint64
	chunks  [maxChunks]atomic.Pointer[[chunkSpans]span]
}

const cacheLine = 64

func newTracer() *tracer { return &tracer{} }

func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

// slot claims the next span slot; nil (and a counted drop) when full.
// id is the slot's index+1.
func (t *tracer) slot() (sp *span, id uint32) {
	id = t.next.Add(1)
	c := (id - 1) >> chunkShift
	if c >= maxChunks {
		t.dropped.Add(1)
		return nil, 0
	}
	chunk := t.chunks[c].Load()
	if chunk == nil {
		chunk = new([chunkSpans]span)
		if !t.chunks[c].CompareAndSwap(nil, chunk) {
			chunk = t.chunks[c].Load()
		}
	}
	return &chunk[(id-1)&(chunkSpans-1)], id
}

// open claims a slot for a span that has children (its index is their
// parent) and marks it the session's current transaction; close fills
// it in.
func (t *tracer) open(sess int) *span {
	sp, id := t.slot()
	t.current[sess].Store(id)
	return sp
}

func (t *tracer) close(sp *span, kind spanKind, sess int, start, end int64) {
	t.current[sess].Store(0)
	if sp != nil {
		*sp = span{start: start, dur: end - start, kind: kind, sess: int8(sess)}
	}
}

// add records a finished leaf span; sess < 0 means unknown.
func (t *tracer) add(kind spanKind, sess int, start, end int64) {
	sp, _ := t.slot()
	if sp == nil {
		return
	}
	*sp = span{start: start, dur: end - start, kind: kind, sess: int8(sess)}
	if sess >= 0 {
		sp.parent = t.current[sess].Load()
	}
}

// each visits every recorded span in recording order, up to limit.
func (t *tracer) each(limit int, fn func(i int, sp span)) int {
	n := min(int(t.next.Load()), maxChunks*chunkSpans, limit)
	for i := 0; i < n; i++ {
		if chunk := t.chunks[i>>chunkShift].Load(); chunk != nil {
			fn(i, chunk[i&(chunkSpans-1)])
		}
	}
	return n
}

func (t *tracer) recorded() int { return min(int(t.next.Load()), maxChunks*chunkSpans) }

// kindStats aggregates one span kind over a traced run.
type kindStats struct {
	count    int
	sum      float64 // ns
	p50, p99 float64 // ns; p99 lowered per tailQuantile
}

func (t *tracer) aggregate() [numSpanKinds]kindStats {
	var durs [numSpanKinds][]float64
	t.each(t.recorded(), func(_ int, sp span) {
		durs[sp.kind] = append(durs[sp.kind], float64(sp.dur))
	})
	var out [numSpanKinds]kindStats
	for k, d := range durs {
		sort.Float64s(d)
		st := kindStats{count: len(d), p50: quantile(d, 0.5), p99: quantile(d, tailQuantile(len(d), 0.99))}
		for _, v := range d {
			st.sum += v
		}
		out[k] = st
	}
	return out
}

// busyNS is the total time during which at least one span of the kind
// was open: the union of their intervals, where aggregate().sum counts
// overlapping spans once each.
func (t *tracer) busyNS(kind spanKind) float64 {
	var iv [][2]int64
	t.each(t.recorded(), func(_ int, sp span) {
		if sp.kind == kind {
			iv = append(iv, [2]int64{sp.start, sp.start + sp.dur})
		}
	})
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var busy, end int64
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			busy += x[1] - end
			end = x[1]
		}
	}
	return float64(busy)
}

// traceFileSpans caps the spans written to the trace file: enough to
// open the first few thousand transactions in a viewer, small enough
// to write in well under a second. Aggregates always use every span.
const traceFileSpans = 50_000

// write dumps the head of the trace as JSON: one object per span with
// name, layer, start/end (ns since process start), session and
// the causing transaction span's index.
func (t *tracer) write(path string) error {
	type spanJSON struct {
		ID      int    `json:"id"`
		Name    string `json:"name"`
		Layer   string `json:"layer"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
		Session int    `json:"session"`
		Parent  int    `json:"parent,omitempty"`
	}
	doc := struct {
		Spans    int        `json:"spans_recorded"`
		Dropped  uint64     `json:"spans_dropped"`
		Written  int        `json:"spans_written"`
		SpanList []spanJSON `json:"spans"`
	}{Spans: t.recorded(), Dropped: t.dropped.Load()}
	doc.Written = t.each(traceFileSpans, func(i int, sp span) {
		n := spanNames[sp.kind]
		doc.SpanList = append(doc.SpanList, spanJSON{
			ID: i + 1, Name: n.name, Layer: n.layer, StartNS: sp.start, EndNS: sp.start + sp.dur,
			Session: int(sp.sess), Parent: int(sp.parent),
		})
	})
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
