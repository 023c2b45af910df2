package txtrace

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"sian/internal/obs"
)

// mkTrace hand-builds a finished TraceData for Ingest-based tests,
// with a deterministic ID and duration.
func mkTrace(id uint64, dur int64) *TraceData {
	start := int64(1_000_000)
	return &TraceData{
		TraceID:  FormatID(id),
		Session:  fmt.Sprintf("s%d", id%4),
		Outcome:  OutcomeCommit,
		Start:    start,
		End:      start + dur,
		Duration: dur,
		Spans: []Span{
			{Stage: StageReads, Start: start, End: start + dur/2},
			{Stage: StageFsyncWait, Start: start + dur/2, End: start + dur},
		},
	}
}

func TestMarkProducesContiguousSpans(t *testing.T) {
	tt := New(Options{Start: 0x100})
	tr := tt.Begin("sess-a")
	if got := tr.ID(); got != 0x100 {
		t.Fatalf("ID = %#x, want 0x100", got)
	}
	tr.SetTxID("sess-a#1")
	tr.Mark(StageBeginWait)
	tr.Mark(StageReads)
	tr.MarkAttrs(StageWALAppend, map[string]int64{"lsn": 9})
	tr.Finish(OutcomeCommit, 9)

	td := tr.Data()
	if td == nil {
		t.Fatal("Data() nil after Finish")
	}
	if td.TraceID != "0000000000000100" {
		t.Errorf("TraceID = %q", td.TraceID)
	}
	if td.TxID != "sess-a#1" || td.Outcome != OutcomeCommit || td.LSN != 9 {
		t.Errorf("metadata: %+v", td)
	}
	if len(td.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(td.Spans))
	}
	// The cursor model guarantees spans tile the trace: each span
	// starts exactly where the previous ended, the first at the trace
	// start, and none extends past the trace end.
	if td.Spans[0].Start != td.Start {
		t.Errorf("first span starts at %d, trace at %d", td.Spans[0].Start, td.Start)
	}
	for i := 1; i < len(td.Spans); i++ {
		if td.Spans[i].Start != td.Spans[i-1].End {
			t.Errorf("span %d not contiguous: prev end %d, start %d", i, td.Spans[i-1].End, td.Spans[i].Start)
		}
	}
	if last := td.Spans[len(td.Spans)-1]; last.End > td.End {
		t.Errorf("last span ends %d after trace end %d", last.End, td.End)
	}
	if td.Spans[2].Attrs["lsn"] != 9 {
		t.Errorf("wal_append attrs: %v", td.Spans[2].Attrs)
	}
	if td.Duration != td.End-td.Start || td.Duration < 0 {
		t.Errorf("duration %d, start %d, end %d", td.Duration, td.Start, td.End)
	}

	// Finished traces are resolvable by numeric ID and idempotent to
	// re-finish.
	if got := tt.Get(0x100); got != td {
		t.Errorf("Get returned %p, want %p", got, td)
	}
	tr.Finish(OutcomeAbort, 0)
	if tr.Data().Outcome != OutcomeCommit {
		t.Error("second Finish overwrote the trace")
	}
}

func TestNilSafety(t *testing.T) {
	// The "tracing off" representation is a nil tracer handing out nil
	// traces; every method must be a no-op, not a panic.
	var tt *Tracer
	tr := tt.Begin("x")
	if tr != nil {
		t.Fatal("nil tracer minted a trace")
	}
	if tr2 := tt.BeginWithID(7, "x"); tr2 != nil {
		t.Fatal("nil tracer minted a trace via BeginWithID")
	}
	if tr.ID() != 0 {
		t.Error("nil trace has non-zero ID")
	}
	tr.SetTxID("t")
	tr.Mark(StageReads)
	tr.MarkAttrs(StageAck, map[string]int64{"a": 1})
	tr.AddSpans([]Span{{Stage: StageAck}})
	tr.Finish(OutcomeCommit, 1)
	if tr.Data() != nil {
		t.Error("nil trace has data")
	}
	tt.Ingest(mkTrace(1, 10))
	if tt.Get(1) != nil || tt.Slow(0, 0) != nil || tt.Finished(0) != nil || tt.StageLatencies() != nil {
		t.Error("nil tracer returned data")
	}
}

func TestFormatParseID(t *testing.T) {
	for _, id := range []uint64{1, 0xdeadbeef, 1<<63 | 42, ^uint64(0)} {
		s := FormatID(id)
		if len(s) != 16 {
			t.Errorf("FormatID(%#x) = %q: not 16 digits", id, s)
		}
		back, err := ParseID(s)
		if err != nil || back != id {
			t.Errorf("ParseID(%q) = %#x, %v; want %#x", s, back, err, id)
		}
	}
	if _, err := ParseID("not-hex"); err == nil {
		t.Error("ParseID accepted garbage")
	}
}

func TestSlowLogTopK(t *testing.T) {
	tt := New(Options{Capacity: 64, SlowCap: 4})
	for i := uint64(1); i <= 10; i++ {
		tt.Ingest(mkTrace(i, int64(i)*int64(time.Millisecond)))
	}
	slow := tt.Slow(0, 0)
	if len(slow) != 4 {
		t.Fatalf("slow log holds %d, want 4", len(slow))
	}
	for i, wantID := range []uint64{10, 9, 8, 7} {
		if slow[i].ID() != wantID {
			t.Errorf("slow[%d] = %s, want id %d", i, slow[i].TraceID, wantID)
		}
	}
	if got := tt.Slow(9*time.Millisecond, 0); len(got) != 2 {
		t.Errorf("threshold filter returned %d, want 2", len(got))
	}
	if got := tt.Slow(0, 2); len(got) != 2 || got[0].ID() != 10 {
		t.Errorf("limit: got %d traces", len(got))
	}
}

func TestRingEvictionKeepsSlowTraces(t *testing.T) {
	reg := obs.NewRegistry()
	tt := New(Options{Capacity: 4, SlowCap: 2, Metrics: reg})
	// Two early monsters claim the slow log, then a long tail of fast
	// traces cycles the ring far past them.
	tt.Ingest(mkTrace(1, int64(time.Second)))
	tt.Ingest(mkTrace(2, 2*int64(time.Second)))
	for i := uint64(3); i <= 20; i++ {
		tt.Ingest(mkTrace(i, int64(i)))
	}
	// Slow-log residents survive ring eviction and stay resolvable —
	// the property that keeps a histogram exemplar's trace ID useful
	// after the ring has churned.
	if tt.Get(1) == nil || tt.Get(2) == nil {
		t.Error("slow-log traces were evicted with the ring")
	}
	// A mid-run trace neither slow nor recent is gone.
	if tt.Get(5) != nil {
		t.Error("trace 5 still resolvable: ring eviction did not fire")
	}
	// The ring itself holds the newest four.
	fin := tt.Finished(0)
	if len(fin) != 4 {
		t.Fatalf("Finished: %d traces, want 4", len(fin))
	}
	for i, wantID := range []uint64{17, 18, 19, 20} {
		if fin[i].ID() != wantID {
			t.Errorf("Finished[%d] = id %d, want %d", i, fin[i].ID(), wantID)
		}
	}
	if reg.Counter("trace_evicted_total").Value() == 0 {
		t.Error("trace_evicted_total never moved")
	}
}

func TestStageLatenciesPipelineOrder(t *testing.T) {
	tt := New(Options{})
	start := int64(1000)
	tt.Ingest(&TraceData{
		TraceID: FormatID(42), Outcome: OutcomeCommit,
		Start: start, End: start + 40, Duration: 40,
		Spans: []Span{
			{Stage: "zz_custom", Start: start, End: start + 10},
			{Stage: StageFsyncWait, Start: start + 10, End: start + 20},
			{Stage: StageWireBegin, Start: start + 20, End: start + 30},
			{Stage: StageAck, Start: start + 30, End: start + 40},
		},
	})
	got := tt.StageLatencies()
	want := []Stage{StageWireBegin, StageFsyncWait, StageAck, "zz_custom"}
	if len(got) != len(want) {
		t.Fatalf("stages: %d, want %d", len(got), len(want))
	}
	for i, st := range want {
		if got[i].Stage != st {
			t.Errorf("stage[%d] = %s, want %s", i, got[i].Stage, st)
		}
		if got[i].Count != 1 {
			t.Errorf("stage[%d] count = %d", i, got[i].Count)
		}
	}
}

func TestBeginWithIDAdoptsAndFallsBack(t *testing.T) {
	tt := New(Options{Start: 500})
	if tr := tt.BeginWithID(0xabc, "w"); tr.ID() != 0xabc {
		t.Errorf("adopted ID = %#x", tr.ID())
	}
	if tr := tt.BeginWithID(0, "w"); tr.ID() == 0 {
		t.Error("zero ID did not fall back to a fresh one")
	}
}

// TestStats: the tracer's lifetime counts are series of its Metrics
// registry.
func TestStats(t *testing.T) {
	reg := obs.NewRegistry()
	tt := New(Options{Start: 1, Metrics: reg})
	tr := tt.Begin("a")
	tt.Begin("b") // started, never finished
	tr.Finish(OutcomeConflict, 0)
	started, finished := reg.Counter("trace_started_total").Value(), reg.Counter("trace_finished_total").Value()
	if started != 2 || finished != 1 {
		t.Errorf("trace_started_total %d, trace_finished_total %d; want 2, 1", started, finished)
	}
}

// TestConcurrentHammer drives begins, marks, finishes, ingests and
// every reader concurrently; run under -race this is the tracer's
// publication-safety check (satellite of the tracing PR).
func TestConcurrentHammer(t *testing.T) {
	reg := obs.NewRegistry()
	tt := New(Options{Capacity: 32, SlowCap: 8, Metrics: reg})
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr := tt.Begin(fmt.Sprintf("w%d", w))
				tr.Mark(StageBeginWait)
				tr.Mark(StageReads)
				tr.MarkAttrs(StageWALAppend, map[string]int64{"lsn": int64(i)})
				tr.Mark(StageAck)
				if i%3 == 0 {
					tr.Finish(OutcomeConflict, 0)
				} else {
					tr.Finish(OutcomeCommit, uint64(i))
				}
				if i%7 == 0 {
					tt.Ingest(mkTrace(uint64(w*perWriter+i)|1<<40, int64(i+1)))
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, td := range tt.Finished(16) {
					if tt.Get(td.ID()) == nil {
						// Raced with eviction: acceptable, just keep going.
						continue
					}
				}
				tt.Slow(0, 4)
				tt.StageLatencies()
				reg.WritePrometheus(io.Discard)
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	started, finished := reg.Counter("trace_started_total").Value(), reg.Counter("trace_finished_total").Value()
	if finished < writers*perWriter {
		t.Errorf("finished = %d, want ≥ %d", finished, writers*perWriter)
	}
	if started < finished {
		t.Errorf("started %d < finished %d", started, finished)
	}
}
