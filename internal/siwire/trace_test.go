package siwire

import (
	"math/rand"
	"net"
	"reflect"
	"testing"

	"sian/internal/codec"
	"sian/internal/engine"
	"sian/internal/model"
	"sian/internal/obs/txtrace"
	"sian/internal/storage/wal"
)

// startTracedServer runs an in-process server whose engine traces
// every transaction, returning the server tracer for inspection.
func startTracedServer(t *testing.T, tracer *txtrace.Tracer) string {
	t.Helper()
	drv, err := wal.Open(wal.Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	db, err := engine.New(engine.SI, engine.Config{Driver: drv, TxTracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerConfig{DB: db})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return ln.Addr().String()
}

// randSpans builds deterministic pseudo-random spans covering empty
// and populated attr maps, unknown stages and extreme timestamps.
func randSpans(rng *rand.Rand, n int) []txtrace.Span {
	stages := []txtrace.Stage{
		txtrace.StageBeginWait, txtrace.StageValidate, txtrace.StageFsyncWait,
		txtrace.StageWireCommit, "future_stage", "",
	}
	spans := make([]txtrace.Span, n)
	for i := range spans {
		sp := txtrace.Span{
			Stage: stages[rng.Intn(len(stages))],
			Start: rng.Int63(),
			End:   rng.Int63(),
		}
		for j := rng.Intn(3); j > 0; j-- {
			if sp.Attrs == nil {
				sp.Attrs = map[string]int64{}
			}
			sp.Attrs[string(rune('a'+j))] = rng.Int63() - rng.Int63()
		}
		spans[i] = sp
	}
	return spans
}

// TestTraceBlobRoundTrip is the codec property test: arbitrary span
// sets survive append → parse bit-exactly, including negative attr
// values (two's-complement through u64) and unknown stages.
func TestTraceBlobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		td := &txtrace.TraceData{Spans: randSpans(rng, rng.Intn(12))}
		// Encode under a pseudo-random ID via the tracer so td.ID() is set.
		id := rng.Uint64() | 1
		tr := txtrace.New(txtrace.Options{Start: id}).Begin("s")
		tr.AddSpans(td.Spans)
		tr.Finish(txtrace.OutcomeCommit, 0)
		data := tr.Data()

		b := appendTraceBlob(codec.AppendU64(nil, 12345), data)
		r := codec.NewReader("siwire", b)
		if lsn := r.U64("lsn"); lsn != 12345 {
			t.Fatalf("lsn = %d", lsn)
		}
		gotID, gotSpans := parseTraceBlob(&r)
		if gotID != id {
			t.Fatalf("iter %d: id = %#x, want %#x", iter, gotID, id)
		}
		if len(gotSpans) != len(data.Spans) {
			t.Fatalf("iter %d: %d spans, want %d", iter, len(gotSpans), len(data.Spans))
		}
		for i := range gotSpans {
			if !reflect.DeepEqual(gotSpans[i], data.Spans[i]) {
				t.Fatalf("iter %d span %d: %+v != %+v", iter, i, gotSpans[i], data.Spans[i])
			}
		}
		if r.Remaining() != 0 {
			t.Fatalf("iter %d: %d bytes left over", iter, r.Remaining())
		}
	}
}

// TestTraceBlobNilAndTruncated pins the degenerate cases: a nil trace
// appends nothing (the untraced server's response is byte-identical to
// the pre-extension format), and truncated blobs fail cleanly instead
// of returning partial spans.
func TestTraceBlobNilAndTruncated(t *testing.T) {
	if got := appendTraceBlob(codec.AppendU64(nil, 9), nil); len(got) != 8 {
		t.Errorf("nil trace blob added %d bytes", len(got)-8)
	}

	tr := txtrace.New(txtrace.Options{Start: 0xee}).Begin("s")
	tr.Mark(txtrace.StageValidate)
	tr.Finish(txtrace.OutcomeCommit, 0)
	full := appendTraceBlob(nil, tr.Data())
	for cut := 1; cut < len(full); cut++ {
		r := codec.NewReader("siwire", full[:cut])
		id, spans := parseTraceBlob(&r)
		if r.Err() == nil {
			t.Fatalf("cut %d: truncated blob parsed without error", cut)
		}
		if id != 0 || spans != nil {
			t.Fatalf("cut %d: partial result (%#x, %d spans) despite error", cut, id, len(spans))
		}
	}
}

// TestTraceIDPropagation drives every frame type with tracing on at
// both ends: the client-chosen ID is adopted by the server, pipeline
// spans ride back on the commit response, and the server's tracer
// resolves the same ID.
func TestTraceIDPropagation(t *testing.T) {
	srvTracer := txtrace.New(txtrace.Options{})
	addr := startTracedServer(t, srvTracer)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const id = uint64(0xc0ffee00dd)
	if err := c.BeginTraced(id); err != nil {
		t.Fatal(err)
	}
	if err := c.Write("x", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read("x"); err != nil {
		t.Fatal(err)
	}
	res, err := c.CommitTraced()
	if err != nil {
		t.Fatal(err)
	}
	if res.LSN == 0 {
		t.Error("no durability LSN")
	}
	if res.TraceID != id {
		t.Errorf("trace id = %#x, want %#x (server did not adopt the client's)", res.TraceID, id)
	}
	if len(res.ServerSpans) < 6 {
		t.Errorf("server returned %d pipeline spans, want ≥ 6: %+v", len(res.ServerSpans), res.ServerSpans)
	}
	stages := map[txtrace.Stage]bool{}
	for _, sp := range res.ServerSpans {
		stages[sp.Stage] = true
	}
	for _, want := range []txtrace.Stage{txtrace.StageValidate, txtrace.StageWALAppend, txtrace.StageFsyncWait, txtrace.StagePublish} {
		if !stages[want] {
			t.Errorf("missing %s span in %v", want, stages)
		}
	}
	if td := srvTracer.Get(id); td == nil {
		t.Error("server tracer cannot resolve the propagated ID")
	} else if td.Outcome != txtrace.OutcomeCommit {
		t.Errorf("server trace outcome = %s", td.Outcome)
	}

	// Abort and info frames under the same traced connection.
	if err := c.BeginTraced(id + 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	if td := srvTracer.Get(id + 1); td == nil || td.Outcome != txtrace.OutcomeAbort {
		t.Errorf("aborted trace: %+v", td)
	}
	if _, err := c.Info(); err != nil {
		t.Fatal(err)
	}
}

// TestOldClientAgainstTracingServer is the backward-compatibility half:
// a pre-extension client (plain Begin, plain Commit) works unchanged
// against a tracing server, silently ignoring the trace blob.
func TestOldClientAgainstTracingServer(t *testing.T) {
	addr := startTracedServer(t, txtrace.New(txtrace.Options{}))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Write("y", 7); err != nil {
		t.Fatal(err)
	}
	lsn, err := c.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if lsn == 0 {
		t.Error("old-format commit lost the LSN")
	}
	if v, err := readBack(c, "y"); err != nil || v != 7 {
		t.Errorf("read back: %d, %v", v, err)
	}
}

// TestTracedClientAgainstUntracedServer is the forward-compatibility
// half: a tracing client against a server that does not trace sees a
// zero trace ID and no spans, nothing else changes.
func TestTracedClientAgainstUntracedServer(t *testing.T) {
	addr := startTracedServer(t, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.BeginTraced(0x1234); err != nil {
		t.Fatal(err)
	}
	if err := c.Write("z", 3); err != nil {
		t.Fatal(err)
	}
	res, err := c.CommitTraced()
	if err != nil {
		t.Fatal(err)
	}
	if res.LSN == 0 {
		t.Error("no LSN")
	}
	if res.TraceID != 0 || res.ServerSpans != nil {
		t.Errorf("untraced server produced trace data: %+v", res)
	}
}

// readBack reads one object in a fresh transaction.
func readBack(c *Client, obj model.Obj) (model.Value, error) {
	if err := c.Begin(); err != nil {
		return 0, err
	}
	v, err := c.Read(obj)
	if err != nil {
		return 0, err
	}
	return v, c.Abort()
}
