package obshttp

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sian/internal/model"
	"sian/internal/obs"
	"sian/internal/obs/eventlog"
	"sian/internal/obs/txtrace"
)

// demoTxTracer builds a tracer holding two deterministic finished
// traces (fixed IDs, timestamps and spans) so endpoint output is
// byte-stable for golden comparison; its series go to reg.
func demoTxTracer(reg *obs.Registry) *txtrace.Tracer {
	tt := txtrace.New(txtrace.Options{Start: 0x10, Metrics: reg})
	base := int64(1_700_000_000_000_000_000)
	tt.Ingest(&txtrace.TraceData{
		TraceID: txtrace.FormatID(0x10), Session: "wire/1", TxID: "w3",
		Outcome: txtrace.OutcomeCommit, LSN: 7,
		Start: base, End: base + 5_000_000, Duration: 5_000_000,
		Spans: []txtrace.Span{
			{Stage: txtrace.StageBeginWait, Start: base, End: base + 1_000},
			{Stage: txtrace.StageReads, Start: base + 1_000, End: base + 800_000},
			{Stage: txtrace.StageLockWait, Start: base + 800_000, End: base + 810_000},
			{Stage: txtrace.StageValidate, Start: base + 810_000, End: base + 820_000},
			{Stage: txtrace.StageInstall, Start: base + 820_000, End: base + 840_000},
			{Stage: txtrace.StageWALAppend, Start: base + 840_000, End: base + 900_000,
				Attrs: map[string]int64{"lsn": 7}},
			{Stage: txtrace.StageFsyncWait, Start: base + 900_000, End: base + 4_700_000,
				Attrs: map[string]int64{"group_gap": 3, "lsn": 7, "synced_at_enter": 4}},
			{Stage: txtrace.StagePublish, Start: base + 4_700_000, End: base + 4_900_000},
			{Stage: txtrace.StageAck, Start: base + 4_900_000, End: base + 5_000_000},
		},
	})
	tt.Ingest(&txtrace.TraceData{
		TraceID: txtrace.FormatID(0x11), Session: "wire/2", TxID: "w4",
		Outcome: txtrace.OutcomeConflict,
		Start:   base, End: base + 400_000, Duration: 400_000,
		Spans: []txtrace.Span{
			{Stage: txtrace.StageValidate, Start: base, End: base + 400_000},
		},
	})
	return tt
}

// TestTraceEndpointGolden pins the /trace/{id} JSON schema — the span
// tree consumed by CI, scripts and humans alike.
func TestTraceEndpointGolden(t *testing.T) {
	s := New(Config{Registry: obs.NewRegistry()})
	s.SetTxTracer(demoTxTracer(nil))
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/trace/0000000000000010")
	if code != http.StatusOK {
		t.Fatalf("/trace status %d: %s", code, body)
	}
	checkGolden(t, "trace.golden", body)

	// Schema invariants beyond the bytes: ID round-trips through the
	// documented hex form and spans carry absolute nanosecond stamps.
	var td txtrace.TraceData
	if err := json.Unmarshal(body, &td); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if _, err := txtrace.ParseID(td.TraceID); err != nil {
		t.Errorf("trace_id %q does not parse: %v", td.TraceID, err)
	}
	if len(td.Spans) != 9 || td.Outcome != txtrace.OutcomeCommit {
		t.Errorf("trace: %d spans, outcome %s", len(td.Spans), td.Outcome)
	}

	// Leading zeros are optional in the route (ParseID semantics).
	if code, _ := get(t, ts, "/trace/10"); code != http.StatusOK {
		t.Errorf("/trace/10 (no leading zeros) status %d", code)
	}
}

// TestSlowEndpoint covers threshold parsing (Go duration and bare
// nanoseconds), ordering and limits.
func TestSlowEndpoint(t *testing.T) {
	s := New(Config{Registry: obs.NewRegistry()})
	s.SetTxTracer(demoTxTracer(nil))
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/slow")
	if code != http.StatusOK {
		t.Fatalf("/slow status %d: %s", code, body)
	}
	var doc struct {
		ThresholdNS int64                `json:"threshold_ns"`
		Count       int                  `json:"count"`
		Traces      []*txtrace.TraceData `json:"traces"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("slow does not parse: %v", err)
	}
	if doc.Count != 2 || len(doc.Traces) != 2 {
		t.Fatalf("slow: %+v", doc)
	}
	// Slowest first.
	if doc.Traces[0].Duration < doc.Traces[1].Duration {
		t.Error("slow log not sorted slowest-first")
	}

	for _, q := range []string{"?threshold=1ms", "?threshold=1000000"} {
		_, body := get(t, ts, "/slow"+q)
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("slow%s: %v", q, err)
		}
		if doc.ThresholdNS != 1_000_000 || doc.Count != 1 {
			t.Errorf("slow%s: threshold %d, count %d", q, doc.ThresholdNS, doc.Count)
		}
	}
	if _, body := get(t, ts, "/slow?limit=1"); true {
		if err := json.Unmarshal(body, &doc); err != nil || doc.Count != 1 {
			t.Errorf("slow?limit=1: count %d, %v", doc.Count, err)
		}
	}
	if code, _ := get(t, ts, "/slow?threshold=bogus"); code != http.StatusBadRequest {
		t.Errorf("bogus threshold status %d", code)
	}
	if code, _ := get(t, ts, "/slow?limit=-1"); code != http.StatusBadRequest {
		t.Errorf("negative limit status %d", code)
	}
}

// TestTraceEndpointsOff pins the tracing-off and error responses, and
// that SetTxTracer attaches tracing (and /timeline) to a running plane.
func TestTraceEndpointsOff(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Registry: reg})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/trace/0000000000000010", "/slow", "/timeline"} {
		code, body := get(t, ts, path)
		if code != http.StatusNotFound || !strings.Contains(string(body), "run with -trace)") {
			t.Errorf("%s without tracer: %d %q (want 404 pointing at -trace)", path, code, body)
		}
	}

	s.SetTxTracer(demoTxTracer(reg))
	if code, _ := get(t, ts, "/trace/0000000000000010"); code != http.StatusOK {
		t.Errorf("after SetTxTracer: status %d", code)
	}
	if code, body := get(t, ts, "/timeline"); code != http.StatusOK || !strings.Contains(string(body), `"cat": "stage"`) {
		t.Errorf("/timeline after SetTxTracer: %d, no stage slices in %.200s", code, body)
	}
	if code, _ := get(t, ts, "/trace/not-hex"); code != http.StatusBadRequest {
		t.Errorf("bad id status %d", code)
	}
	if code, _ := get(t, ts, "/trace/00000000000000ff"); code != http.StatusNotFound {
		t.Errorf("unknown id status %d", code)
	}

	// The tracer's lifetime counts are series of the registry it was
	// given, so /metrics shows them.
	_, body := get(t, ts, "/metrics")
	if !strings.Contains(string(body), "trace_started_total 2\n") || !strings.Contains(string(body), "trace_finished_total 2\n") {
		t.Errorf("/metrics lacks the tracer's counts:\n%s", body)
	}
}

// TestEventlogDropAccounting forces flight-recorder drops through a
// tiny ring and checks they surface on both scrapes: Prometheus text
// and JSON.
func TestEventlogDropAccounting(t *testing.T) {
	rec := eventlog.NewRecorder(1) // one event per shard: guaranteed overwrites
	s := New(Config{Registry: obs.NewRegistry()})
	s.SetRecorder(rec)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 64; i++ {
		rec.Record(eventlog.Event{Kind: eventlog.Write, Session: "s1", TxID: fmt.Sprintf("t%d", i), Obj: "x", Val: model.Value(i)})
	}
	if rec.Dropped() == 0 {
		t.Fatal("ring did not drop despite capacity 1")
	}

	_, body := get(t, ts, "/metrics")
	text := string(body)
	if !strings.Contains(text, "# TYPE eventlog_dropped_total counter") {
		t.Errorf("/metrics missing eventlog_dropped_total type line:\n%s", text)
	}
	var recorded, dropped, retained int64
	for _, line := range strings.Split(text, "\n") {
		fmt.Sscanf(line, "eventlog_recorded_total %d", &recorded)
		fmt.Sscanf(line, "eventlog_dropped_total %d", &dropped)
		fmt.Sscanf(line, "eventlog_retained_events %d", &retained)
	}
	if recorded != 64 || dropped == 0 || retained == 0 || retained+dropped != recorded {
		t.Errorf("/metrics accounting: recorded=%d dropped=%d retained=%d", recorded, dropped, retained)
	}

	_, body = get(t, ts, "/metrics.json")
	var metrics []obs.JSONMetric
	if err := json.Unmarshal(body, &metrics); err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, m := range metrics {
		if strings.HasPrefix(m.Name, "eventlog_") {
			found[m.Name] = true
			if m.Name == "eventlog_dropped_total" && (m.Value == nil || *m.Value == 0) {
				t.Error("eventlog_dropped_total is zero in /metrics.json")
			}
		}
	}
	for _, name := range []string{"eventlog_recorded_total", "eventlog_dropped_total", "eventlog_retained_events"} {
		if !found[name] {
			t.Errorf("/metrics.json missing %s", name)
		}
	}
}
