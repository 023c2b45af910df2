package txtrace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteChromeTraceMerged renders one merged client+server trace
// plus one server-only trace and pins the structural invariants: wire
// stages land on the client process, pipeline stages on the server
// process, timestamps are rebased to the earliest span, and the output
// is deterministic.
func TestWriteChromeTraceMerged(t *testing.T) {
	base := int64(5_000_000)
	merged := &TraceData{
		TraceID: FormatID(0xa1), TxID: "w0#3", Session: "w0",
		Outcome: OutcomeCommit, LSN: 7,
		Start: base, End: base + 900, Duration: 900,
		Spans: []Span{
			{Stage: StageWireBegin, Start: base, End: base + 100},
			{Stage: StageWireOps, Start: base + 100, End: base + 400},
			{Stage: StageWireCommit, Start: base + 400, End: base + 900},
			// Server spans merged in via AddSpans: nested inside the
			// commit round-trip.
			{Stage: StageValidate, Start: base + 450, End: base + 500},
			{Stage: StageFsyncWait, Start: base + 500, End: base + 800, Attrs: map[string]int64{"group_gap": 3}},
		},
	}
	serverOnly := &TraceData{
		TraceID: FormatID(0xb2), TxID: "wire/1#0", Session: "wire/1",
		Outcome: OutcomeCommit,
		Start:   base + 50, End: base + 300, Duration: 250,
		Spans: []Span{
			{Stage: StageValidate, Start: base + 60, End: base + 80},
			{Stage: StagePublish, Start: base + 80, End: base + 280},
		},
	}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []*TraceData{merged, nil, serverOnly}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			TS   float64        `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	pidOf := map[string]int{}
	var minTS = 1e18
	umbrellas := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		pidOf[ev.Name] = ev.Pid
		if ev.TS < minTS {
			minTS = ev.TS
		}
		if ev.Name == "w0#3" || ev.Name == "wire/1#0" {
			umbrellas++
		}
	}
	if umbrellas != 2 {
		t.Errorf("umbrella slices: %d, want 2", umbrellas)
	}
	// Sides: wire stages client (pid 1), pipeline stages server (pid 2);
	// the merged trace's umbrella sits on its home (client) side, the
	// server-only trace's on the server side.
	for name, wantPid := range map[string]int{
		"wire_begin": pidClient, "wire_ops": pidClient, "wire_commit": pidClient,
		"fsync_wait": pidServer, "publish": pidServer,
		"w0#3": pidClient, "wire/1#0": pidServer,
	} {
		if pidOf[name] != wantPid {
			t.Errorf("%s on pid %d, want %d", name, pidOf[name], wantPid)
		}
	}
	// Rebasing: the earliest slice starts at ts 0.
	if minTS != 0 {
		t.Errorf("earliest ts = %v, want 0 (rebased)", minTS)
	}

	// Determinism: a second render is byte-identical.
	var buf2 bytes.Buffer
	if err := WriteChromeTrace(&buf2, []*TraceData{merged, nil, serverOnly}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("output is not deterministic")
	}
}

var update = flag.Bool("update", false, "rewrite golden files")

// goldenTraces is one of each kind of trace the stack finishes, with
// deterministic IDs and timestamps: an engine commit whose group fsync
// covered three records, a first-committer-wins conflict, a client
// trace carrying the server spans of its commit round trip, and a
// certifier run.
func goldenTraces() []*TraceData {
	base := int64(1_000_000_000)
	us := func(n int64) int64 { return base + n*1_000 }
	return []*TraceData{
		{TraceID: FormatID(0x10), Session: "s1", TxID: "s1#1", Outcome: OutcomeCommit, LSN: 4,
			Start: us(0), End: us(90), Duration: 90_000, Spans: []Span{
				{Stage: StageBeginWait, Start: us(0), End: us(2)},
				{Stage: StageReads, Start: us(2), End: us(20)},
				{Stage: StageLockWait, Start: us(20), End: us(22)},
				{Stage: StageValidate, Start: us(22), End: us(25)},
				{Stage: StageInstall, Start: us(25), End: us(30)},
				{Stage: StageWALAppend, Start: us(30), End: us(35), Attrs: map[string]int64{"lsn": 4}},
				{Stage: StageFsyncWait, Start: us(35), End: us(80),
					Attrs: map[string]int64{"group_gap": 3, "lsn": 4, "synced_at_enter": 1}},
				{Stage: StagePublish, Start: us(80), End: us(85)},
				{Stage: StageAck, Start: us(85), End: us(90)},
			}},
		{TraceID: FormatID(0x11), Session: "s2", TxID: "s2#1", Outcome: OutcomeConflict,
			Start: us(5), End: us(27), Duration: 22_000, Spans: []Span{
				{Stage: StageBeginWait, Start: us(5), End: us(6)},
				{Stage: StageReads, Start: us(6), End: us(21)},
				{Stage: StageLockWait, Start: us(21), End: us(23)},
				{Stage: StageValidate, Start: us(23), End: us(27)},
			}},
		{TraceID: FormatID(0x12), Session: "w0", TxID: "w0#0", Outcome: OutcomeCommit, LSN: 5,
			Start: us(100), End: us(200), Duration: 100_000, Spans: []Span{
				{Stage: StageWireBegin, Start: us(100), End: us(101)},
				{Stage: StageWireOps, Start: us(101), End: us(140)},
				{Stage: StageWireCommit, Start: us(140), End: us(200)},
				{Stage: StageValidate, Start: us(150), End: us(152)},
				{Stage: StageFsyncWait, Start: us(160), End: us(190), Attrs: map[string]int64{"group_gap": 1}},
			}},
		{TraceID: FormatID(0x13), Session: "sicheck", Outcome: "violation",
			Start: us(300), End: us(400), Duration: 100_000, Spans: []Span{
				{Stage: StageCheckValidate, Start: us(300), End: us(310)},
				{Stage: StageCheckWREnumeration, Start: us(310), End: us(320)},
				{Stage: StageCheckExtensionSearch, Start: us(320), End: us(380),
					Attrs: map[string]int64{"candidates": 3, "cycle_ns": 21_000}},
				{Stage: StageCheckExplain, Start: us(380), End: us(390)},
				{Stage: "output", Start: us(390), End: us(400)},
			}},
	}
}

// TestWriteChromeTraceGolden pins the one timeline exporter's output
// byte for byte. Regenerate with go test -run TestWriteChromeTraceGolden
// -update ./internal/obs/txtrace/ after an intended format change.
func TestWriteChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenTraces()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "timeline_golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("timeline differs from %s (run with -update if intended):\n%s", golden, buf.String())
	}
}

// TestChromeTraceWellFormed checks the Chrome trace-event contract: a
// traceEvents array whose entries carry name/ph/pid/tid, "X" slices a
// non-negative ts and dur, and nothing else that would make Perfetto
// reject the file; and the certifier run lands on its own track.
func TestChromeTraceWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenTraces()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("output is not a trace-event JSON object: %v", err)
	}
	if doc.Unit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.Unit)
	}
	slices, metadata := 0, 0
	for i, ev := range doc.TraceEvents {
		for _, field := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d missing %q: %v", i, field, ev)
			}
		}
		switch ev["ph"] {
		case "X":
			slices++
			dur, dok := ev["dur"].(float64)
			ts, tok := ev["ts"].(float64)
			if !dok || dur < 0 || !tok || ts < 0 {
				t.Errorf("event %d: X slice needs non-negative ts and dur: %v", i, ev)
			}
			if strings.HasPrefix(ev["name"].(string), "check_") && ev["pid"] != float64(pidCertifier) {
				t.Errorf("event %d: certifier stage on pid %v", i, ev["pid"])
			}
		case "M":
			metadata++
		default:
			t.Errorf("event %d: unexpected phase type %v", i, ev["ph"])
		}
	}
	// 4 umbrellas + 9 + 4 + 5 + 5 stage spans.
	if slices != 27 {
		t.Errorf("slices = %d, want 27", slices)
	}
	// process_name ×3; thread_name for s1, s2 (server), w0 (client),
	// sicheck (certifier).
	if metadata != 7 {
		t.Errorf("metadata = %d, want 7", metadata)
	}
}

func TestChromeTraceEmptyInput(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace not valid JSON: %v", err)
	}
}
