package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sian/internal/histio"
	"sian/internal/obs/eventlog"
)

// TestRunRecordAndTimeline is the flight-recorder acceptance path:
// -record must emit NDJSON that decodes back into events, and
// -timeline must emit well-formed Chrome trace JSON with per-session
// timelines.
func TestRunRecordAndTimeline(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	recPath := filepath.Join(dir, "events.ndjson")
	tlPath := filepath.Join(dir, "timeline.json")
	var out bytes.Buffer
	code, err := run([]string{
		"-engine", "si", "-workload", "registers",
		"-sessions", "2", "-txs", "5", "-ops", "2", "-objects", "3",
		"-record", recPath, "-timeline", tlPath,
	}, &out, new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "recorded ") {
		t.Errorf("no record confirmation in output:\n%s", out.String())
	}

	f, err := os.Open(recPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := histio.DecodeEvents(f)
	if err != nil {
		t.Fatalf("decode recorded NDJSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	var commits int
	sessions := map[string]bool{}
	for i, ev := range events {
		if i > 0 && ev.Seq <= events[i-1].Seq {
			t.Fatalf("event %d: seq %d not increasing after %d", i, ev.Seq, events[i-1].Seq)
		}
		sessions[ev.Session] = true
		if ev.Kind == eventlog.Commit {
			commits++
		}
	}
	if commits == 0 {
		t.Error("no commit events recorded")
	}
	if len(sessions) < 2 {
		t.Errorf("sessions in recording = %d, want at least the 2 workers", len(sessions))
	}

	raw, err := os.ReadFile(tlPath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			PID   int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("timeline has no trace events")
	}
	var haveComplete bool
	for _, te := range trace.TraceEvents {
		if te.Phase == "X" {
			haveComplete = true
		}
	}
	if !haveComplete {
		t.Error("timeline has no complete ('X') spans")
	}
	// The engine's stage slices sit on the server track, the run's
	// workload stage on the certifier track.
	if pids := stageSlicesByPid(t, tlPath); pids[2] == 0 || pids[3] != 1 {
		t.Errorf("timeline stage slices by pid = %v, want server (2) and one on certifier (3)", pids)
	}
}

// TestRunRecordDefaultCapWarning: an over-tight ring capacity drops
// events and must warn rather than silently truncate.
func TestRunRecordCapDropsWarn(t *testing.T) {
	t.Parallel()
	recPath := filepath.Join(t.TempDir(), "events.ndjson")
	var out, errOut bytes.Buffer
	code, err := run([]string{
		"-engine", "si", "-workload", "registers",
		"-sessions", "2", "-txs", "10", "-ops", "3", "-objects", "3",
		"-record", recPath, "-record-cap", "4",
	}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(errOut.String(), "overwrote") {
		t.Errorf("no overwrite warning on stderr:\n%s", errOut.String())
	}
}
