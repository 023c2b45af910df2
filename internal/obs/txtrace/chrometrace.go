package txtrace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// traceEvent is one entry of the Chrome trace-event JSON format
// (loadable at ui.perfetto.dev and chrome://tracing). ts and dur are
// microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type traceDoc struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// Trace-event process ids: client wire spans, server pipeline spans
// and certifier (or CLI run) stages each get a track group.
const (
	pidClient = iota + 1
	pidServer
	pidCertifier
)

var processNames = map[int]string{
	pidClient:    "client (wire)",
	pidServer:    "server (commit pipeline)",
	pidCertifier: "certifier",
}

// trackOf places a stage: wire_* stages ran on the client side of the
// wire, the commit-pipeline stages on the server, and everything else
// (the certifier's check_* stages, a CLI run's phases) on the
// certifier track.
func trackOf(s Stage) int {
	switch {
	case strings.HasPrefix(string(s), "wire_"):
		return pidClient
	case stageRank(s) <= stageRank(StageAck):
		return pidServer
	}
	return pidCertifier
}

// homeOf is the track of a trace's umbrella slice: the first track any
// of its spans lands on (a client trace carries merged server spans).
func homeOf(td *TraceData) int {
	home := pidCertifier
	for _, sp := range td.Spans {
		home = min(home, trackOf(sp.Stage))
	}
	return home
}

// WriteChromeTrace renders finished traces as a Chrome trace-event
// JSON document with the client, server and certifier halves of the
// work on separate process tracks: per trace, an umbrella "X" slice
// named by its transaction (or trace) ID on its home track, and one "X"
// slice per stage span on the stage's track, each grouped into one
// thread per session. Timestamps are rebased to the earliest span so
// the timeline starts near zero (client and server stamps share a
// timebase only when both halves ran on the same host; otherwise
// tracks may be skewed by the clock offset). Output is deterministic
// for a given input.
func WriteChromeTrace(w io.Writer, traces []*TraceData) error {
	// Stable session → tid assignment per track, in sorted order.
	tidOf := map[int]map[string]int{pidClient: {}, pidServer: {}, pidCertifier: {}}
	base, first := int64(0), true
	for _, td := range traces {
		if td == nil {
			continue
		}
		tidOf[homeOf(td)][td.Session] = 0
		if first || td.Start < base {
			base, first = td.Start, false
		}
		for _, sp := range td.Spans {
			base = min(base, sp.Start)
		}
	}
	usSince := func(ns int64) float64 { return float64(ns-base) / 1e3 }
	var out []traceEvent
	for pid := pidClient; pid <= pidCertifier; pid++ {
		out = append(out, traceEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": processNames[pid]}})
		names := make([]string, 0, len(tidOf[pid]))
		for s := range tidOf[pid] {
			names = append(names, s)
		}
		sort.Strings(names)
		for i, s := range names {
			tidOf[pid][s] = i + 1
			if pid != pidCertifier { // a certifier "session" is the tool's name
				s = "session " + s
			}
			out = append(out, traceEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: i + 1,
				Args: map[string]any{"name": s},
			})
		}
	}

	for _, td := range traces {
		if td == nil {
			continue
		}
		homePid := homeOf(td)
		homeTid := tidOf[homePid][td.Session]
		name := td.TxID
		if name == "" {
			name = td.TraceID
		}
		dur := usSince(td.End) - usSince(td.Start)
		out = append(out, traceEvent{
			Name: name, Cat: "txn", Ph: "X",
			Pid: homePid, Tid: homeTid,
			TS: usSince(td.Start), Dur: &dur,
			Args: map[string]any{
				"trace_id": td.TraceID,
				"outcome":  td.Outcome,
				"session":  td.Session,
			},
		})
		for _, sp := range td.Spans {
			pid := trackOf(sp.Stage)
			tid := tidOf[pid][td.Session]
			if tid == 0 {
				// Server spans merged into a client trace: the server
				// side has no thread for this session; reuse the
				// client tid so related rows stay adjacent.
				tid = homeTid
			}
			spDur := usSince(sp.End) - usSince(sp.Start)
			args := map[string]any{"trace_id": td.TraceID}
			for k, v := range sp.Attrs {
				args[k] = v
			}
			out = append(out, traceEvent{
				Name: string(sp.Stage), Cat: "stage", Ph: "X",
				Pid: pid, Tid: tid,
				TS: usSince(sp.Start), Dur: &spDur,
				Args: args,
			})
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(traceDoc{TraceEvents: out, DisplayTimeUnit: "ms"}); err != nil {
		return fmt.Errorf("txtrace: encoding chrome trace: %w", err)
	}
	return nil
}
