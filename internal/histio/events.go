package histio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"sian/internal/model"
	"sian/internal/obs/eventlog"
)

// eventJSON is the wire form of one transactional event: one compact
// JSON object per NDJSON line.
type eventJSON struct {
	Seq     int64       `json:"seq"`
	TS      int64       `json:"ts"`
	Kind    string      `json:"kind"`
	Session string      `json:"session,omitempty"`
	Tx      string      `json:"tx,omitempty"`
	Name    string      `json:"name,omitempty"`
	Obj     string      `json:"obj,omitempty"`
	Val     model.Value `json:"val,omitempty"`
	LSN     uint64      `json:"lsn,omitempty"`
}

// EncodeEvents writes events as NDJSON: one event object per line, in
// slice order.
func EncodeEvents(w io.Writer, events []eventlog.Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := enc.Encode(wireEvent(ev)); err != nil {
			return fmt.Errorf("histio: encoding event %d: %w", ev.Seq, err)
		}
	}
	return bw.Flush()
}

// MarshalEvent renders one event as a single compact NDJSON line
// without the trailing newline — the payload format shared by event
// files and the obshttp SSE stream.
func MarshalEvent(ev eventlog.Event) ([]byte, error) {
	return json.Marshal(wireEvent(ev))
}

func wireEvent(ev eventlog.Event) eventJSON {
	return eventJSON{
		Seq: ev.Seq, TS: ev.TS, Kind: ev.Kind.String(),
		Session: ev.Session, Tx: ev.TxID, Name: ev.Name,
		Obj: string(ev.Obj), Val: ev.Val, LSN: ev.LSN,
	}
}

// DecodeEvents reads a complete NDJSON event stream.
func DecodeEvents(r io.Reader) ([]eventlog.Event, error) {
	sc := NewEventScanner(r)
	var out []eventlog.Event
	for {
		ev, err := sc.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
}

// ErrEventsLost is wrapped by the error a scanner returns at a drops
// line, {"dropped":N}: the payload of the `event: drops` frame a live
// tail (obshttp's /events) sends when it fell a whole ring behind. The
// events it lost are not in the stream, so a verdict on what follows
// would judge a history with holes.
var ErrEventsLost = errors.New("the stream is incomplete")

// EventScanner reads an NDJSON event stream incrementally — the tail-
// reader path of cmd/sicheck. Next blocks on the underlying reader until
// a full line is available, so scanning a pipe follows the writer
// naturally.
type EventScanner struct {
	br   *bufio.Reader
	line int
	err  error
}

// NewEventScanner returns a scanner over r.
func NewEventScanner(r io.Reader) *EventScanner {
	return &EventScanner{br: bufio.NewReader(r)}
}

// Line returns the 1-based line number of the last event returned by
// Next (the line a subsequent error refers to).
func (s *EventScanner) Line() int { return s.line }

// Next returns the next event. It returns io.EOF at a clean end of
// stream; a truncated final line (data with no trailing newline that
// does not parse) or a malformed line is an error, and so is a drops
// line (ErrEventsLost). Blank lines are skipped. After any non-EOF error the scanner is poisoned and keeps
// returning that error.
func (s *EventScanner) Next() (eventlog.Event, error) {
	if s.err != nil {
		return eventlog.Event{}, s.err
	}
	for {
		line, err := s.br.ReadString('\n')
		s.line++
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			if err != nil {
				s.err = io.EOF
				if err != io.EOF {
					s.err = fmt.Errorf("histio: event line %d: %w", s.line, err)
				}
				return eventlog.Event{}, s.err
			}
			continue // blank line
		}
		if n, ok := droppedLine(trimmed); ok {
			s.err = fmt.Errorf("histio: event line %d: the tail lost %d events; %w", s.line, n, ErrEventsLost)
			return eventlog.Event{}, s.err
		}
		ev, perr := parseEventLine(trimmed)
		if perr != nil {
			s.err = fmt.Errorf("histio: event line %d: %w", s.line, perr)
			return eventlog.Event{}, s.err
		}
		if err != nil && err != io.EOF {
			s.err = fmt.Errorf("histio: event line %d: %w", s.line, err)
			return eventlog.Event{}, s.err
		}
		// A final line without trailing newline that parsed cleanly is
		// accepted; the next call reports EOF.
		if err == io.EOF {
			s.err = io.EOF
		}
		return ev, nil
	}
}

// droppedLine reports whether line is a drops frame's payload, and
// the count it carries.
func droppedLine(line string) (int64, bool) {
	if !strings.HasPrefix(line, `{"dropped":`) {
		return 0, false
	}
	var d struct {
		Dropped int64 `json:"dropped"`
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if dec.Decode(&d) != nil || dec.More() {
		return 0, false
	}
	return d.Dropped, true
}

// parseEventLine decodes one NDJSON line into an event. Unknown fields
// are rejected, like every other histio decoder.
func parseEventLine(line string) (eventlog.Event, error) {
	var ej eventJSON
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ej); err != nil {
		return eventlog.Event{}, err
	}
	// Trailing garbage after the object would silently vanish with a
	// single Decode; reject it.
	if dec.More() {
		return eventlog.Event{}, fmt.Errorf("trailing data after event object")
	}
	kind, err := eventlog.ParseKind(ej.Kind)
	if err != nil {
		return eventlog.Event{}, err
	}
	if (kind == eventlog.Read || kind == eventlog.Write) && ej.Obj == "" {
		return eventlog.Event{}, fmt.Errorf("%s event with empty object", ej.Kind)
	}
	return eventlog.Event{
		Seq: ej.Seq, TS: ej.TS, Kind: kind,
		Session: ej.Session, TxID: ej.Tx, Name: ej.Name,
		Obj: model.Obj(ej.Obj), Val: ej.Val, LSN: ej.LSN,
	}, nil
}

// LooksLikeHistory sniffs the first bytes of an input to distinguish a
// history JSON document (an object opening with a "sessions" key) from
// an NDJSON event stream. It is a heuristic for CLI auto-detection;
// both formats remain individually decodable regardless of what it
// says.
func LooksLikeHistory(prefix []byte) bool {
	trimmed := bytes.TrimLeft(prefix, " \t\r\n")
	if !bytes.HasPrefix(trimmed, []byte("{")) {
		return false
	}
	rest := bytes.TrimLeft(trimmed[1:], " \t\r\n")
	return bytes.HasPrefix(rest, []byte(`"sessions"`))
}

// HistoryToEvents renders a static history as a synthetic committed-
// only event stream, in dense transaction-index order: begin, the
// transaction's operations, then commit carrying the transaction's id.
// Timestamps are synthetic (base epoch + 1ms per transaction) so
// exporters produce a readable timeline. The commit Name falls back to
// "t<index>" when a transaction has no id, and session ids are
// disambiguated with their index when empty or duplicated, since event
// consumers key sessions by id.
func HistoryToEvents(h *model.History) []eventlog.Event {
	const (
		baseTS = int64(1_700_000_000_000_000_000) // arbitrary fixed epoch, ns
		txStep = int64(1_000_000)                 // 1ms per transaction
		opStep = int64(1_000)                     // 1µs per op inside it
	)
	sessionIDs := make([]string, h.NumSessions())
	seen := make(map[string]bool)
	for si, sess := range h.Sessions() {
		id := sess.ID
		if id == "" {
			id = fmt.Sprintf("s%d", si)
		}
		if seen[id] {
			id = fmt.Sprintf("%s#%d", id, si)
		}
		seen[id] = true
		sessionIDs[si] = id
	}
	var out []eventlog.Event
	seq := int64(0)
	emit := func(ev eventlog.Event) {
		seq++
		ev.Seq = seq
		out = append(out, ev)
	}
	for i := 0; i < h.NumTransactions(); i++ {
		t := h.Transaction(i)
		session := sessionIDs[h.SessionIndex(i)]
		name := t.ID
		if name == "" {
			name = fmt.Sprintf("t%d", i)
		}
		txid := fmt.Sprintf("%s#%d", name, i)
		ts := baseTS + int64(i)*txStep
		emit(eventlog.Event{TS: ts, Kind: eventlog.Begin, Session: session, TxID: txid})
		for oi, op := range t.Ops {
			kind := eventlog.Read
			if op.Kind == model.OpWrite {
				kind = eventlog.Write
			}
			emit(eventlog.Event{
				TS: ts + int64(oi+1)*opStep, Kind: kind,
				Session: session, TxID: txid, Obj: op.Obj, Val: op.Val,
			})
		}
		emit(eventlog.Event{
			TS: ts + int64(len(t.Ops)+1)*opStep, Kind: eventlog.Commit,
			Session: session, TxID: txid, Name: name,
		})
	}
	return out
}
