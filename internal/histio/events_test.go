package histio

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"sian/internal/obs/eventlog"
	"sian/internal/workload"
)

func sampleEvents() []eventlog.Event {
	return []eventlog.Event{
		{Seq: 1, TS: 100, Kind: eventlog.Begin, Session: "s1", TxID: "s1#1"},
		{Seq: 2, TS: 110, Kind: eventlog.Read, Session: "s1", TxID: "s1#1", Obj: "x", Val: 0},
		{Seq: 3, TS: 120, Kind: eventlog.Write, Session: "s1", TxID: "s1#1", Obj: "x", Val: 7},
		{Seq: 4, TS: 130, Kind: eventlog.Commit, Session: "s1", TxID: "s1#1", Name: "s1/1"},
		{Seq: 5, TS: 140, Kind: eventlog.Conflict, Session: "s2", TxID: "s2#1"},
		{Seq: 6, TS: 150, Kind: eventlog.Abort, Session: "s2", TxID: "s2#2"},
	}
}

func TestEventsRoundTrip(t *testing.T) {
	t.Parallel()
	in := sampleEvents()
	var buf bytes.Buffer
	if err := EncodeEvents(&buf, in); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != len(in) {
		t.Errorf("NDJSON lines = %d, want %d", n, len(in))
	}
	out, err := DecodeEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed events:\nin:  %+v\nout: %+v", in, out)
	}
}

func TestEventScannerStreaming(t *testing.T) {
	t.Parallel()
	// A pipe delivers lines incrementally: the scanner must return
	// each event as soon as its line is complete, without waiting for
	// EOF — the tail-reader contract sicheck relies on.
	pr, pw := io.Pipe()
	var encoded bytes.Buffer
	if err := EncodeEvents(&encoded, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(encoded.String(), "\n"), "\n")
	go func() {
		for _, line := range lines {
			if _, err := io.WriteString(pw, line); err != nil {
				return
			}
		}
		pw.Close()
	}()
	sc := NewEventScanner(pr)
	var got []eventlog.Event
	for {
		ev, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ev)
	}
	if !reflect.DeepEqual(got, sampleEvents()) {
		t.Errorf("streamed events differ:\ngot:  %+v\nwant: %+v", got, sampleEvents())
	}
}

func TestEventScannerBlankLinesAndFinalUnterminated(t *testing.T) {
	t.Parallel()
	in := "\n" + `{"seq":1,"ts":1,"kind":"begin","session":"s","tx":"s#1"}` + "\n\n" +
		`{"seq":2,"ts":2,"kind":"commit","session":"s","tx":"s#1","name":"s/1"}` // no trailing newline
	sc := NewEventScanner(strings.NewReader(in))
	var kinds []eventlog.Kind
	for {
		ev, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, ev.Kind)
	}
	if len(kinds) != 2 || kinds[0] != eventlog.Begin || kinds[1] != eventlog.Commit {
		t.Errorf("kinds = %v, want [begin commit]", kinds)
	}
}

func TestEventScannerErrors(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name, in string
	}{
		{"truncated json", `{"seq":1,"ts":1,"kind":"beg`},
		{"unknown kind", `{"seq":1,"ts":1,"kind":"frobnicate"}` + "\n"},
		{"unknown field", `{"seq":1,"kind":"begin","bogus":true}` + "\n"},
		{"read without object", `{"seq":1,"kind":"read","session":"s","tx":"t"}` + "\n"},
		{"trailing garbage", `{"seq":1,"kind":"begin"} {"seq":2}` + "\n"},
		{"not json", "hello world\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sc := NewEventScanner(strings.NewReader(tc.in))
			if _, err := sc.Next(); err == nil || err == io.EOF {
				t.Fatalf("Next() err = %v, want decode error", err)
			}
			// The scanner stays poisoned.
			if _, err := sc.Next(); err == nil || err == io.EOF {
				t.Errorf("poisoned scanner returned err = %v", err)
			}
		})
	}
}

// TestEventScannerDropsLine: a tail piped from /events through
// `sed -n 's/^data: //p'` carries a drops frame's {"dropped":N} line
// where the tail fell behind. The scanner returns the events before it,
// then an error naming the loss, and stays poisoned.
func TestEventScannerDropsLine(t *testing.T) {
	t.Parallel()
	var rec bytes.Buffer
	if err := EncodeEvents(&rec, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(rec.String(), "\n")
	in := strings.Join(lines[:2], "") + `{"dropped":3}` + "\n" + strings.Join(lines[2:], "")
	sc := NewEventScanner(strings.NewReader(in))
	for i := 0; i < 2; i++ {
		if ev, err := sc.Next(); err != nil || ev.Seq != int64(i+1) {
			t.Fatalf("event %d = (%+v, %v), want seq %d", i, ev, err, i+1)
		}
	}
	for i := 0; i < 2; i++ { // the scanner stays poisoned
		_, err := sc.Next()
		if !errors.Is(err, ErrEventsLost) {
			t.Fatalf("Next() at the drops line = %v, want ErrEventsLost", err)
		}
		if want := "histio: event line 3: the tail lost 3 events; the stream is incomplete"; err.Error() != want {
			t.Errorf("error %q, want %q", err, want)
		}
	}
}

func TestLooksLikeHistory(t *testing.T) {
	t.Parallel()
	var h bytes.Buffer
	if err := EncodeHistory(&h, workload.WriteSkew().History); err != nil {
		t.Fatal(err)
	}
	if !LooksLikeHistory(h.Bytes()[:32]) {
		t.Error("encoded history not detected")
	}
	var e bytes.Buffer
	if err := EncodeEvents(&e, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	if LooksLikeHistory(e.Bytes()[:32]) {
		t.Error("event stream misdetected as history")
	}
	if LooksLikeHistory(nil) || LooksLikeHistory([]byte("  \n")) {
		t.Error("empty input misdetected as history")
	}
}

func TestHistoryToEvents(t *testing.T) {
	t.Parallel()
	h := workload.LostUpdate().History
	events := HistoryToEvents(h)
	begins, commits := 0, 0
	var names []string
	for i, ev := range events {
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d seq = %d", i, ev.Seq)
		}
		switch ev.Kind {
		case eventlog.Begin:
			begins++
		case eventlog.Commit:
			commits++
			names = append(names, ev.Name)
		}
	}
	if begins != h.NumTransactions() || commits != h.NumTransactions() {
		t.Errorf("begins/commits = %d/%d, want %d each", begins, commits, h.NumTransactions())
	}
	for i, name := range names {
		if want := h.Transaction(i).ID; want != "" && name != want {
			t.Errorf("commit %d name = %q, want %q", i, name, want)
		}
	}
	// The stream round-trips through NDJSON.
	var buf bytes.Buffer
	if err := EncodeEvents(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, back) {
		t.Error("HistoryToEvents stream does not round-trip")
	}
}
