package histio

import (
	"bytes"
	"strings"
	"testing"

	"sian/internal/workload"
)

// FuzzDecodeHistory checks that arbitrary input never panics the
// decoder and that every successfully decoded history re-encodes and
// decodes to the same shape (round-trip stability).
func FuzzDecodeHistory(f *testing.F) {
	var seed bytes.Buffer
	if err := EncodeHistory(&seed, workload.WriteSkew().History); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add(`{"sessions":[]}`)
	f.Add(`{"sessions":[{"id":"s","transactions":[{"ops":[{"kind":"read","obj":"x","val":0}]}]}]}`)
	f.Add(`{`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, in string) {
		h, err := DecodeHistory(strings.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := EncodeHistory(&out, h); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		h2, err := DecodeHistory(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v\n%s", err, out.String())
		}
		if h2.NumTransactions() != h.NumTransactions() || h2.NumSessions() != h.NumSessions() {
			t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
				h2.NumTransactions(), h2.NumSessions(), h.NumTransactions(), h.NumSessions())
		}
	})
}

// FuzzDecodeEvents checks that arbitrary NDJSON input never panics
// the streaming event scanner (the tail-reader path of cmd/sicheck) and
// that every successfully decoded stream round-trips through
// EncodeEvents. Seeds include truncated and mid-line-cut streams, the
// shapes a tail reader sees while a writer is mid-append.
func FuzzDecodeEvents(f *testing.F) {
	var seed bytes.Buffer
	if err := EncodeEvents(&seed, HistoryToEvents(workload.WriteSkew().History)); err != nil {
		f.Fatal(err)
	}
	full := seed.String()
	f.Add(full)
	// Streaming truncations: cut mid-line, cut at a line boundary,
	// lose the final newline.
	f.Add(full[:len(full)/2])
	if i := strings.Index(full, "\n"); i >= 0 {
		f.Add(full[:i+1])
		f.Add(full[:i])
	}
	f.Add(strings.TrimSuffix(full, "\n"))
	f.Add("\n\n\n")
	f.Add(`{"seq":1,"ts":1,"kind":"begin","session":"s","tx":"s#1"}` + "\n")
	f.Add(`{"seq":1,"kind":"write","obj":"x","val":-9223372036854775808}` + "\n")
	f.Add(`{"seq":`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, in string) {
		evs, err := DecodeEvents(strings.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := EncodeEvents(&out, evs); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		evs2, err := DecodeEvents(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v\n%s", err, out.String())
		}
		if len(evs2) != len(evs) {
			t.Fatalf("round trip changed length: %d vs %d", len(evs2), len(evs))
		}
	})
}

// FuzzDecodePrograms checks decoder robustness for program sets.
func FuzzDecodePrograms(f *testing.F) {
	var seed bytes.Buffer
	if err := EncodePrograms(&seed, workload.Fig5Programs()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add(`{"programs":[{"pieces":[{"reads":["x"]}]}]}`)
	f.Add(`{`)
	f.Fuzz(func(t *testing.T, in string) {
		ps, err := DecodePrograms(strings.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := EncodePrograms(&out, ps); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if _, err := DecodePrograms(&out); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}

// FuzzDecodeApp checks decoder robustness for application specs.
func FuzzDecodeApp(f *testing.F) {
	var seed bytes.Buffer
	if err := EncodeApp(&seed, workload.WriteSkewApp()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add(`{"sessions":[{"txs":[{"writes":["x"]}]}]}`)
	f.Fuzz(func(t *testing.T, in string) {
		app, err := DecodeApp(strings.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := EncodeApp(&out, app); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if _, err := DecodeApp(&out); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}
