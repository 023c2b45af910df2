package eventlog

import (
	"fmt"
	"sync"
	"testing"
)

func TestKindStringRoundTrip(t *testing.T) {
	t.Parallel()
	for _, k := range []Kind{Begin, Read, Write, Commit, Abort, Conflict} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind(bogus) should fail")
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	t.Parallel()
	var r *Recorder
	r.Record(Event{Kind: Begin})
	if r.Events() != nil || r.Len() != 0 || r.Recorded() != 0 || r.Dropped() != 0 {
		t.Error("nil recorder should report nothing")
	}
}

func TestRecordAssignsSeqAndTS(t *testing.T) {
	t.Parallel()
	r := NewRecorder(64)
	r.Record(Event{Kind: Begin, Session: "s1", TxID: "s1#1"})
	r.Record(Event{Kind: Commit, Session: "s1", TxID: "s1#1", Name: "s1/1", TS: 42})
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Errorf("seqs = %d, %d, want 1, 2", evs[0].Seq, evs[1].Seq)
	}
	if evs[0].TS == 0 {
		t.Error("zero TS should be stamped with the current time")
	}
	if evs[1].TS != 42 {
		t.Errorf("explicit TS overwritten: %d", evs[1].TS)
	}
}

func TestRingOverwriteKeepsNewest(t *testing.T) {
	t.Parallel()
	// One session → one shard of capacity 64/shardCount = 8.
	r := NewRecorder(64)
	for i := 0; i < 100; i++ {
		r.Record(Event{Kind: Write, Session: "only", TxID: "t", Obj: "x"})
	}
	if r.Recorded() != 100 {
		t.Errorf("recorded = %d, want 100", r.Recorded())
	}
	if r.Dropped() != 92 {
		t.Errorf("dropped = %d, want 92", r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 8 || r.Len() != 8 {
		t.Fatalf("retained = %d (Len %d), want 8", len(evs), r.Len())
	}
	for i, ev := range evs {
		if want := int64(93 + i); ev.Seq != want {
			t.Errorf("event %d seq = %d, want %d (newest retained)", i, ev.Seq, want)
		}
	}
}

func TestConcurrentRecord(t *testing.T) {
	t.Parallel()
	const (
		workers = 8
		each    = 2000
	)
	r := NewRecorder(workers * each)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := fmt.Sprintf("s%d", w)
			for i := 0; i < each; i++ {
				r.Record(Event{Kind: Write, Session: sess, TxID: "t", Obj: "x"})
			}
		}(w)
	}
	wg.Wait()
	if r.Recorded() != workers*each {
		t.Fatalf("recorded = %d, want %d", r.Recorded(), workers*each)
	}
	evs := r.Events()
	seen := make(map[int64]bool, len(evs))
	for i, ev := range evs {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
		if i > 0 && evs[i-1].Seq >= ev.Seq {
			t.Fatalf("events not sorted by seq at %d", i)
		}
	}
	// Sessions spread over shards; with uniform load nothing needed
	// overwriting more than its shard's share.
	if int64(len(evs))+r.Dropped() != int64(workers*each) {
		t.Errorf("retained %d + dropped %d != recorded %d", len(evs), r.Dropped(), workers*each)
	}
}
