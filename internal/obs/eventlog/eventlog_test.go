package eventlog

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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

// TestRingDropsOldestPerShard: a recorder filled far past its capacity
// by sessions spread over every shard keeps, per shard, exactly the
// newest capacity/8 events and counts every other one as dropped — the
// events a ring allocated whole up front kept and dropped — whether
// its rings are still growing, just full or long wrapped.
func TestRingDropsOldestPerShard(t *testing.T) {
	t.Parallel()
	const capacity = shardCount * 100
	r := NewRecorder(capacity)
	rng := rand.New(rand.NewSource(3))
	var kept [shardCount][]int64 // the reference: the newest seqs per shard
	dropped := int64(0)
	for seq := int64(1); seq <= 5000; seq++ {
		sess := fmt.Sprintf("s%d", rng.Intn(13))
		r.Record(Event{Kind: Write, Session: sess, TxID: "t", Obj: "x"})
		sh := shardOf(sess)
		if kept[sh] = append(kept[sh], seq); len(kept[sh]) > capacity/shardCount {
			kept[sh] = kept[sh][1:]
			dropped++
		}
		if seq%97 != 0 && seq != 5000 {
			continue
		}
		var want []int64
		for _, k := range kept {
			want = append(want, k...)
		}
		slices.Sort(want)
		evs := r.Events()
		got := make([]int64, len(evs))
		for i, ev := range evs {
			got[i] = ev.Seq
		}
		if !slices.Equal(got, want) || r.Len() != len(want) || r.Dropped() != dropped {
			t.Fatalf("after %d events: kept %v (Len %d), dropped %d; want %v, dropped %d",
				seq, got, r.Len(), r.Dropped(), want, dropped)
		}
	}
	if dropped == 0 {
		t.Fatal("the recorder never filled")
	}
}

// TestRecorderAllocatesWhatItHolds: a default-capacity recorder holding
// a handful of events allocates one small ring, not the 6.8 MB of
// slots its capacity allows. It reads the heap statistics, so it does
// not run in parallel.
func TestRecorderAllocatesWhatItHolds(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewRecorder(DefaultCapacity)
	for i := 0; i < 10; i++ {
		r.Record(Event{Kind: Begin, Session: "s", TxID: "t"})
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 32<<10 {
		t.Fatalf("recording 10 events allocated %d B, want ≤ 32 KiB", got)
	}
	if r.Len() != 10 || r.Dropped() != 0 {
		t.Fatalf("Len %d, Dropped %d; want 10, 0", r.Len(), r.Dropped())
	}
}
