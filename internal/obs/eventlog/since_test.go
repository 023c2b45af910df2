package eventlog

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// tail polls rec through Since the way a live /events client does and
// checks the cursor contract on every poll: the seqs returned lie in
// (after, upto] in increasing order, never repeat, and upto never goes
// back.
type tail struct {
	t         *testing.T
	rec       *Recorder
	cursor    int64
	delivered []int64
	lost      int64
}

func (tl *tail) poll() {
	tl.t.Helper()
	evs, upto := tl.rec.Since(tl.cursor)
	if upto < tl.cursor {
		tl.t.Fatalf("upto %d below the cursor %d", upto, tl.cursor)
	}
	last := tl.cursor
	for _, ev := range evs {
		if ev.Seq <= last || ev.Seq > upto {
			tl.t.Fatalf("seq %d after %d, outside (%d, %d] or out of order", ev.Seq, last, tl.cursor, upto)
		}
		last = ev.Seq
		tl.delivered = append(tl.delivered, ev.Seq)
	}
	tl.lost += upto - tl.cursor - int64(len(evs))
	tl.cursor = upto
}

// TestSinceLiveTailOrder: on a ring that overwrites nothing a tail gets
// every event once, in Seq order, and loses none.
func TestSinceLiveTailOrder(t *testing.T) {
	t.Parallel()
	rec := NewRecorder(64)
	tl := &tail{t: t, rec: rec}
	for round := 0; round < 3; round++ {
		for i := 0; i < 5; i++ {
			rec.Record(Event{Kind: Write, Session: fmt.Sprintf("s%d", i), TxID: "t"})
		}
		tl.poll()
	}
	tl.poll() // nothing new: nothing returned, the cursor stays
	if len(tl.delivered) != 15 || tl.lost != 0 || tl.cursor != 15 {
		t.Fatalf("delivered %v, lost %d, cursor %d; want seqs 1..15, none lost", tl.delivered, tl.lost, tl.cursor)
	}
	if evs, upto := rec.Since(math.MaxInt64); len(evs) != 0 || upto != 15 {
		t.Errorf("Since(MaxInt64) = %d events, upto %d; want none, 15 (the head)", len(evs), upto)
	}
}

// TestSubscribeNilRecorder: a live tail of a nil recorder, from any
// cursor, gets nothing, loses nothing and keeps its cursor.
func TestSubscribeNilRecorder(t *testing.T) {
	t.Parallel()
	var rec *Recorder
	for _, after := range []int64{0, 7, math.MaxInt64} {
		if evs, upto := rec.Since(after); evs != nil || upto != after {
			t.Errorf("nil Since(%d) = %v, %d; want nothing and no loss", after, evs, upto)
		}
	}
	tl := &tail{t: t, rec: rec, cursor: 7}
	tl.poll()
	if len(tl.delivered) != 0 || tl.lost != 0 || tl.cursor != 7 {
		t.Errorf("nil tail delivered %v, lost %d, cursor %d; want none, 0, 7", tl.delivered, tl.lost, tl.cursor)
	}
}

// TestSinceReportsOverwrites: a tail of a ring that overwrites, polling
// between bursts of random size, loses exactly the events the ring
// dropped before the tail reached them. Every drop is either such a
// loss or an event the tail had delivered, so Dropped() = lost +
// delivered-then-overwritten; and a tail whose cursor starts at 0
// reports the whole growth of Dropped() as its loss.
func TestSinceReportsOverwrites(t *testing.T) {
	t.Parallel()
	rec := NewRecorder(shardCount * 4)
	rng := rand.New(rand.NewSource(5))
	tl := &tail{t: t, rec: rec}
	for round := 0; round < 200; round++ {
		for i := rng.Intn(80); i > 0; i-- {
			rec.Record(Event{Kind: Write, Session: fmt.Sprintf("s%d", rng.Intn(11)), TxID: "t"})
		}
		tl.poll()
	}
	if int64(len(tl.delivered))+tl.lost != rec.Recorded() {
		t.Fatalf("delivered %d + lost %d != recorded %d", len(tl.delivered), tl.lost, rec.Recorded())
	}
	retained := map[int64]bool{}
	for _, ev := range rec.Events() {
		retained[ev.Seq] = true
	}
	overwrittenAfterDelivery := int64(0)
	for _, seq := range tl.delivered {
		if !retained[seq] {
			overwrittenAfterDelivery++
		}
	}
	if tl.lost == 0 || rec.Dropped() != tl.lost+overwrittenAfterDelivery {
		t.Errorf("Dropped %d != lost %d + delivered then overwritten %d", rec.Dropped(), tl.lost, overwrittenAfterDelivery)
	}

	fresh := NewRecorder(shardCount * 4)
	for i := 0; i < 500; i++ {
		fresh.Record(Event{Kind: Write, Session: fmt.Sprintf("s%d", rng.Intn(11)), TxID: "t"})
	}
	late := &tail{t: t, rec: fresh}
	late.poll()
	if late.lost != fresh.Dropped() || late.lost == 0 {
		t.Errorf("a tail from 0 lost %d, Dropped() grew by %d", late.lost, fresh.Dropped())
	}
}

// TestSinceConcurrentRecord: a tail polls while eight sessions record
// at once (the race detector checks Since against Record); every seq
// is delivered once, in order, or counted lost.
func TestSinceConcurrentRecord(t *testing.T) {
	t.Parallel()
	const workers, each = 8, 2000
	rec := NewRecorder(512)
	tl := &tail{t: t, rec: rec}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec.Record(Event{Kind: Write, Session: fmt.Sprintf("s%d", w), TxID: "t"})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		tl.poll()
	}
	if tl.cursor != workers*each || int64(len(tl.delivered))+tl.lost != workers*each {
		t.Fatalf("cursor %d, delivered %d + lost %d; want %d", tl.cursor, len(tl.delivered), tl.lost, workers*each)
	}
}
