package engine

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestSnapRegistryWatermark(t *testing.T) {
	t.Parallel()
	var r snapRegistry
	var now atomic.Uint64
	now.Store(10)
	if w := r.watermark(now.Load()); w != 10 {
		t.Errorf("idle watermark = %d, want 10", w)
	}
	t1 := r.acquire(0, now.Load)
	now.Store(15)
	t2 := r.acquire(0, now.Load)
	if t1.snap != 10 || t2.snap != 15 {
		t.Fatalf("snaps = %d, %d", t1.snap, t2.snap)
	}
	if w := r.watermark(now.Load()); w != 10 {
		t.Errorf("watermark with live snaps = %d, want 10", w)
	}
	r.release(t1)
	if w := r.watermark(now.Load()); w != 15 {
		t.Errorf("watermark after release = %d, want 15", w)
	}
	r.release(t2)
	now.Store(20)
	if w := r.watermark(now.Load()); w != 20 {
		t.Errorf("watermark when idle again = %d, want 20", w)
	}
}

// TestSnapRegistryOverflow exhausts every slot: registrations beyond
// the array must still hold the watermark down. Epoch reclamation is
// conservative — an overflowed registration contributes its epoch
// floor, not its exact snapshot — so the watermark with live overflow
// tickets is the floor, and releasing everything frees it entirely.
func TestSnapRegistryOverflow(t *testing.T) {
	t.Parallel()
	var r snapRegistry
	var now atomic.Uint64
	now.Store(5)
	tickets := make([]snapTicket, 0, snapSlots+10)
	for i := 0; i < snapSlots+10; i++ {
		tickets = append(tickets, r.acquire(0, now.Load))
	}
	overflowed := 0
	for _, tk := range tickets {
		if tk.slot == nil {
			overflowed++
		}
	}
	if overflowed != 10 {
		t.Errorf("overflowed registrations = %d, want 10", overflowed)
	}
	now.Store(50)
	floor := uint64(5) >> epochShift << epochShift
	if w := r.watermark(now.Load()); w != floor {
		t.Errorf("watermark = %d, want the overflow epoch floor %d", w, floor)
	}
	for _, tk := range tickets {
		r.release(tk)
	}
	if w := r.watermark(now.Load()); w != 50 {
		t.Errorf("watermark after releasing all = %d, want 50", w)
	}
}

// TestSnapRegistryOverflowEpochs pins the epoch arithmetic: overflow
// registrations spread across distinct epochs each hold the watermark
// at their own epoch's floor, and releasing the older epoch advances
// the watermark to the next live one.
func TestSnapRegistryOverflowEpochs(t *testing.T) {
	t.Parallel()
	var r snapRegistry
	var now atomic.Uint64
	// Fill the fast path at a high snapshot so overflow dominates the
	// watermark.
	now.Store(10 * (1 << epochShift))
	var slotTickets []snapTicket
	for i := 0; i < snapSlots; i++ {
		slotTickets = append(slotTickets, r.acquire(0, now.Load))
	}
	old := r.acquire(0, now.Load) // epoch 10, floor 10<<shift
	now.Store(12*(1<<epochShift) + 3)
	young := r.acquire(0, now.Load) // epoch 12, floor 12<<shift
	if old.slot != nil || young.slot != nil {
		t.Fatal("expected overflow registrations")
	}
	if w := r.watermark(now.Load()); w != 10<<epochShift {
		t.Errorf("watermark = %d, want old epoch floor %d", w, 10<<epochShift)
	}
	r.release(old)
	if w := r.watermark(now.Load()); w != 10<<epochShift {
		// The slot tickets (snap 10<<shift) still hold it exactly there.
		t.Errorf("watermark = %d, want %d (slot tickets)", w, 10<<epochShift)
	}
	for _, tk := range slotTickets {
		r.release(tk)
	}
	if w := r.watermark(now.Load()); w != 12<<epochShift {
		t.Errorf("watermark = %d, want young epoch floor %d", w, 12<<epochShift)
	}
	r.release(young)
	if w := r.watermark(now.Load()); w != now.Load() {
		t.Errorf("watermark idle = %d, want %d", w, now.Load())
	}
}

// TestSnapRegistryOverflowConcurrent is the >snapSlots regression
// test for the overflow path: more than 512 concurrent registrations
// churn acquire/release while collectors scan, under -race. The
// safety property is the sentinel invariant: a watermark computed
// while a registration is live never exceeds that registration's
// snapshot — regardless of which path (slot or spill map) took the
// registration.
func TestSnapRegistryOverflowConcurrent(t *testing.T) {
	t.Parallel()
	var r snapRegistry
	var now atomic.Uint64
	now.Store(1)
	stop := make(chan struct{})
	var clockDone sync.WaitGroup
	clockDone.Add(1)
	go func() {
		defer clockDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
				now.Add(1)
			}
		}
	}()

	const sessions = snapSlots + 256 // force sustained overflow
	const rounds = 200
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tk := r.acquire(uint32(s), now.Load)
				if tk.snap > now.Load() {
					t.Errorf("snapshot %d above the clock", tk.snap)
				}
				if i%8 == 0 {
					// Interleave collector scans with held tickets: the
					// watermark must respect our own live registration.
					if w := r.watermark(now.Load()); w > tk.snap {
						t.Errorf("watermark %d above live snapshot %d", w, tk.snap)
					}
				}
				r.release(tk)
			}
		}()
	}
	wg.Wait()
	close(stop)
	clockDone.Wait()

	// Quiesced: no registrations left anywhere (every epoch word has
	// count zero, the spill map is empty), so the watermark is free.
	final := now.Load()
	if w := r.watermark(final); w != final {
		t.Errorf("idle watermark = %d, want %d (leaked registration?)", w, final)
	}
}

// TestSnapRegistryBeginGCRace hammers the acquire/watermark
// handshake: a ticket's snapshot must never fall below a watermark a
// concurrent collector already returned... the opposite — a collector
// must never return a watermark above a snapshot that was live when
// it scanned. The invariant checked: at release time, every watermark
// observed since the ticket was issued is ≤ the ticket's snapshot or
// was computed before the acquire. Conservatively we check that no
// watermark returned while the ticket is held exceeds its snapshot.
func TestSnapRegistryBeginGCRace(t *testing.T) {
	t.Parallel()
	var r snapRegistry
	var now atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Clock: advances continuously like the commit pipeline.
	var clockDone sync.WaitGroup
	clockDone.Add(1)
	go func() {
		defer clockDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
				now.Add(1)
			}
		}
	}()

	// Transactions: acquire, verify against the collector, release.
	var lowWater atomic.Uint64 // highest watermark any GC returned
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				tk := r.acquire(uint32(w), now.Load)
				// A watermark returned after our acquire can never
				// exceed our snapshot while we are live. lowWater is
				// monotone, so reading it now bounds every earlier GC;
				// GCs that ran entirely before our acquire may have
				// higher values, which is why the collector asserts,
				// not the transaction. Here we only exercise churn.
				if tk.snap > now.Load() {
					t.Errorf("snapshot %d above the clock", tk.snap)
				}
				r.release(tk)
			}
		}()
	}

	// Collector: every watermark must be ≥ the previous one is not
	// guaranteed (snapshots can hold it down), but it must never
	// exceed the clock, and — the safety property — never exceed a
	// snapshot acquired before the scan and still held. We verify
	// safety by registering our own sentinel ticket.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3000; i++ {
			sentinel := r.acquire(0, now.Load)
			w := r.watermark(now.Load())
			if w > sentinel.snap {
				t.Errorf("watermark %d above live sentinel snapshot %d", w, sentinel.snap)
			}
			if prev := lowWater.Load(); w > prev {
				lowWater.CompareAndSwap(prev, w)
			}
			r.release(sentinel)
		}
	}()

	wg.Wait()
	close(stop)
	clockDone.Wait()
}
