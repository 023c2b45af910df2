package obs

import (
	"bytes"
	"sync"
	"testing"
	"unsafe"
)

// TestStripeLayout: the cells of two stripes are 64 bytes apart, word
// for word, so updates of different stripes never write a common cache
// line, however the series is aligned.
func TestStripeLayout(t *testing.T) {
	if n := unsafe.Sizeof(cell{}); n < 64 {
		t.Errorf("a counter cell is %d bytes, want at least 64", n)
	}
	var s histStripe
	last := max(unsafe.Offsetof(s.sum), unsafe.Offsetof(s.count), unsafe.Offsetof(s.buckets)+unsafe.Sizeof(s.buckets)-8)
	if gap := unsafe.Sizeof(s) - last; gap < 64 {
		t.Errorf("a histogram stripe's last word is %d bytes before the next stripe, want at least 64", gap)
	}
}

// TestStripedMatchesOneStripe: updates spread over the stripes by
// concurrent AddAt and ObserveAt read back exactly as the same updates
// made through Add and Observe, which use stripe 0 only: Value, Count,
// Sum, Quantile, the Prometheus text and the JSON export. Exemplars
// recorded on both afterwards export the same. Exports run while the
// updates do. Meant for -race.
func TestStripedMatchesOneStripe(t *testing.T) {
	t.Parallel()
	const workers, per = 6, 4000
	value := func(w, i int) int64 { return int64((w*7919 + i*104729) % 1_000_003) }
	striped, ref := NewRegistry(), NewRegistry()
	c, h := striped.Counter("ops_total", L("k", "v")), striped.Histogram("lat_ns", L("k", "v"))
	rc, rh := ref.Counter("ops_total", L("k", "v")), ref.Histogram("lat_ns", L("k", "v"))

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.AddAt(w-i, int64(i%3)) // negative stripes too
				h.ObserveAt(3*w+i, value(w, i))
			}
		}(w)
	}
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b bytes.Buffer
			if err := striped.WritePrometheus(&b); err != nil {
				t.Error(err)
			}
			striped.Snapshot()
		}
	}()
	for w := 0; w < workers; w++ {
		for i := 0; i < per; i++ {
			rc.Add(int64(i % 3))
			rh.Observe(value(w, i))
		}
	}
	wg.Wait()
	close(stop)
	<-scraped
	for _, x := range []*Histogram{h, rh} {
		x.ObserveExemplar(12_345, 0xabc)
		x.ObserveExemplar(7, 0xdef)
	}

	used := 0
	for i := range c.cells {
		if c.cells[i].v.Load() != 0 {
			used++
		}
	}
	if used != Stripes {
		t.Errorf("updates reached %d of %d counter stripes", used, Stripes)
	}
	if c.Value() != rc.Value() {
		t.Errorf("Value = %d, one stripe %d", c.Value(), rc.Value())
	}
	if h.Count() != rh.Count() || h.Sum() != rh.Sum() {
		t.Errorf("Count, Sum = %d, %d; one stripe %d, %d", h.Count(), h.Sum(), rh.Count(), rh.Sum())
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if a, b := h.Quantile(q), rh.Quantile(q); a != b {
			t.Errorf("Quantile(%v) = %v, one stripe %v", q, a, b)
		}
	}
	var a, b bytes.Buffer
	if err := striped.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := ref.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("Prometheus text differs:\n%s\none stripe:\n%s", a.String(), b.String())
	}
	a.Reset()
	b.Reset()
	if err := striped.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := ref.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("JSON export differs:\n%s\none stripe:\n%s", a.String(), b.String())
	}
	if !bytes.Contains(a.Bytes(), []byte(`"exemplar_trace_id": "0000000000000abc"`)) {
		t.Errorf("JSON export lost the exemplar:\n%s", a.String())
	}
}
