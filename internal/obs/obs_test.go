package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestCounterConcurrent hammers one counter series from many
// goroutines, re-resolving the series through the registry on every
// increment to exercise the registration path under -race as well.
func TestCounterConcurrent(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				reg.Counter("hits_total", L("kind", "test")).Inc()
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("hits_total", L("kind", "test")).Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	t.Parallel()
	var c Counter
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5 (negative adds ignored)", got)
	}
}

func TestGaugeConcurrent(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	g := reg.Gauge("level")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0 after balanced adds", got)
	}
	g.Set(42)
	if got := g.Value(); got != 42 {
		t.Errorf("gauge = %d, want 42", got)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines
// and checks count, sum and bucket totals afterwards.
func TestHistogramConcurrent(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	h := reg.Histogram("lat_ns")
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(seed + int64(i)%97)
			}
		}(int64(w))
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("count = %d, want %d", got, workers*perWorker)
	}
	var bucketTotal int64
	for _, n := range h.snapshotBuckets() {
		bucketTotal += n
	}
	if bucketTotal != h.Count() {
		t.Errorf("bucket total = %d, count = %d; want equal", bucketTotal, h.Count())
	}
}

func TestHistogramBuckets(t *testing.T) {
	t.Parallel()
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 1000, -7} {
		h.Observe(v)
	}
	// Expected bucket layout: bits.Len64 of 0,1,2,3,4,1000,0(clamped).
	want := map[int]int64{0: 2, 1: 1, 2: 2, 3: 1, 10: 1}
	got := h.snapshotBuckets()
	for i, n := range got {
		if n != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, n, want[i])
		}
	}
	if h.Sum() != 0+1+2+3+4+1000+0 {
		t.Errorf("sum = %d, want 1010", h.Sum())
	}
}

func TestHistogramQuantile(t *testing.T) {
	t.Parallel()
	var h Histogram
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("empty histogram p50 = %v, want 0", q)
	}
	// 100 observations of 1000: every quantile lands in bucket 10
	// (512..1023).
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if got < 512 || got > 1023 {
			t.Errorf("p%v = %v, want within bucket [512, 1023]", q*100, got)
		}
	}
	// Add 900 tiny observations; p50 must drop to the tiny bucket
	// while p99 stays high.
	for i := 0; i < 900; i++ {
		h.Observe(1)
	}
	if p50 := h.Quantile(0.5); p50 > 1 {
		t.Errorf("p50 = %v, want ≤ 1 after 900 tiny observations", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 512 {
		t.Errorf("p99 = %v, want ≥ 512", p99)
	}
}

func TestBucketUpperBound(t *testing.T) {
	t.Parallel()
	cases := map[int]int64{0: 0, 1: 1, 2: 3, 3: 7, 10: 1023, 63: 1<<63 - 1, 64: 1<<63 - 1}
	for i, want := range cases {
		if got := BucketUpperBound(i); got != want {
			t.Errorf("BucketUpperBound(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestNilSafety checks every hot-path method is a no-op on nil
// receivers, so instrumented code can skip "is obs enabled?" branches.
func TestNilSafety(t *testing.T) {
	t.Parallel()
	var c *Counter
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Error("nil counter should read 0")
	}
	var g *Gauge
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Error("nil gauge should read 0")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram should read 0")
	}
	var reg *Registry
	reg.Counter("x").Inc()
	reg.Gauge("y").Set(1)
	reg.Histogram("z").Observe(1)
	if err := reg.WritePrometheus(nil); err != nil {
		t.Errorf("nil registry export: %v", err)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Error("registering the same series as two kinds should panic")
		}
	}()
	reg := NewRegistry()
	reg.Counter("m")
	reg.Histogram("m")
}

// TestSampledSeries: a CounterFunc or GaugeFunc series exports its
// sample's value at each export, in both formats, keeps the sample it
// was first registered with, and hands out no counter of its own.
func TestSampledSeries(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	n := int64(3)
	reg.CounterFunc("kept_total", func() int64 { return n }, L("ring", "a"))
	reg.CounterFunc("kept_total", func() int64 { return -1 }, L("ring", "a"))
	reg.GaugeFunc("held", func() int64 { return 2 * n })
	reg.Counter("kept_total", L("ring", "a")).Add(100) // a no-op: the series is sampled
	n = 5
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE held gauge\nheld 10\n# TYPE kept_total counter\nkept_total{ring=\"a\"} 5\n"
	if text.String() != want {
		t.Errorf("Prometheus:\n%s\nwant:\n%s", text.String(), want)
	}
	for _, m := range reg.Snapshot() {
		if m.Value == nil || *m.Value != map[string]int64{"held": 10, "kept_total": 5}[m.Name] {
			t.Errorf("JSON %s = %v", m.Name, m.Value)
		}
	}
	var nilReg *Registry
	nilReg.CounterFunc("x_total", func() int64 { return 1 })
	nilReg.GaugeFunc("x", func() int64 { return 1 })
}
