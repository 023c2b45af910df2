package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantileAndMedian(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}} {
		if got := quantile(s, c.q); !near(got, c.want) {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5 (input must not need sorting)", got)
	}
}

// TestSpreadMatchesPython pins spread to the contract's definition:
// statistics.quantiles(xs, n=4), third minus first quartile, over the
// median. The expected values were computed with Python.
func TestSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 12, 11, 13, 9}, (12.5 - 9.5) / 11},
		{[]float64{5, 5}, 0},
		{[]float64{7}, 0},
	} {
		if got := spread(c.xs); !near(got, c.want) {
			t.Errorf("spread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100_000, 0.99}, // plenty beyond p99
		{1000, 0.99},    // exactly ten beyond
		{200, 0.95},     // p99 would leave two samples: report p95
		{15, 0.5},       // 1-10/15 is below the median: report the median
		{5, 0.5},
	} {
		if got := tailQuantile(c.n, 0.99); !near(got, c.want) {
			t.Errorf("tailQuantile(%d, 0.99) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestMedianOfWindows: one window with a stall must not move the
// reported percentile, which is the median across windows.
func TestMedianOfWindows(t *testing.T) {
	steady := func() []uint32 {
		w := make([]uint32, 2000)
		for i := range w {
			w[i] = uint32(1000 + i) // 1000..2999 ns
		}
		return w
	}
	stalled := steady()
	for i := 1900; i < 2000; i++ {
		stalled[i] = 5_000_000 // 5 % of one window took 5 ms
	}
	w := windowed{steady(), stalled, steady(), nil} // the empty window is skipped
	per, n, used := w.percentiles(0.99)
	if len(per) != 3 || n != 6000 || used != 0.99 {
		t.Fatalf("got %d windows, %d samples, quantile %v; want 3, 6000, 0.99", len(per), n, used)
	}
	if want := quantile(toFloats(steady()), 0.99); !near(median(per), want) {
		t.Errorf("median of window p99s = %v, want the steady windows' %v", median(per), want)
	}
	if per[1] < 1e6 {
		t.Errorf("the stalled window's own p99 = %v, want it to show the stall", per[1])
	}

	small := windowed{make([]uint32, 200)}
	if _, _, used := small.percentiles(0.99); !near(used, 0.95) {
		t.Errorf("a 200-sample window used quantile %v, want 0.95", used)
	}
}

// TestMeanMetric: the reported mean is the median across windows of the
// window means, in microseconds; a stalled window shows in the pooled
// mean only.
func TestMeanMetric(t *testing.T) {
	w := windowed{{1000, 3000}, {2000, 4000}, nil, {1000, 5_000_000}}
	m, ok := w.meanMetric()
	if !ok || m.Samples != 6 || len(m.Windows) != 3 {
		t.Fatalf("got %+v, %v; want 6 samples in 3 windows", m, ok)
	}
	if !near(m.Value, 3) {
		t.Errorf("mean = %v us, want the middle window's 3", m.Value)
	}
	if want := (1 + 3 + 2 + 4 + 1 + 5000) / 6.0; !near(m.Pooled, want) {
		t.Errorf("pooled mean = %v us, want %v", m.Pooled, want)
	}
	if _, ok := (windowed{nil, {}}).meanMetric(); ok {
		t.Error("an empty sample has a mean")
	}
}

func toFloats(xs []uint32) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func TestMergeWindows(t *testing.T) {
	got := mergeWindows(windowed{{1}, {2, 3}}, windowed{{4}, nil, {5}})
	want := windowed{{1, 4}, {2, 3}, {5}}
	if len(got) != len(want) {
		t.Fatalf("merged into %d windows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("window %d = %v, want %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("window %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
}
