package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile
// for it to mean anything (choosing-metrics §1).
const minTail = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between the two nearest ranks; 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median sorts a copy of xs and returns its middle.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailQuantile is the highest quantile not above want that still has
// minTail samples beyond it in a sample of n: p99 needs 1000 samples,
// a 200-sample window reports p95. A window of at most minTail samples
// can only report its median.
func tailQuantile(n int, want float64) float64 {
	if n <= minTail {
		return 0.5
	}
	if q := 1 - float64(minTail)/float64(n); q < want {
		return math.Max(q, 0.5)
	}
	return want
}

// spread is the interquartile range of xs as a share of its median —
// the steadiness figure the benchmark contract and -compare both use.
// It follows Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), and is 0 for fewer than two values or a zero median.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return math.Abs((cut(3) - cut(1)) / med)
}

// windowed is a latency sample cut into measurement windows.
type windowed [][]uint32 // nanoseconds, one slice per window

// percentiles returns, for each non-empty window, the q-quantile
// (lowered per tailQuantile) in nanoseconds, plus the pooled sample
// count and the lowest quantile actually used.
func (w windowed) percentiles(q float64) (perWindow []float64, samples int, used float64) {
	used = q
	for _, win := range w {
		if len(win) == 0 {
			continue
		}
		samples += len(win)
		s := make([]float64, len(win))
		for i, v := range win {
			s[i] = float64(v)
		}
		sort.Float64s(s)
		wq := tailQuantile(len(s), q)
		used = math.Min(used, wq)
		perWindow = append(perWindow, quantile(s, wq))
	}
	return perWindow, samples, used
}

// latencyMetric reports the q-quantile of a windowed latency sample in
// microseconds: the median across windows of each window's quantile,
// so that one scheduler stall cannot move it. ok is false for an empty
// sample.
func (w windowed) latencyMetric(q float64) (m metric, ok bool) {
	per, n, used := w.percentiles(q)
	if n == 0 {
		return metric{}, false
	}
	for i := range per {
		per[i] /= 1e3
	}
	pooled, _, _ := windowed{slices.Concat(w...)}.percentiles(q)
	m = metric{Value: median(per), Unit: "us", Windows: per, Samples: n, Pooled: pooled[0] / 1e3}
	if used < q {
		m.Note = fmt.Sprintf("p%.4g: the highest percentile with %d samples beyond it in every window", used*100, minTail)
	}
	return m, true
}

// meanMetric reports the mean of a windowed latency sample in
// microseconds: the median across windows of each window's mean. Where
// the distribution has two modes and its median sits on the step between
// them (wire_volatile), the median moves by tens of percent with the
// modes' mix from second to second, and the mean by that mix's share of
// the step. ok is false for an empty sample.
func (w windowed) meanMetric() (m metric, ok bool) {
	var per []float64
	var sum float64
	for _, win := range w {
		if len(win) == 0 {
			continue
		}
		var s float64
		for _, v := range win {
			s += float64(v)
		}
		per = append(per, s/float64(len(win))/1e3)
		sum += s
		m.Samples += len(win)
	}
	if m.Samples == 0 {
		return metric{}, false
	}
	m.Value, m.Unit, m.Windows, m.Pooled = median(per), "us", per, sum/float64(m.Samples)/1e3
	return m, true
}

// mergeWindows concatenates window i of every input into window i of
// the result.
func mergeWindows(parts ...windowed) windowed {
	n := 0
	for _, p := range parts {
		n = max(n, len(p))
	}
	out := make(windowed, n)
	for _, p := range parts {
		for i, win := range p {
			out[i] = append(out[i], win...)
		}
	}
	return out
}
