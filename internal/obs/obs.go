// Package obs is the observability substrate of the module: counters,
// gauges and latency histograms behind a small registry, and
// Prometheus-text / JSON exporters. Spans live in internal/obs/txtrace.
//
// The design goals, in order:
//
//  1. Allocation-free hot path. Counter.Add and Gauge.Set are one
//     atomic operation, Histogram.Observe three (bucket, sum, count),
//     on pre-registered series; registration (which allocates and
//     takes a lock) happens once, after which callers hold the series
//     pointer.
//  2. Safe under heavy concurrency, and shared by cores without
//     contention. All mutation is atomic; the registry lock is taken
//     only at registration and export time. Counters and histograms are
//     striped: each holds Stripes cells on cache lines of their own,
//     AddAt and ObserveAt write only the cell of the stripe the caller
//     names (Add and Observe write stripe 0), and reads, Quantile and
//     the exporters sum the cells. A caller that owns a stripe (the
//     engine gives each session one) updates a series without writing
//     a line any other stripe's caller reads or writes.
//  3. Nil-tolerant. Every method on a nil *Counter, *Gauge,
//     *Histogram or *Registry is a no-op, so instrumented code needs no
//     "is observability enabled?" branches.
//
// Histograms use fixed log-scale (power-of-two) buckets: a value v ≥ 0
// lands in bucket bits.Len64(v), i.e. bucket i covers [2^(i-1), 2^i).
// This gives full int64 range with 64 fixed buckets, no configuration,
// and constant-time observation — the same trick HdrHistogram and the
// Prometheus native histograms build on.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key=value dimension of a metric series (for example
// engine="SI" or stage="validate").
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Stripes is the number of cells a Counter or Histogram spreads its
// updates over. Callers pass a stripe to AddAt and ObserveAt; any int
// is valid, reduced modulo Stripes.
const Stripes = 8

// stripeOf reduces a caller's stripe to a cell index.
func stripeOf(stripe int) int { return int(uint(stripe) % Stripes) }

// cell is one counter stripe. The padding keeps the counts of two
// stripes 64 bytes apart, so they never share a cache line.
type cell struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing counter, striped (see
// Stripes).
type Counter struct {
	cells [Stripes]cell
}

// Inc adds one.
func (c *Counter) Inc() { c.AddAt(0, 1) }

// Add adds n to stripe 0 (negative n is ignored; counters only go up).
func (c *Counter) Add(n int64) { c.AddAt(0, n) }

// AddAt adds n to the given stripe's cell.
func (c *Counter) AddAt(stripe int, n int64) {
	if c == nil || n < 0 {
		return
	}
	c.cells[stripeOf(stripe)].v.Add(n)
}

// Value returns the current count, the sum of the cells (0 on a nil
// counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var n int64
	for i := range c.cells {
		n += c.cells[i].v.Load()
	}
	return n
}

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// numBuckets is fixed: bucket i holds values v with bits.Len64(v) == i,
// so bucket 0 is exactly {0} and bucket 63 covers [2^62, 2^63).
const numBuckets = 64

// Histogram is a fixed log-scale (power-of-two bucket) histogram of
// non-negative int64 observations, striped (see Stripes): each stripe
// has its own buckets, sum and count. Observation is one atomic add
// per bucket/sum/count of one stripe — allocation-free and lock-free.
// Each bucket can additionally carry one exemplar (the latest traced
// observation that landed in it), linking a latency bucket to a
// resolvable trace ID.
type Histogram struct {
	stripes   [Stripes]histStripe
	exemplars [numBuckets]atomic.Pointer[Exemplar]
}

// histStripe is one stripe of a Histogram. The padding keeps the last
// word of one stripe 64 bytes from the first of the next, so two
// stripes never share a cache line.
type histStripe struct {
	buckets    [numBuckets]atomic.Int64
	sum, count atomic.Int64
	_          [64]byte
}

// Exemplar is one concrete traced observation attached to a histogram
// bucket: the observed value and the trace ID that produced it.
type Exemplar struct {
	Value   int64
	TraceID uint64
	UnixNS  int64
}

// Observe records v in stripe 0. Negative values clamp to 0.
func (h *Histogram) Observe(v int64) { h.ObserveAt(0, v) }

// ObserveAt records v in the given stripe. Negative values clamp to 0.
func (h *Histogram) ObserveAt(stripe int, v int64) {
	if h == nil {
		return
	}
	h.observe(stripe, v)
}

// observe records v in stripe and returns its bucket.
func (h *Histogram) observe(stripe int, v int64) int {
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v))
	st := &h.stripes[stripeOf(stripe)]
	st.buckets[i].Add(1)
	st.sum.Add(v)
	st.count.Add(1)
	return i
}

// ObserveExemplar records v like Observe and, when traceID is non-zero,
// replaces the containing bucket's exemplar with (v, traceID). Unlike
// Observe it allocates (one Exemplar per call) — callers use it only on
// the traced path, keeping the untraced hot path allocation-free.
func (h *Histogram) ObserveExemplar(v int64, traceID uint64) {
	if h == nil {
		return
	}
	i := h.observe(0, v)
	if traceID != 0 {
		h.exemplars[i].Store(&Exemplar{Value: max(v, 0), TraceID: traceID, UnixNS: time.Now().UnixNano()})
	}
}

// BucketExemplar returns bucket i's exemplar, or nil when the bucket
// has none (or on a nil histogram / out-of-range index).
func (h *Histogram) BucketExemplar(i int) *Exemplar {
	if h == nil || i < 0 || i >= numBuckets {
		return nil
	}
	return h.exemplars[i].Load()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.stripes {
		n += h.stripes[i].count.Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.stripes {
		n += h.stripes[i].sum.Load()
	}
	return n
}

// BucketUpperBound returns the inclusive upper bound of bucket i:
// 0 for bucket 0, 2^i − 1 otherwise.
func BucketUpperBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return 1<<63 - 1
	}
	return 1<<uint(i) - 1
}

// BucketLowerBound returns the smallest value landing in bucket i:
// 0 for bucket 0, 2^(i-1) otherwise. Together with BucketUpperBound it
// gives external consumers the exact bucket edges, so quantiles can be
// re-derived from an exported snapshot (empty buckets are elided in
// the JSON export, which makes the lower edge non-derivable from the
// neighbouring entries alone).
func BucketLowerBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1 << uint(i-1)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observations,
// linearly interpolated within the containing bucket. It returns 0
// when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	buckets := h.snapshotBuckets()
	var total int64
	for _, n := range buckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, n := range buckets {
		if n == 0 {
			continue
		}
		if cum+float64(n) >= rank {
			lo, hi := float64(BucketLowerBound(i)), float64(BucketUpperBound(i))
			if n == 0 || hi <= lo {
				return hi
			}
			frac := (rank - cum) / float64(n)
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(hi-lo)
		}
		cum += float64(n)
	}
	return float64(BucketUpperBound(numBuckets - 1))
}

// snapshotBuckets returns the per-bucket counts, summed over the
// stripes.
func (h *Histogram) snapshotBuckets() [numBuckets]int64 {
	var out [numBuckets]int64
	for s := range h.stripes {
		for i := range out {
			out[i] += h.stripes[s].buckets[i].Load()
		}
	}
	return out
}

// metricKind discriminates the registry's series types.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one registered (name, labels) pair.
type series struct {
	name   string
	labels []Label
	kind   metricKind

	counter   *Counter
	gauge     *Gauge
	histogram *Histogram
	// sample, set on a sampled series, is its value at export time.
	sample func() int64
}

// value is a counter's or gauge's exported value.
func (s *series) value() int64 {
	switch {
	case s.sample != nil:
		return s.sample()
	case s.kind == kindCounter:
		return s.counter.Value()
	}
	return s.gauge.Value()
}

// Registry holds named metric series. The zero value is not usable;
// create with NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	byKey  map[string]*series
	series []*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*series)}
}

// seriesKey is the canonical identity of a series: name plus labels in
// the order given (callers must use a consistent label order, as the
// instrumentation sites in this module do).
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// lookup registers or fetches a series, enforcing kind consistency. A
// series registered with a non-nil sample is sampled and holds no
// counter or gauge of its own; a series keeps the sample it was first
// registered with.
func (r *Registry) lookup(name string, kind metricKind, labels []Label, sample func() int64) *series {
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byKey[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: series %s already registered as %v, requested as %v", key, s.kind, kind))
		}
		return s
	}
	s := &series{name: name, labels: append([]Label(nil), labels...), kind: kind, sample: sample}
	switch {
	case sample != nil:
	case kind == kindCounter:
		s.counter = &Counter{}
	case kind == kindGauge:
		s.gauge = &Gauge{}
	default:
		s.histogram = &Histogram{}
	}
	r.byKey[key] = s
	r.series = append(r.series, s)
	return s
}

// Counter registers (or fetches) the counter series with the given
// name and labels. Safe to call repeatedly; the same pointer is
// returned each time. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindCounter, labels, nil).counter
}

// CounterFunc registers a counter series whose value is sample's result
// at export time: a count another component keeps, read when scraped.
func (r *Registry) CounterFunc(name string, sample func() int64, labels ...Label) {
	if r != nil {
		r.lookup(name, kindCounter, labels, sample)
	}
}

// GaugeFunc registers a gauge series sampled at export time.
func (r *Registry) GaugeFunc(name string, sample func() int64, labels ...Label) {
	if r != nil {
		r.lookup(name, kindGauge, labels, sample)
	}
}

// Gauge registers (or fetches) the gauge series. A nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindGauge, labels, nil).gauge
}

// Histogram registers (or fetches) the histogram series. A nil
// registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindHistogram, labels, nil).histogram
}

// sortedSeries returns the series sorted by (name, label key) for
// deterministic export.
func (r *Registry) sortedSeries() []*series {
	r.mu.Lock()
	out := make([]*series, len(r.series))
	copy(out, r.series)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return seriesKey(out[i].name, out[i].labels) < seriesKey(out[j].name, out[j].labels)
	})
	return out
}
