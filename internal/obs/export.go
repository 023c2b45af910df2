package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): one # TYPE header per metric
// family, counters and gauges as single samples, histograms as
// cumulative _bucket{le=...} samples plus _sum and _count. Buckets are
// emitted up to the highest non-empty one, then +Inf. Output is
// deterministic (sorted by name, then labels).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	lastFamily := ""
	for _, s := range r.sortedSeries() {
		if s.name != lastFamily {
			lastFamily = s.name
			if _, err := fmt.Fprintf(w, "# TYPE %s %v\n", s.name, s.kind); err != nil {
				return err
			}
		}
		var err error
		if s.kind == kindHistogram {
			err = writePromHistogram(w, s)
		} else {
			_, err = fmt.Fprintf(w, "%s %d\n", seriesKey(s.name, s.labels), s.value())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, s *series) error {
	buckets := s.histogram.snapshotBuckets()
	top := -1
	for i, n := range buckets {
		if n > 0 {
			top = i
		}
	}
	var cum int64
	for i := 0; i <= top; i++ {
		cum += buckets[i]
		le := fmt.Sprintf("%d", BucketUpperBound(i))
		if _, err := fmt.Fprintf(w, "%s %d\n", seriesKey(s.name+"_bucket", withLE(s.labels, le)), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s %d\n", seriesKey(s.name+"_bucket", withLE(s.labels, "+Inf")), s.histogram.Count()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %d\n", seriesKey(s.name+"_sum", s.labels), s.histogram.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", seriesKey(s.name+"_count", s.labels), s.histogram.Count())
	return err
}

func withLE(labels []Label, le string) []Label {
	out := make([]Label, 0, len(labels)+1)
	out = append(out, labels...)
	return append(out, L("le", le))
}

// JSONBucket is one non-empty histogram bucket in the JSON export: a
// non-cumulative count of the values in [LowerBound, UpperBound], both
// edges inclusive. Empty buckets are elided, so both edges are
// recorded explicitly — consumers can re-derive quantiles (the same
// interpolation Histogram.Quantile uses) without knowing the
// registry's log-scale bucket layout.
type JSONBucket struct {
	LowerBound int64 `json:"ge"`
	UpperBound int64 `json:"le"`
	Count      int64 `json:"count"`
	// ExemplarValue and ExemplarTraceID link the bucket to one traced
	// observation (the latest): the observed value and its trace ID as
	// 16 hex digits, resolvable via GET /trace/{id}. Absent when no
	// traced observation landed in the bucket.
	ExemplarValue   *int64 `json:"exemplar_value,omitempty"`
	ExemplarTraceID string `json:"exemplar_trace_id,omitempty"`
}

// JSONMetric is one series in the JSON export. Value is set for
// counters and gauges; Count/Sum/Buckets/P50/P99 for histograms.
type JSONMetric struct {
	Name    string            `json:"name"`
	Kind    string            `json:"kind"`
	Labels  map[string]string `json:"labels,omitempty"`
	Value   *int64            `json:"value,omitempty"`
	Count   *int64            `json:"count,omitempty"`
	Sum     *int64            `json:"sum,omitempty"`
	P50     *float64          `json:"p50,omitempty"`
	P99     *float64          `json:"p99,omitempty"`
	Buckets []JSONBucket      `json:"buckets,omitempty"`
}

// Snapshot returns all series as export-ready JSONMetric values, in
// the same deterministic order as WritePrometheus.
func (r *Registry) Snapshot() []JSONMetric {
	if r == nil {
		return nil
	}
	var out []JSONMetric
	for _, s := range r.sortedSeries() {
		m := JSONMetric{Name: s.name, Kind: s.kind.String()}
		if len(s.labels) > 0 {
			m.Labels = make(map[string]string, len(s.labels))
			for _, l := range s.labels {
				m.Labels[l.Key] = l.Value
			}
		}
		if s.kind != kindHistogram {
			v := s.value()
			m.Value = &v
		} else {
			c, sum := s.histogram.Count(), s.histogram.Sum()
			p50, p99 := s.histogram.Quantile(0.50), s.histogram.Quantile(0.99)
			m.Count, m.Sum, m.P50, m.P99 = &c, &sum, &p50, &p99
			for i, n := range s.histogram.snapshotBuckets() {
				if n > 0 {
					b := JSONBucket{LowerBound: BucketLowerBound(i), UpperBound: BucketUpperBound(i), Count: n}
					if ex := s.histogram.BucketExemplar(i); ex != nil {
						v := ex.Value
						b.ExemplarValue = &v
						b.ExemplarTraceID = fmt.Sprintf("%016x", ex.TraceID)
					}
					m.Buckets = append(m.Buckets, b)
				}
			}
		}
		out = append(out, m)
	}
	return out
}

// WriteJSON renders the registry as an indented JSON array of
// JSONMetric objects.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Dump writes the registry to the named destination in Prometheus text
// format: "-" means the given writer (a CLI's stdout), anything else a
// file path. Paths ending in .json select the JSON exporter instead.
// An empty path is a no-op.
func (r *Registry) Dump(path string, stdout io.Writer) error {
	switch {
	case path == "":
		return nil
	case path == "-":
		return r.WritePrometheus(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = r.WriteJSON(f)
	} else {
		err = r.WritePrometheus(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
