package monitor

import (
	"testing"
	"time"

	"sian/internal/depgraph"
	"sian/internal/histio"
	"sian/internal/model"
	"sian/internal/obs"
)

// TestIngestLagSampled checks that monitor_ingest_lag_ns reads the
// clock for a sample of the stamped events only: the first, then one in
// obs.SampleEvery on average. Unstamped events (certify's, TS 0) never
// read it.
func TestIngestLagSampled(t *testing.T) {
	t.Parallel()
	txs := make([]model.Transaction, 500)
	for i := range txs {
		txs[i] = model.Transaction{Ops: []model.Op{model.Read("x", model.Value(i)), model.Write("x", model.Value(i+1))}}
	}
	events := histio.HistoryToEvents(model.NewHistory(model.Session{ID: "s", Transactions: txs}))
	const lag = 7
	for _, stamped := range []bool{true, false} {
		reg := obs.NewRegistry()
		var reads int64
		ts := int64(0)
		mon := New(Config{Model: depgraph.SI, Window: 16, Metrics: reg, now: func() time.Time {
			reads++
			return time.Unix(0, ts+lag)
		}})
		h := reg.Histogram("monitor_ingest_lag_ns", obs.L("model", "SI"))
		for i, ev := range events {
			if !stamped {
				ev.TS = 0
			}
			ts = ev.TS
			mon.Ingest(ev)
			if i == 0 && stamped && h.Count() != 1 {
				t.Errorf("first stamped event: %d lag observations, want 1", h.Count())
			}
		}
		if _, err := mon.Finish(); err != nil {
			t.Fatal(err)
		}
		n := int64(len(events))
		switch {
		case !stamped && reads != 0:
			t.Errorf("%d clock reads for %d unstamped events, want 0", reads, n)
		case stamped && (reads < 2 || reads > 1+(n+31)/32):
			t.Errorf("%d clock reads for %d stamped events, want 2 to %d", reads, n, 1+(n+31)/32)
		}
		if h.Count() != reads || h.Sum() != lag*reads {
			t.Errorf("stamped=%v: %d lag observations summing to %d for %d clock reads of lag %d",
				stamped, h.Count(), h.Sum(), reads, lag)
		}
	}
}
