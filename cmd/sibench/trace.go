package main

import (
	"fmt"
	"io"
	"time"

	"sian/internal/obs/ledger"
	"sian/internal/obs/txtrace"
)

// printStageTable prints the -trace-txns per-stage latency breakdown:
// one row per commit-pipeline (or wire round-trip) stage, in pipeline
// order.
func printStageTable(w io.Writer, stages []txtrace.StageLatency) {
	if len(stages) == 0 {
		fmt.Fprintln(w, "trace: no finished traces")
		return
	}
	fmt.Fprintln(w, "trace: per-stage latency (pipeline order)")
	fmt.Fprintf(w, "  %-12s %10s %12s %12s\n", "stage", "count", "p50", "p99")
	wire := false
	for _, s := range stages {
		fmt.Fprintf(w, "  %-12s %10d %12v %12v\n", s.Stage, s.Count,
			time.Duration(s.P50NS).Round(time.Microsecond),
			time.Duration(s.P99NS).Round(time.Microsecond))
		wire = wire || s.Stage == txtrace.StageWireBegin
	}
	if wire {
		// siwire pipelines begin and write: without this line the
		// ≈ 0 µs wire_begin row reads as a measurement error.
		fmt.Fprintln(w, "  (wire_begin times only the enqueue: begin and write replies are deferred, so begin's"+
			" round trip rides with the first read in wire_ops and the last write's with wire_commit)")
	}
}

// ledgerStages converts the tracer's per-stage aggregates into the
// ledger report schema.
func ledgerStages(stages []txtrace.StageLatency) []ledger.StageLatency {
	if len(stages) == 0 {
		return nil
	}
	out := make([]ledger.StageLatency, len(stages))
	for i, s := range stages {
		out[i] = ledger.StageLatency{Stage: string(s.Stage), Count: s.Count, P50NS: s.P50NS, P99NS: s.P99NS}
	}
	return out
}
