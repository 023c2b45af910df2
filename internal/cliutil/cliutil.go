// Package cliutil holds small flag-wiring helpers shared by the sian
// command-line tools, so every CLI exposes identical operational
// flags: -trace, -metrics and -serve (the live observability plane,
// /debug/pprof/ included).
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"time"

	"sian/internal/obs"
	"sian/internal/obs/obshttp"
	"sian/internal/obs/txtrace"
)

// ObsFlags carries the shared observability flag values registered by
// RegisterObsFlags. Call Start after flag parsing to turn them into a
// running Obs.
type ObsFlags struct {
	trace   *bool
	metrics *string
	serve   *string
}

// RegisterObsFlags registers the shared observability flags on fs:
//
//	-trace        trace the run (internal/obs/txtrace): its transactions,
//	              certifications and phases; the per-stage table on
//	              stderr at exit, /trace/{id}, /slow and /timeline on
//	              the -serve plane
//	-metrics      dump the metrics registry on exit
//	-serve        serve the live observability plane (internal/obs/obshttp),
//	              net/http/pprof under /debug/pprof/ included
//
// Every sian CLI registers these through this one helper, so flag
// names, help strings and semantics cannot drift between tools.
func RegisterObsFlags(fs *flag.FlagSet) *ObsFlags {
	f := &ObsFlags{}
	f.trace = fs.Bool("trace", false, "trace the run's transactions, certifications and phases; print the per-stage latency table on stderr at exit")
	f.metrics = fs.String("metrics", "", "dump the metrics registry on exit to this file ('-' for stdout, *.json for JSON)")
	f.serve = fs.String("serve", "", "serve the live observability plane on this address during the run (e.g. :8080): /metrics, /metrics.json, /healthz, /events, /verdicts, /timeline, /debug/pprof/")
	return f
}

// Obs is the per-run observability state assembled from the shared
// flags: a registry, an optional tracer, and the optional live plane.
// Finish tears everything down and performs the exit-time dumps.
type Obs struct {
	// Registry is the run's metric registry.
	Registry *obs.Registry
	// Tracer is non-nil when -trace was set. Its per-stage histograms
	// are the registry's trace_stage_ns{stage} series.
	Tracer *txtrace.Tracer
	// Server is non-nil when -serve was set. Its methods are no-ops on
	// nil, so a run attaches its recorder, verdicts and health to it
	// whether or not it serves.
	Server *obshttp.Server

	metrics string
}

// Start builds the run's observability state: a fresh registry, a
// tracer when -trace was given, and the obshttp plane when -serve was
// given (announced on stderr). name identifies the component in
// /healthz.
func (f *ObsFlags) Start(name string, stderr io.Writer) (*Obs, error) {
	o := &Obs{Registry: obs.NewRegistry(), metrics: *f.metrics}
	if *f.trace {
		o.Tracer = txtrace.New(txtrace.Options{Metrics: o.Registry})
	}
	if *f.serve != "" {
		o.Server = obshttp.New(obshttp.Config{Name: name, Registry: o.Registry})
		o.Server.SetTxTracer(o.Tracer)
		if err := o.Server.Serve(*f.serve); err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "obs: serving http://%s/ (/metrics /healthz /events /verdicts /timeline /debug/pprof/)\n", o.Server.Addr())
	}
	return o, nil
}

// Begin starts the run's own trace (nil without -trace), named after
// the tool, and returns it with the function a main returns through:
// it finishes the trace with the run's Outcome, then calls Finish, so
// the trace is in the stage table.
func (o *Obs) Begin(tool string, stdout, stderr io.Writer) (*txtrace.Trace, func(int, error) (int, error)) {
	tr := o.Tracer.Begin(tool)
	return tr, func(code int, err error) (int, error) {
		tr.Finish(Outcome(code, err), 0)
		return o.Finish(code, err, stdout, stderr)
	}
}

// Outcome names a run's result for its trace: "ok" for exit 0,
// "violation" for exit 1, "error" otherwise.
func Outcome(code int, err error) string {
	switch {
	case err != nil || code > 1:
		return txtrace.OutcomeError
	case code == 1:
		return "violation"
	}
	return "ok"
}

// Finish performs the exit-time observability work — the -trace
// per-stage table on stderr, -metrics dump of the current registry —
// and stops the servers. It passes through (code, err), replacing them with (2,
// dump error) when the dump itself fails and no earlier error exists,
// so mains can `return o.Finish(code, err, ...)` as their final word.
func (o *Obs) Finish(code int, err error, stdout, stderr io.Writer) (int, error) {
	if o == nil {
		return code, err
	}
	if o.Tracer != nil {
		printStageTable(stderr, o.Tracer.StageLatencies())
	}
	if o.metrics != "" {
		if derr := o.Registry.Dump(o.metrics, stdout); derr != nil && err == nil {
			code, err = 2, derr
		}
	}
	o.Server.Close()
	return code, err
}

// printStageTable prints the -trace per-stage latency breakdown: one
// row per stage (wire round trip, commit pipeline, certifier, run
// phase), in the tracer's canonical order.
func printStageTable(w io.Writer, stages []txtrace.StageLatency) {
	if len(stages) == 0 {
		fmt.Fprintln(w, "trace: no finished traces")
		return
	}
	fmt.Fprintln(w, "trace: per-stage latency (pipeline order)")
	fmt.Fprintf(w, "  %-24s %10s %12s %12s\n", "stage", "count", "p50", "p99")
	wire := false
	for _, s := range stages {
		fmt.Fprintf(w, "  %-24s %10d %12v %12v\n", s.Stage, s.Count,
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
