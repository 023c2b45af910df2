// Package cliutil holds small flag-wiring helpers shared by the sian
// command-line tools, so every CLI exposes identical operational
// flags: -trace, -metrics and -serve (the live observability plane,
// /debug/pprof/ included).
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"net/http"

	"sian/internal/obs"
	"sian/internal/obs/eventlog"
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
//	-trace        per-phase timing lines on stderr
//	-metrics      dump the metrics registry on exit
//	-serve        serve the live observability plane (internal/obs/obshttp),
//	              net/http/pprof under /debug/pprof/ included
//
// Every sian CLI registers these through this one helper, so flag
// names, help strings and semantics cannot drift between tools.
func RegisterObsFlags(fs *flag.FlagSet) *ObsFlags {
	f := &ObsFlags{}
	f.trace = fs.Bool("trace", false, "print per-phase timing lines on stderr")
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
	// Tracer is non-nil when -trace was set.
	Tracer *obs.Tracer
	// Server is non-nil when -serve was set.
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
		o.Tracer = obs.NewTracer(o.Registry)
	}
	if *f.serve != "" {
		o.Server = obshttp.New(obshttp.Config{Name: name, Registry: o.Registry, Tracer: o.Tracer})
		if err := o.Server.Serve(*f.serve); err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "obs: serving http://%s/ (/metrics /healthz /events /verdicts /timeline /debug/pprof/)\n", o.Server.Addr())
	}
	return o, nil
}

// Serving reports whether the live plane is up.
func (o *Obs) Serving() bool { return o != nil && o.Server != nil }

// SetRecorder attaches the flight recorder to the live plane's
// /events and /timeline endpoints. No-op without -serve.
func (o *Obs) SetRecorder(rec *eventlog.Recorder) {
	if o != nil && o.Server != nil {
		o.Server.SetRecorder(rec)
	}
}

// SetTxTracer attaches the transaction tracer to the live plane's
// /trace/{id} and /slow endpoints. No-op without -serve.
func (o *Obs) SetTxTracer(t *txtrace.Tracer) {
	if o != nil && o.Server != nil {
		o.Server.SetTxTracer(t)
	}
}

// SetHealth registers component-specific /healthz fields on the live
// plane. No-op without -serve.
func (o *Obs) SetHealth(fn func() map[string]any) {
	if o != nil && o.Server != nil {
		o.Server.SetHealth(fn)
	}
}

// Handle mounts an additional handler on the live plane's mux. Call
// between Start and serving traffic. No-op without -serve.
func (o *Obs) Handle(pattern string, h http.Handler) {
	if o != nil && o.Server != nil {
		o.Server.Handle(pattern, h)
	}
}

// PublishVerdict forwards a verdict to the live plane's /verdicts
// stream. No-op without -serve.
func (o *Obs) PublishVerdict(v obshttp.VerdictEvent) {
	if o != nil && o.Server != nil {
		_ = o.Server.PublishVerdict(v)
	}
}

// Finish performs the exit-time observability work — tracer report on
// stderr, -metrics dump of the current registry — and stops the
// servers. It passes through (code, err), replacing them with (2,
// dump error) when the dump itself fails and no earlier error exists,
// so mains can `return o.Finish(code, err, ...)` as their final word.
func (o *Obs) Finish(code int, err error, stdout, stderr io.Writer) (int, error) {
	if o == nil {
		return code, err
	}
	o.Tracer.Report(stderr)
	if o.metrics != "" {
		if derr := o.Registry.Dump(o.metrics, stdout); derr != nil && err == nil {
			code, err = 2, derr
		}
	}
	if o.Server != nil {
		o.Server.Close()
	}
	return code, err
}
