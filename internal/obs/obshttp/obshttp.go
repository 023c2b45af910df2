// Package obshttp is the module's live observability plane: an
// embeddable, stdlib-only net/http server that exposes a running
// process's metrics registry, flight recorder and verdict stream while
// the work is still in flight. The CLIs mount it behind the shared
// -serve flag (internal/cliutil), and it is the wire-facing substrate
// a future networked server (cmd/siserve) will reuse for its health
// and telemetry endpoints.
//
// Endpoints:
//
//	GET /metrics       Prometheus text exposition of the current
//	                   registry plus the server's own series (sse_*,
//	                   and eventlog_* once a recorder is attached).
//	GET /metrics.json  The same snapshot as a JSON array (internal/obs
//	                   JSONMetric schema, histogram bucket edges
//	                   included).
//	GET /healthz       Liveness JSON: status, component name, uptime
//	                   and the fields of SetHealth.
//	GET /trace/{id}    One finished transaction's span tree (txtrace
//	                   TraceData JSON; id is the 16-hex-digit trace ID,
//	                   e.g. from a histogram exemplar or /slow).
//	GET /slow          The slow-transaction log: finished traces above
//	                   ?threshold= (a Go duration or nanosecond count),
//	                   slowest first, at most ?limit= (default: the
//	                   tracer's top-64 retention).
//	GET /events        Server-Sent Events tail of the flight recorder
//	                   (one NDJSON event per SSE data frame; see
//	                   Server.handleEvents for the framing contract).
//	GET /verdicts      Server-Sent Events stream of monitor verdicts
//	                   published via PublishVerdict.
//	GET /timeline      Chrome trace-event JSON snapshot of the
//	                   tracer's retained traces: client, server and
//	                   certifier tracks (Perfetto-loadable).
//	GET /debug/pprof/  net/http/pprof.
//
// The recorder and tracer attach at runtime (SetRecorder,
// SetTxTracer), so a CLI can start the plane before it builds the
// components those endpoints serve. Every method is a no-op on a nil
// *Server, so a CLI without -serve holds nil and calls it anyway.
package obshttp

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"sian/internal/obs"
	"sian/internal/obs/eventlog"
	"sian/internal/obs/txtrace"
)

// Config parameterises a Server. Endpoints whose backing component
// is absent respond 404 (/events, /timeline, /trace/{id}, /slow) or
// serve an empty document (/metrics).
type Config struct {
	// Name identifies the serving component in /healthz (for example
	// "sibench"). Empty means "sian".
	Name string
	// Registry is the metrics registry scraped by /metrics and
	// /metrics.json.
	Registry *obs.Registry
}

// Server is the observability-plane HTTP server. Create with New,
// mount via Handler or run standalone via Serve, and stop with Close.
type Server struct {
	name      string
	keepAlive time.Duration
	start     time.Time

	registry *obs.Registry
	recorder atomic.Pointer[eventlog.Recorder]
	txtracer atomic.Pointer[txtrace.Tracer]

	// self holds the server's own series (per-stream SSE accounting
	// and the attached recorder's counts), appended to every scrape so
	// the plane observes itself with the same exporters.
	self     *obs.Registry
	events   *stream
	verdicts *stream
	// verdictRing retains the last frames PublishVerdict appended, for
	// the /verdicts tails to read.
	verdictRing frameRing

	// healthExtra, when set, contributes component-specific fields to
	// the /healthz document (for example siserve's WAL fsync lag and
	// recovery verdict).
	healthExtra atomic.Pointer[func() map[string]any]

	mux  *http.ServeMux
	done chan struct{}
	ln   net.Listener
	srv  *http.Server
}

// New returns an unstarted server for the given configuration.
func New(cfg Config) *Server {
	if cfg.Name == "" {
		cfg.Name = "sian"
	}
	s := &Server{
		name:      cfg.Name,
		keepAlive: 5 * time.Second,
		start:     time.Now(),
		registry:  cfg.Registry,
		self:      obs.NewRegistry(),
		done:      make(chan struct{}),
	}
	s.events = newStream(s.self, "events", func() int64 { return s.recorder.Load().Recorded() })
	s.verdicts = newStream(s.self, "verdicts", s.verdictRing.published)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics.json", s.handleMetricsJSON)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /events", s.handleEvents)
	mux.HandleFunc("GET /verdicts", s.handleVerdicts)
	mux.HandleFunc("GET /timeline", s.handleTimeline)
	mux.HandleFunc("GET /trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /slow", s.handleSlow)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s
}

// SetRecorder repoints /events at rec, and the eventlog_* series at
// its counts: eventlog_recorded_total, eventlog_dropped_total and
// eventlog_retained_events, which the server's registry holds from
// the first recorder attached on. Streams already tailing the previous
// recorder keep it until the client reconnects.
func (s *Server) SetRecorder(rec *eventlog.Recorder) {
	if s == nil {
		return
	}
	s.recorder.Store(rec)
	if rec != nil {
		s.self.CounterFunc("eventlog_recorded_total", func() int64 { return s.recorder.Load().Recorded() })
		s.self.CounterFunc("eventlog_dropped_total", func() int64 { return s.recorder.Load().Dropped() })
		s.self.GaugeFunc("eventlog_retained_events", func() int64 { return int64(s.recorder.Load().Len()) })
	}
}

// SetTxTracer repoints /trace/{id}, /slow and /timeline at t. Nil is
// allowed and returns the three endpoints to their tracing-off 404.
func (s *Server) SetTxTracer(t *txtrace.Tracer) {
	if s != nil {
		s.txtracer.Store(t)
	}
}

// SetHealth registers a callback whose key/value pairs are merged into
// the /healthz document on every request, letting the embedding
// component surface its own liveness signals (WAL fsync lag, recovery
// verdict, …). Keys colliding with the built-in document are ignored.
// Nil unregisters.
func (s *Server) SetHealth(fn func() map[string]any) {
	switch {
	case s == nil:
	case fn == nil:
		s.healthExtra.Store(nil)
	default:
		s.healthExtra.Store(&fn)
	}
}

// Handle mounts an additional handler on the server's mux (a serving
// component's own API endpoints, for example siserve's /v1/transact).
// It must be called before Serve; the pattern syntax is
// http.ServeMux's.
func (s *Server) Handle(pattern string, h http.Handler) {
	if s != nil {
		s.mux.Handle(pattern, h)
	}
}

// Handler returns the server's root handler, for embedding into an
// existing mux; a nil server's answers 404.
func (s *Server) Handler() http.Handler {
	if s == nil {
		return http.NotFoundHandler()
	}
	return s.mux
}

// Serve begins listening on addr (for example ":8080" or
// "127.0.0.1:0") and serves until Close. It returns once the listener
// is bound; use Addr for the bound address.
func (s *Server) Serve(addr string) error {
	if s == nil {
		return fmt.Errorf("obshttp: serve on a nil server")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("obshttp: %w", err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux}
	go func() {
		_ = s.srv.Serve(ln) // ends when Close closes the listener
	}()
	return nil
}

// Addr returns the bound listen address, or "" before Serve.
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and unblocks every live SSE stream. It is
// idempotent.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	select {
	case <-s.done:
		return nil
	default:
	}
	close(s.done)
	var err error
	if s.srv != nil {
		err = s.srv.Close()
	} else if s.ln != nil {
		err = s.ln.Close()
	}
	return err
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.registry.WritePrometheus(w); err != nil {
		return
	}
	_ = s.self.WritePrometheus(w)
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	snap := append(s.registry.Snapshot(), s.self.Snapshot()...)
	writeJSON(w, snap)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	doc := map[string]any{"status": "ok", "name": s.name, "uptime_ns": time.Since(s.start).Nanoseconds()}
	if fnp := s.healthExtra.Load(); fnp != nil {
		for k, v := range (*fnp)() {
			if _, taken := doc[k]; !taken {
				doc[k] = v
			}
		}
	}
	writeJSON(w, doc)
}

// writeJSON answers with v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// handleTrace serves one finished transaction's span tree by trace ID
// (the 16-hex-digit form that exemplars, /slow and sibench print).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tt := s.tracing(w)
	if tt == nil {
		return
	}
	id, err := txtrace.ParseID(r.PathValue("id"))
	if err != nil {
		http.Error(w, fmt.Sprintf("bad trace id: %v", err), http.StatusBadRequest)
		return
	}
	td := tt.Get(id)
	if td == nil {
		http.Error(w, "trace not found (evicted or never finished)", http.StatusNotFound)
		return
	}
	writeJSON(w, td)
}

// slowDoc is the /slow response document.
type slowDoc struct {
	ThresholdNS int64                `json:"threshold_ns"`
	Count       int                  `json:"count"`
	Traces      []*txtrace.TraceData `json:"traces"`
}

// handleSlow serves the slow-transaction log: finished traces at or
// above ?threshold= (a Go duration like 2ms, or a bare nanosecond
// count), slowest first, capped at ?limit=.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	tt := s.tracing(w)
	if tt == nil {
		return
	}
	var threshold time.Duration
	if raw := r.URL.Query().Get("threshold"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil {
			ns, nerr := strconv.ParseInt(raw, 10, 64)
			if nerr != nil {
				http.Error(w, fmt.Sprintf("bad threshold: %v", err), http.StatusBadRequest)
				return
			}
			d = time.Duration(ns)
		}
		threshold = d
	}
	limit := 0
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		limit = n
	}
	traces := tt.Slow(threshold, limit)
	if traces == nil {
		traces = []*txtrace.TraceData{}
	}
	writeJSON(w, slowDoc{ThresholdNS: threshold.Nanoseconds(), Count: len(traces), Traces: traces})
}

// tracing returns the attached tracer, or answers 404 with the flag
// that turns tracing on and returns nil.
func (s *Server) tracing(w http.ResponseWriter) *txtrace.Tracer {
	tt := s.txtracer.Load()
	if tt == nil {
		http.Error(w, "tracing is off (run with -trace)", http.StatusNotFound)
	}
	return tt
}

// handleTimeline renders the tracer's retained traces as one
// Perfetto-loadable document.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	tt := s.tracing(w)
	if tt == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="timeline.json"`)
	_ = txtrace.WriteChromeTrace(w, tt.Finished(0))
}
