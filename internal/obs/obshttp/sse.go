package obshttp

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sian/internal/histio"
	"sian/internal/obs"
	"sian/internal/obs/eventlog"
)

// VerdictEvent is the wire form of one online-monitor verdict on the
// /verdicts stream: the per-commit answer (member / checked) plus, on
// an anomaly, the violation with its witness-cycle explanation. The
// producing CLI (cmd/sicheck) converts internal/monitor verdicts into
// this shape so the plane itself stays decoupled from the checker.
type VerdictEvent struct {
	// Seq is the event sequence number of the commit the verdict is
	// about (0 for the end-of-stream summary).
	Seq int64 `json:"seq"`
	// Txn is the committing transaction's id ("(end of stream)" for
	// the final summary verdict).
	Txn string `json:"txn"`
	// Model names the consistency model certified against.
	Model string `json:"model"`
	// Member reports whether the live window is still allowed.
	Member bool `json:"member"`
	// Checked marks verdicts that needed a slow-path certification.
	Checked bool `json:"checked,omitempty"`
	// Window and Pending snapshot the monitor after the commit.
	Window  int `json:"window"`
	Pending int `json:"pending"`
	// Violation carries the anomaly when this commit revealed one.
	Violation *ViolationEvent `json:"violation,omitempty"`
}

// ViolationEvent explains one detected anomaly: the violated axiom and
// the witnessing forbidden cycle, as rendered by the checker.
type ViolationEvent struct {
	Axiom  string `json:"axiom,omitempty"`
	Cycle  string `json:"cycle,omitempty"`
	Detail string `json:"detail,omitempty"`
	// Definitive reports whether the verdict necessarily extends to
	// the full stream (false after a window collapse discarded
	// context; see DESIGN.md §11).
	Definitive bool `json:"definitive"`
}

// sseFrame is one Server-Sent Events message.
type sseFrame struct {
	event string
	id    string
	data  []byte
}

// sseSub is one connected stream client: a bounded frame buffer plus a
// count of frames lost to it being full.
type sseSub struct {
	ch      chan sseFrame
	dropped atomic.Int64
}

// sseStream is a bounded fan-out of frames to any number of clients,
// with per-client drop accounting surfaced both in-stream and in the
// server's self registry.
type sseStream struct {
	mu        sync.RWMutex
	subs      map[*sseSub]struct{}
	clients   *obs.Gauge
	dropped   *obs.Counter
	published *obs.Counter
}

func newSSEStream(self *obs.Registry, name string) *sseStream {
	lbl := obs.L("stream", name)
	return &sseStream{
		subs:      make(map[*sseSub]struct{}),
		clients:   self.Gauge("sse_clients", lbl),
		dropped:   self.Counter("sse_dropped_total", lbl),
		published: self.Counter("sse_published_total", lbl),
	}
}

// publish delivers f to every subscriber without blocking; full
// buffers drop the frame and bump the subscriber's counter.
func (st *sseStream) publish(f sseFrame) {
	st.published.Inc()
	st.mu.RLock()
	for sub := range st.subs {
		select {
		case sub.ch <- f:
		default:
			sub.dropped.Add(1)
		}
	}
	st.mu.RUnlock()
}

func (st *sseStream) subscribe(buf int) *sseSub {
	sub := &sseSub{ch: make(chan sseFrame, buf)}
	st.mu.Lock()
	st.subs[sub] = struct{}{}
	st.mu.Unlock()
	st.clients.Add(1)
	return sub
}

func (st *sseStream) unsubscribe(sub *sseSub) {
	st.mu.Lock()
	delete(st.subs, sub)
	st.mu.Unlock()
	st.clients.Add(-1)
	st.dropped.Add(sub.dropped.Load())
}

// clientBuffer parses the ?buf= query parameter: the client's frame
// buffer capacity, clamped to [1, 65536], default 256.
func clientBuffer(r *http.Request) int {
	buf := 256
	if v := r.URL.Query().Get("buf"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			buf = n
		}
	}
	if buf < 1 {
		buf = 1
	}
	if buf > 1<<16 {
		buf = 1 << 16
	}
	return buf
}

// sseWriter pairs the response writer with its flusher and tracks the
// last announced drop total so slow-consumer losses are surfaced
// in-stream exactly once per increase.
type sseWriter struct {
	w         http.ResponseWriter
	fl        http.Flusher
	announced int64
}

func newSSEWriter(w http.ResponseWriter) (*sseWriter, bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported by this connection", http.StatusNotImplemented)
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return &sseWriter{w: w, fl: fl}, true
}

// frame writes one SSE message and flushes it. SSE data may not
// contain raw newlines; every payload here is compact JSON, which
// cannot.
func (sw *sseWriter) frame(f sseFrame) error {
	if f.event != "" {
		if _, err := fmt.Fprintf(sw.w, "event: %s\n", f.event); err != nil {
			return err
		}
	}
	if f.id != "" {
		if _, err := fmt.Fprintf(sw.w, "id: %s\n", f.id); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(sw.w, "data: %s\n\n", f.data); err != nil {
		return err
	}
	sw.fl.Flush()
	return nil
}

// keepAlive writes an SSE comment so idle streams stay visibly live.
func (sw *sseWriter) keepAlive() error {
	if _, err := fmt.Fprint(sw.w, ": keep-alive\n\n"); err != nil {
		return err
	}
	sw.fl.Flush()
	return nil
}

// announceDrops emits a "drops" frame when the subscriber's cumulative
// loss count has grown since the last announcement, so a tailing
// client knows its view has gaps (mirroring the flight recorder's own
// ring-overwrite accounting).
func (sw *sseWriter) announceDrops(total int64) error {
	if total == sw.announced {
		return nil
	}
	sw.announced = total
	return sw.frame(sseFrame{event: "drops", data: []byte(fmt.Sprintf(`{"dropped":%d}`, total))})
}

// handleEvents tails the flight recorder as SSE. Framing: each
// transactional event is one message with `event:` set to the event
// kind (begin/read/write/commit/abort/conflict), `id:` to its global
// sequence number, and `data:` to its NDJSON object (the same wire
// form sibench -record files use, so `curl -N .../events | sed -n
// 's/^data: //p'` reconstructs a stream sicheck can certify). A ?replay=N
// query replays up to N retained ring events before going live
// (replay=all for the whole ring); ?buf=N sizes the client's frame
// buffer. Slow consumers lose frames instead of blocking the engine;
// losses are announced with an `event: drops` message carrying the
// cumulative count.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	rec := s.recorder.Load()
	if rec == nil {
		http.Error(w, "no flight recorder attached (run with -record, -timeline or -serve on a recording command)", http.StatusNotFound)
		return
	}
	sw, ok := newSSEWriter(w)
	if !ok {
		return
	}

	sub := rec.Subscribe(clientBuffer(r))
	defer sub.Close()
	ssub := s.events.subscribe(0) // registered for client/drop accounting only
	defer s.events.unsubscribe(ssub)

	// Replay the retained tail before going live; the subscription was
	// opened first, so events recorded in between are deduplicated by
	// sequence number.
	var lastSeq int64
	if spec := r.URL.Query().Get("replay"); spec != "" {
		replay := 0
		if spec == "all" {
			replay = rec.Len()
		} else if n, err := strconv.Atoi(spec); err == nil && n > 0 {
			replay = n
		}
		if replay > 0 {
			events := rec.Events()
			if len(events) > replay {
				events = events[len(events)-replay:]
			}
			for _, ev := range events {
				if err := s.writeEventFrame(sw, ev); err != nil {
					return
				}
				lastSeq = ev.Seq
			}
		}
	}

	ticker := time.NewTicker(s.keepAlive)
	defer ticker.Stop()
	ctx := r.Context()
	for {
		select {
		case ev, ok := <-sub.C():
			if !ok {
				return
			}
			if ev.Seq <= lastSeq {
				continue
			}
			lastSeq = ev.Seq
			// Mirror the recorder-subscription drops into the stream
			// accounting before the next payload frame.
			ssub.dropped.Store(sub.Dropped())
			if err := sw.announceDrops(sub.Dropped()); err != nil {
				return
			}
			if err := s.writeEventFrame(sw, ev); err != nil {
				return
			}
		case <-ticker.C:
			ssub.dropped.Store(sub.Dropped())
			if err := sw.announceDrops(sub.Dropped()); err != nil {
				return
			}
			if err := sw.keepAlive(); err != nil {
				return
			}
		case <-ctx.Done():
			return
		case <-s.done:
			return
		}
	}
}

func (s *Server) writeEventFrame(sw *sseWriter, ev eventlog.Event) error {
	data, err := histio.MarshalEvent(ev)
	if err != nil {
		return err
	}
	return sw.frame(sseFrame{event: ev.Kind.String(), id: strconv.FormatInt(ev.Seq, 10), data: data})
}

// handleVerdicts streams monitor verdicts published with
// PublishVerdict: one `event: verdict` message per verdict, `id:` set
// to the triggering commit's sequence number, `data:` the VerdictEvent
// JSON. Framing and slow-consumer semantics match /events.
func (s *Server) handleVerdicts(w http.ResponseWriter, r *http.Request) {
	sw, ok := newSSEWriter(w)
	if !ok {
		return
	}
	sub := s.verdicts.subscribe(clientBuffer(r))
	defer s.verdicts.unsubscribe(sub)

	ticker := time.NewTicker(s.keepAlive)
	defer ticker.Stop()
	ctx := r.Context()
	for {
		select {
		case f := <-sub.ch:
			if err := sw.announceDrops(sub.dropped.Load()); err != nil {
				return
			}
			if err := sw.frame(f); err != nil {
				return
			}
		case <-ticker.C:
			if err := sw.announceDrops(sub.dropped.Load()); err != nil {
				return
			}
			if err := sw.keepAlive(); err != nil {
				return
			}
		case <-ctx.Done():
			return
		case <-s.done:
			return
		}
	}
}
