package obshttp

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sian/internal/histio"
	"sian/internal/obs"
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

// PublishVerdict appends v (marshalled once as JSON) to the ring the
// /verdicts tails read. It never waits for a client; a tail that falls
// a ring behind is told how many frames it lost.
func (s *Server) PublishVerdict(v VerdictEvent) error {
	if s == nil {
		return nil
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	s.verdictRing.add(sseFrame{event: "verdict", id: strconv.FormatInt(v.Seq, 10), data: payload})
	return nil
}

// sseFrame is one Server-Sent Events message.
type sseFrame struct {
	event string
	id    string
	data  []byte
}

// verdictRingSize is how many verdict frames /verdicts retains.
const verdictRingSize = 256

// frameRing retains the last verdictRingSize frames appended: the i-th
// (from 0) at buf[i%verdictRingSize].
type frameRing struct {
	mu  sync.Mutex
	buf [verdictRingSize]sseFrame
	n   int64
}

func (fr *frameRing) add(f sseFrame) {
	fr.mu.Lock()
	fr.buf[fr.n%verdictRingSize] = f
	fr.n++
	fr.mu.Unlock()
}

// published returns the number of frames ever appended.
func (fr *frameRing) published() int64 {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.n
}

// since is Recorder.Since for frames: the retained frames after the
// first after ones, and the count appended.
func (fr *frameRing) since(after int64) ([]sseFrame, int64) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	var out []sseFrame
	for i := max(after, fr.n-verdictRingSize); i < fr.n; i++ {
		out = append(out, fr.buf[i%verdictRingSize])
	}
	return out, fr.n
}

// stream is one SSE endpoint's accounting in the server's registry:
// the tails connected and the frames the ring overwrote before a tail
// reached them. Its sse_published_total, the frames appended to the
// ring, is sampled from the ring.
type stream struct {
	clients *obs.Gauge
	dropped *obs.Counter
}

func newStream(self *obs.Registry, name string, published func() int64) *stream {
	lbl := obs.L("stream", name)
	self.CounterFunc("sse_published_total", published, lbl)
	return &stream{clients: self.Gauge("sse_clients", lbl), dropped: self.Counter("sse_dropped_total", lbl)}
}

// pollTick is how often a tail asks its ring for what it has not sent.
const pollTick = 20 * time.Millisecond

// tail serves one SSE client of st as a cursor into a ring: every
// pollTick it sends the frames since returns after the cursor and
// moves the cursor to since's upto. The frames between the cursor and
// upto that since no longer has were overwritten before the tail
// reached them; the tail announces their running count in an
// `event: drops` frame and adds them to sse_dropped_total. An idle
// tail writes a keep-alive comment every s.keepAlive. The cursor
// starts replay frames before the ring's head.
func (s *Server) tail(w http.ResponseWriter, r *http.Request, st *stream, since func(after int64) ([]sseFrame, int64), replay int64) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported by this connection", http.StatusNotImplemented)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	_, head := since(math.MaxInt64)
	cursor := max(head-replay, 0)
	// Counted only once the cursor is placed: a client that sees itself
	// counted gets every frame appended from then on.
	st.clients.Add(1)
	defer st.clients.Add(-1)
	tick := time.NewTicker(pollTick)
	defer tick.Stop()
	var lost int64
	idle := time.Now()
	for {
		frames, upto := since(cursor)
		if gap := upto - cursor - int64(len(frames)); gap > 0 {
			lost += gap
			st.dropped.Add(gap)
			frames = append([]sseFrame{{event: "drops", data: fmt.Appendf(nil, `{"dropped":%d}`, lost)}}, frames...)
		}
		cursor = upto
		for _, f := range frames {
			if err := writeFrame(w, f); err != nil {
				return
			}
		}
		flush := len(frames) > 0
		if !flush && time.Since(idle) >= s.keepAlive {
			if _, err := fmt.Fprint(w, ": keep-alive\n\n"); err != nil {
				return
			}
			flush = true
		}
		if flush {
			fl.Flush()
			idle = time.Now()
		}
		select {
		case <-tick.C:
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		}
	}
}

// writeFrame writes one SSE message. SSE data may not contain raw
// newlines; every payload here is compact JSON, which cannot.
func writeFrame(w io.Writer, f sseFrame) error {
	if f.event != "" {
		if _, err := fmt.Fprintf(w, "event: %s\n", f.event); err != nil {
			return err
		}
	}
	if f.id != "" {
		if _, err := fmt.Fprintf(w, "id: %s\n", f.id); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "data: %s\n\n", f.data)
	return err
}

// handleEvents tails the flight recorder as SSE. Framing: each
// transactional event is one message with `event:` set to the event
// kind (begin/read/write/commit/abort/conflict), `id:` to its global
// sequence number, and `data:` to its NDJSON object (the same wire
// form sibench -record files use, so `curl -N .../events | sed -n
// 's/^data: //p'` reconstructs a stream sicheck can certify). A
// ?replay=N query starts the tail N events before the recorder's head
// (replay=all: at the first event ever recorded). Events the ring
// overwrote before the tail sent them are counted in `event: drops`
// messages carrying the running total, so every seq is either sent,
// in order, or counted.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	rec := s.recorder.Load()
	if rec == nil {
		http.Error(w, "no flight recorder attached (run with -record, -timeline or -serve on a recording command)", http.StatusNotFound)
		return
	}
	var replay int64
	if spec := r.URL.Query().Get("replay"); spec == "all" {
		replay = math.MaxInt64
	} else if n, err := strconv.ParseInt(spec, 10, 64); err == nil && n > 0 {
		replay = n
	}
	s.tail(w, r, s.events, func(after int64) ([]sseFrame, int64) {
		evs, upto := rec.Since(after)
		frames := make([]sseFrame, len(evs))
		for i, ev := range evs {
			data, _ := histio.MarshalEvent(ev) // an Event always marshals
			frames[i] = sseFrame{event: ev.Kind.String(), id: strconv.FormatInt(ev.Seq, 10), data: data}
		}
		return frames, upto
	}, replay)
}

// handleVerdicts streams monitor verdicts published with
// PublishVerdict from the moment the client connects: one `event:
// verdict` message per verdict, `id:` set to the triggering commit's
// sequence number, `data:` the VerdictEvent JSON. Drops are announced
// as on /events.
func (s *Server) handleVerdicts(w http.ResponseWriter, r *http.Request) {
	s.tail(w, r, s.verdicts, s.verdictRing.since, 0)
}
