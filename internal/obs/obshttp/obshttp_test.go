package obshttp

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sian/internal/model"
	"sian/internal/obs"
	"sian/internal/obs/eventlog"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// demoRegistry builds a small deterministic registry so scrape output
// is byte-stable for golden comparison.
func demoRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.Counter("demo_commits_total", obs.L("engine", "SI")).Add(42)
	reg.Gauge("demo_sessions").Set(4)
	h := reg.Histogram("demo_latency_ns")
	for _, v := range []int64{0, 1, 5, 100, 1000} {
		h.Observe(v)
	}
	return reg
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden): %v", err)
	}
	if string(want) != string(got) {
		t.Errorf("%s mismatch:\n--- want ---\n%s\n--- got ---\n%s", name, want, got)
	}
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, body
}

// TestMetricsGolden pins the /metrics and /metrics.json scrape formats
// (application registry followed by the server's own sse_* series,
// histogram bucket edges included in JSON).
func TestMetricsGolden(t *testing.T) {
	s := New(Config{Name: "golden", Registry: demoRegistry()})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	checkGolden(t, "metrics.golden", body)

	code, body = get(t, ts, "/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("/metrics.json status %d", code)
	}
	checkGolden(t, "metrics_json.golden", body)

	var metrics []obs.JSONMetric
	if err := json.Unmarshal(body, &metrics); err != nil {
		t.Fatalf("/metrics.json does not parse: %v", err)
	}
	foundHist := false
	for _, m := range metrics {
		if m.Name == "demo_latency_ns" {
			foundHist = true
			if len(m.Buckets) == 0 {
				t.Fatal("histogram JSON has no buckets")
			}
			for _, b := range m.Buckets {
				if b.UpperBound < b.LowerBound {
					t.Errorf("bucket edges inverted: ge=%d le=%d", b.LowerBound, b.UpperBound)
				}
			}
		}
	}
	if !foundHist {
		t.Error("histogram series missing from /metrics.json")
	}
}

// TestHealthzAndMissingBackends covers the degraded configuration: no
// recorder and no tracer mean /events and /timeline are 404 while
// /healthz and the scrapes still work.
func TestHealthzAndMissingBackends(t *testing.T) {
	s := New(Config{Registry: obs.NewRegistry()})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d: %s", code, body)
	}
	var h struct{ Status, Name string }
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz does not parse: %v", err)
	}
	if h.Status != "ok" || h.Name != "sian" {
		t.Errorf("healthz = %+v", h)
	}

	for _, path := range []string{"/events", "/timeline"} {
		if code, _ := get(t, ts, path); code != http.StatusNotFound {
			t.Errorf("GET %s without backend: status %d, want 404", path, code)
		}
	}
	if code, _ := get(t, ts, "/metrics"); code != http.StatusOK {
		t.Errorf("/metrics status %d", code)
	}
}

// sseClient tails an SSE endpoint, parsing frames into (event, data)
// pairs until the body closes or the caller cancels via resp.Body.
type sseFrameData struct {
	event string
	id    string
	data  string
}

func readFrames(t *testing.T, body io.Reader, frames chan<- sseFrameData) {
	t.Helper()
	sc := bufio.NewScanner(body)
	var cur sseFrameData
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.data != "" {
				frames <- cur
			}
			cur = sseFrameData{}
		}
	}
	close(frames)
}

// TestEventsSSEReplayAndLive exercises the /events contract: a client
// connecting with ?replay=all first receives the retained ring tail,
// then live events as they are recorded, each framed with the event
// kind and global sequence number.
func TestEventsSSEReplayAndLive(t *testing.T) {
	rec := eventlog.NewRecorder(0)
	s := New(Config{})
	s.SetRecorder(rec)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rec.Record(eventlog.Event{Kind: eventlog.Begin, Session: "s1", TxID: "t1"})
	rec.Record(eventlog.Event{Kind: eventlog.Commit, Session: "s1", TxID: "t1"})

	resp, err := ts.Client().Get(ts.URL + "/events?replay=all")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	frames := make(chan sseFrameData, 16)
	go readFrames(t, resp.Body, frames)

	want := []string{"begin", "commit"}
	for i, kind := range want {
		select {
		case f := <-frames:
			if f.event != kind {
				t.Fatalf("replay frame %d: event %q, want %q", i, f.event, kind)
			}
			if !strings.Contains(f.data, `"tx":"t1"`) {
				t.Errorf("frame data missing tx: %s", f.data)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for replay frames")
		}
	}

	// Live tail: a new event recorded after connect must arrive.
	rec.Record(eventlog.Event{Kind: eventlog.Write, Session: "s2", TxID: "t2", Obj: "x", Val: 7})
	select {
	case f := <-frames:
		if f.event != "write" || !strings.Contains(f.data, `"obj":"x"`) {
			t.Fatalf("live frame = %+v", f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for live frame")
	}
}

// TestVerdictsSSE checks PublishVerdict delivery: frames carry the
// verdict JSON including the violation explanation.
func TestVerdictsSSE(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/verdicts")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := make(chan sseFrameData, 16)
	go readFrames(t, resp.Body, frames)

	// Wait until the subscriber is registered before publishing.
	deadline := time.Now().Add(5 * time.Second)
	for s.verdicts.clients.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("verdict client never registered")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.PublishVerdict(VerdictEvent{
		Seq: 9, Txn: "t9", Model: "SI", Member: false, Checked: true,
		Violation: &ViolationEvent{Axiom: "NoConflict", Cycle: "t1 -WW-> t9 -RW-> t1", Definitive: true},
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-frames:
		if f.event != "verdict" || f.id != "9" {
			t.Fatalf("frame = %+v", f)
		}
		var v VerdictEvent
		if err := json.Unmarshal([]byte(f.data), &v); err != nil {
			t.Fatalf("verdict does not parse: %v", err)
		}
		if v.Member || v.Violation == nil || v.Violation.Axiom != "NoConflict" {
			t.Errorf("verdict = %+v", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for verdict frame")
	}
}

// TestSlowConsumerDropAccounting: a /verdicts tail that falls a whole
// ring behind (600 verdicts published between two of its polls, the
// ring holding 256) gets the newest 256, told first in a drops frame
// that it lost 344; the loss reaches sse_dropped_total and publishing
// never waited for it.
func TestSlowConsumerDropAccounting(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	polls := 0
	since := func(after int64) ([]sseFrame, int64) {
		switch polls++; polls {
		case 2: // the first poll after the head
			for i := 1; i <= 600; i++ {
				s.PublishVerdict(VerdictEvent{Seq: int64(i), Txn: "t", Model: "SI", Member: true})
			}
		case 3:
			cancel()
		}
		return s.verdictRing.since(after)
	}
	w := httptest.NewRecorder()
	s.tail(w, httptest.NewRequest("GET", "/verdicts", nil).WithContext(ctx), s.verdicts, since, 0)

	frames := make(chan sseFrameData, 1024)
	readFrames(t, w.Body, frames)
	var got []sseFrameData
	for f := range frames {
		got = append(got, f)
	}
	if len(got) != 1+verdictRingSize || got[0].event != "drops" || got[0].data != `{"dropped":344}` {
		t.Fatalf("%d frames, first %+v; want a drops frame of 344, then %d verdicts", len(got), got[0], verdictRingSize)
	}
	if got[1].id != "345" || got[len(got)-1].id != "600" {
		t.Errorf("verdicts %s..%s, want the newest: 345..600", got[1].id, got[len(got)-1].id)
	}
	if d := s.verdicts.dropped.Value(); d != 344 {
		t.Errorf("sse_dropped_total{stream=verdicts} = %d, want 344", d)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, body := get(t, ts, "/metrics")
	if !strings.Contains(string(body), `sse_published_total{stream="verdicts"} 600`) ||
		!strings.Contains(string(body), `sse_clients{stream="verdicts"} 0`) {
		t.Errorf("/metrics after the tail left:\n%s", body)
	}
}

// TestEventsTailDeliversEverySeq: eight sessions record while a
// /events?replay=all client tails; every seq of the recorded range is
// sent once, in increasing order, or counted in a drops frame.
func TestEventsTailDeliversEverySeq(t *testing.T) {
	const sessions, each = 8, 5000
	rec := eventlog.NewRecorder(0)
	s := New(Config{})
	s.SetRecorder(rec)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/events?replay=all")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := make(chan sseFrameData, 1024)
	go readFrames(t, resp.Body, frames)

	var wg sync.WaitGroup
	defer wg.Wait()
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				rec.Record(eventlog.Event{Kind: eventlog.Write, Session: fmt.Sprintf("s%d", i), TxID: "t", Obj: "x", Val: model.Value(j)})
			}
		}(i)
	}
	var sent, dropped, last int64
	for sent+dropped < sessions*each {
		select {
		case f := <-frames:
			if f.event == "drops" {
				fmt.Sscanf(f.data, `{"dropped":%d}`, &dropped)
				continue
			}
			var seq int64
			fmt.Sscan(f.id, &seq)
			if seq <= last {
				t.Fatalf("seq %d sent after %d", seq, last)
			}
			last = seq
			sent++
		case <-time.After(8 * time.Second): // beyond any keep-alive tick
			t.Fatalf("the tail went quiet: %d sent + %d counted dropped of %d recorded; %d seqs neither",
				sent, dropped, rec.Recorded(), rec.Recorded()-sent-dropped)
		}
	}
	if sent+dropped != sessions*each || last > sessions*each {
		t.Errorf("%d sent + %d dropped, last seq %d; want %d", sent, dropped, last, sessions*each)
	}
}

// TestIdleTailKeepsAlive: a tail with nothing to send writes a
// keep-alive comment every keep-alive interval.
func TestIdleTailKeepsAlive(t *testing.T) {
	s := New(Config{}).withKeepAlive(30 * time.Millisecond)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/verdicts")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for n := 0; n < 2 && sc.Scan(); {
		if sc.Text() == ": keep-alive" {
			n++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestEventsSSEConcurrentClients runs several clients tailing /events
// while a writer records concurrently — the -race acceptance test for
// the tail path.
func TestEventsSSEConcurrentClients(t *testing.T) {
	rec := eventlog.NewRecorder(0)
	s := New(Config{})
	s.SetRecorder(rec)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 4
	const events = 200
	var wg sync.WaitGroup
	received := make([]int, clients)
	for c := 0; c < clients; c++ {
		resp, err := ts.Client().Get(ts.URL + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		wg.Add(1)
		go func(c int, body io.Reader) {
			defer wg.Done()
			frames := make(chan sseFrameData, events)
			go readFrames(t, body, frames)
			for f := range frames {
				if f.event == "drops" {
					continue
				}
				received[c]++
				if received[c] == events {
					return
				}
			}
		}(c, resp.Body)
	}

	// Let every client's subscription register before the burst.
	deadline := time.Now().Add(5 * time.Second)
	for s.events.clients.Value() < clients {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d clients registered", s.events.clients.Value(), clients)
		}
		time.Sleep(time.Millisecond)
	}

	go func() {
		for i := 0; i < events; i++ {
			rec.Record(eventlog.Event{
				Kind: eventlog.Write, Session: fmt.Sprintf("s%d", i%4),
				TxID: fmt.Sprintf("t%d", i), Obj: "x", Val: model.Value(i),
			})
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("clients stalled; received = %v", received)
	}
	for c, n := range received {
		if n != events {
			t.Errorf("client %d received %d/%d events", c, n, events)
		}
	}
}

// TestCloseUnblocksStreams ensures Close terminates live SSE handlers
// rather than leaking them.
func TestCloseUnblocksStreams(t *testing.T) {
	rec := eventlog.NewRecorder(0)
	s := New(Config{}).withKeepAlive(time.Hour)
	s.SetRecorder(rec)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.events.clients.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("client never registered")
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	readDone := make(chan struct{})
	go func() {
		io.Copy(io.Discard, resp.Body)
		close(readDone)
	}()
	select {
	case <-readDone:
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not terminate after Close")
	}
}

// TestServeAndAddr covers the standalone listener path used by the
// -serve flag.
func TestServeAndAddr(t *testing.T) {
	s := New(Config{Registry: obs.NewRegistry()})
	if err := s.Serve("127.0.0.1:0"); err != nil {
		t.Skipf("listen: %v", err) // sandboxed environments may forbid sockets
	}
	defer s.Close()
	if s.Addr() == "" {
		t.Fatal("Addr empty after Serve")
	}
	resp, err := http.Get("http://" + s.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d", resp.StatusCode)
	}
}
