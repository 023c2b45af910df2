package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"sian/internal/histio"
	"sian/internal/workload"
)

func testdata(name string) string {
	return filepath.Join("..", "..", "testdata", name)
}

// lockedBuffer is a bytes.Buffer a run can write while the test reads.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// waitFor polls buf until it contains want, failing the test after
// five seconds.
func waitFor(t *testing.T, buf *lockedBuffer, want string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !strings.Contains(buf.String(), want); {
		if time.Now().After(deadline) {
			t.Fatalf("no %q within 5s:\n%s", want, buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunModelExitCodes: write skew is allowed by SI and rejected by
// SER, mapped to exit codes 0 and 1, whether it arrives as a document
// or as an event stream; the stream's rejection streams a violation
// line.
func TestRunModelExitCodes(t *testing.T) {
	t.Parallel()
	doc := testdata("writeskew_history.json")
	f, err := os.Open(doc)
	if err != nil {
		t.Fatal(err)
	}
	h, err := histio.DecodeHistory(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	stream := filepath.Join(t.TempDir(), "ws.ndjson")
	var events bytes.Buffer
	if err := histio.EncodeEvents(&events, histio.HistoryToEvents(h)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stream, events.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{doc, stream} {
		var out bytes.Buffer
		code, err := run([]string{"-model", "si", path}, strings.NewReader(""), &out, io.Discard)
		if err != nil || code != 0 || !strings.Contains(out.String(), "SI   ALLOWED") {
			t.Fatalf("%s si: code=%d err=%v\n%s", path, code, err, out.String())
		}
		out.Reset()
		code, err = run([]string{"-model", "ser", path}, strings.NewReader(""), &out, io.Discard)
		if err != nil || code != 1 || !strings.Contains(out.String(), "SER  DISALLOWED") {
			t.Fatalf("%s ser: code=%d err=%v\n%s", path, code, err, out.String())
		}
		if path == stream && !strings.Contains(out.String(), "violation of SER at commit") {
			t.Errorf("stream ser output has no violation line: %s", out.String())
		}
	}
}

// TestRunEventFile certifies an NDJSON event dump of the lost update.
func TestRunEventFile(t *testing.T) {
	t.Parallel()
	path := eventsFile(t, "lu", workload.LostUpdate())
	var out bytes.Buffer
	code, err := run([]string{"-model", "si", path}, strings.NewReader(""), &out, io.Discard)
	if err != nil || code != 1 {
		t.Fatalf("code=%d err=%v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "NOCONFLICT") {
		t.Errorf("output lacks the NOCONFLICT verdict: %s", out.String())
	}
}

// TestRunStdinPipeStreaming feeds events line by line through a pipe,
// the live-tail path: the monitor must consume them as they arrive.
func TestRunStdinPipeStreaming(t *testing.T) {
	t.Parallel()
	var encoded bytes.Buffer
	if err := histio.EncodeEvents(&encoded, histio.HistoryToEvents(workload.WriteSkew().History)); err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	go func() {
		for _, line := range strings.SplitAfter(strings.TrimSuffix(encoded.String(), "\n"), "\n") {
			if _, err := io.WriteString(pw, line); err != nil {
				return
			}
		}
		pw.Close()
	}()
	var out bytes.Buffer
	code, err := run([]string{"-model", "si"}, pr, &out, io.Discard)
	if err != nil || code != 0 || !strings.Contains(out.String(), "SI   ALLOWED") {
		t.Fatalf("code=%d err=%v\n%s", code, err, out.String())
	}
}

// TestRunShortLiveStream writes a violating stream far shorter than
// 512 bytes into a pipe that stays open: the violation must print
// before the writer closes, so the input kind is decided from the
// bytes that arrived rather than from a fixed-size prefix.
func TestRunShortLiveStream(t *testing.T) {
	t.Parallel()
	const stream = `{"seq":1,"kind":"read","session":"a","tx":"a1","obj":"x"}
{"seq":2,"kind":"write","session":"a","tx":"a1","obj":"x","val":1}
{"seq":3,"kind":"commit","session":"a","tx":"a1"}
{"seq":4,"kind":"read","session":"b","tx":"b1","obj":"x"}
{"seq":5,"kind":"write","session":"b","tx":"b1","obj":"x","val":2}
{"seq":6,"kind":"commit","session":"b","tx":"b1"}
`
	if len(stream) >= 512 {
		t.Fatalf("stream is %d bytes, want < 512", len(stream))
	}
	pr, pw := io.Pipe()
	out := new(lockedBuffer)
	type result struct {
		code int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		code, err := run([]string{"-model", "si"}, pr, out, io.Discard)
		done <- result{code, err}
	}()
	if _, err := io.WriteString(pw, stream); err != nil {
		t.Fatal(err)
	}
	waitFor(t, out, "violation of SI at commit b1")
	pw.Close()
	if r := <-done; r.err != nil || r.code != 1 {
		t.Fatalf("code=%d err=%v\n%s", r.code, r.err, out.String())
	}
}

// TestRunStdinAutodetect pipes the long-fork fixture into stdin as a
// document and as an event stream; both are detected and certified,
// also when every read delivers a single byte.
func TestRunStdinAutodetect(t *testing.T) {
	t.Parallel()
	data, err := os.ReadFile(testdata("longfork_history.json"))
	if err != nil {
		t.Fatal(err)
	}
	h, err := histio.DecodeHistory(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var events bytes.Buffer
	if err := histio.EncodeEvents(&events, histio.HistoryToEvents(h)); err != nil {
		t.Fatal(err)
	}
	for _, input := range [][]byte{data, events.Bytes()} {
		var out bytes.Buffer
		code, err := run([]string{"-model", "psi"}, iotest.OneByteReader(bytes.NewReader(input)), &out, io.Discard)
		if err != nil || code != 0 {
			t.Fatalf("psi: code=%d err=%v\n%s", code, err, out.String())
		}
		out.Reset()
		code, err = run([]string{"-model", "si"}, bytes.NewReader(input), &out, io.Discard)
		if err != nil || code != 1 {
			t.Fatalf("si: code=%d err=%v\n%s", code, err, out.String())
		}
	}
}

// TestRunFollowIdleExit tails pre-written files with -follow;
// -idle-exit bounds the wait so the run concludes on its own, for
// either kind of input.
func TestRunFollowIdleExit(t *testing.T) {
	t.Parallel()
	ex := workload.SessionGuarantees()
	for _, path := range []string{eventsFile(t, "sg", ex), historyFile(t, "sg", ex)} {
		var out bytes.Buffer
		code, err := run([]string{"-model", "si", "-follow", "-idle-exit", "300ms", path}, strings.NewReader(""), &out, io.Discard)
		if err != nil || code != 0 {
			t.Fatalf("%s: code=%d err=%v\n%s", path, code, err, out.String())
		}
	}
}

// TestRunStreamMetricsDump prints the monitors' registry in Prometheus
// format: one labelled series per model.
func TestRunStreamMetricsDump(t *testing.T) {
	t.Parallel()
	path := eventsFile(t, "ws", workload.WriteSkew())
	var out bytes.Buffer
	code, err := run([]string{"-model", "all", "-metrics", "-", path}, strings.NewReader(""), &out, io.Discard)
	if err != nil || code != 1 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	for _, want := range []string{
		"monitor_events_ingested_total",
		`monitor_commits_total{model="SER"} 3`,
		`monitor_commits_total{model="GSI"} 3`,
		"monitor_window_txns",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("metrics dump lacks %s:\n%s", want, out.String())
		}
	}
}

// TestRunStreamUsageErrors: usage errors met with an event stream, and
// the flags one kind of input cannot honour, exit 2 with an error.
func TestRunStreamUsageErrors(t *testing.T) {
	t.Parallel()
	doc := historyFile(t, "ws", workload.WriteSkew())
	stream := eventsFile(t, "ws", workload.WriteSkew())
	lines, err := os.ReadFile(stream)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args  []string
		stdin string
		want  string
	}{
		{[]string{"-model", "bogus"}, string(lines), "unknown model"},
		{[]string{filepath.Join(t.TempDir(), "missing.ndjson")}, "", "no such file"},
		{[]string{stream, stream}, "", "at most one input file"},
		{[]string{"-quiet", stream}, "", "flag provided but not defined: -quiet"},
		{[]string{"-window", "4", doc}, "", "-window does not apply to a history document"},
		{[]string{"-classify", stream}, "", "-classify does not apply to an event stream"},
		{[]string{"-witness", stream}, "", "-witness does not apply to an event stream"},
		{[]string{"-dot", "-", stream}, "", "-dot does not apply to an event stream"},
	} {
		var out bytes.Buffer
		code, err := run(c.args, strings.NewReader(c.stdin), &out, io.Discard)
		if code != 2 || err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: code=%d err=%v, want 2 and an error containing %q", c.args, code, err, c.want)
		}
	}
}

// TestRunWindow exercises the bounded-window path end to end.
func TestRunWindow(t *testing.T) {
	t.Parallel()
	var in bytes.Buffer
	n := 0
	seq := func() int64 { n++; return int64(n) }
	for i := 1; i <= 100; i++ {
		fmt.Fprintf(&in, `{"seq":%d,"kind":"begin","session":"s","tx":"s#%d"}`+"\n", seq(), i)
		fmt.Fprintf(&in, `{"seq":%d,"kind":"write","session":"s","tx":"s#%d","obj":"x","val":%d}`+"\n", seq(), i, i)
		fmt.Fprintf(&in, `{"seq":%d,"kind":"commit","session":"s","tx":"s#%d","name":"T%d"}`+"\n", seq(), i, i)
	}
	var out bytes.Buffer
	code, err := run([]string{"-model", "si", "-window", "8"}, &in, &out, io.Discard)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "92 collapsed") {
		t.Errorf("output lacks collapse count: %s", out.String())
	}
}
