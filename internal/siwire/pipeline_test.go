package siwire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sian/internal/codec"
	"sian/internal/engine"
	"sian/internal/model"
	"sian/internal/obs"
	"sian/internal/obs/txtrace"
)

// countingConn counts the Read and Write calls that reach the
// underlying connection — the syscalls, since bufio sits above it.
type countingConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countingListener hands the server counting connections.
type countingListener struct {
	net.Listener
	accepted chan *countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: conn}
	l.accepted <- cc
	return cc, nil
}

// countingServer is an in-process server over a volatile SI engine
// with the siwire_* counters on.
type countingServer struct {
	addr string
	db   *engine.DB
	reg  *obs.Registry
	// accepted delivers the server side of each connection.
	accepted chan *countingConn
}

func startCountingServer(tb testing.TB) *countingServer {
	tb.Helper()
	db, err := engine.New(engine.SI, engine.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	ps := &countingServer{db: db, reg: obs.NewRegistry(), accepted: make(chan *countingConn, 16)}
	srv := NewServer(ServerConfig{DB: db, Metrics: ps.reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	ps.addr = ln.Addr().String()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(&countingListener{Listener: ln, accepted: ps.accepted}) }()
	tb.Cleanup(func() {
		if err := srv.Close(); err != nil {
			tb.Errorf("server Close: %v", err)
		}
		if err := <-done; err != nil {
			tb.Errorf("Serve: %v", err)
		}
		db.Close()
	})
	return ps
}

func (ps *countingServer) counter(name string) int64 { return ps.reg.Counter(name).Value() }

func (ps *countingServer) dial(tb testing.TB) *Client {
	tb.Helper()
	c, err := Dial(ps.addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c
}

// seed writes the given keys with value 0 through a throw-away client.
func (ps *countingServer) seed(tb testing.TB, keys ...model.Obj) {
	tb.Helper()
	c := ps.dial(tb)
	if _, err := c.Transact(func(tx *ClientTx) error {
		for _, k := range keys {
			if err := tx.Write(k, 0); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	c.Close()
	<-ps.accepted
}

var sixKeys = []model.Obj{"a", "b", "c", "d", "e", "f"}

// fourReadsTwoWrites is the transaction the issue counts round trips
// on: two plain reads and two read-modify-writes.
func fourReadsTwoWrites(tx *ClientTx) error {
	for _, k := range sixKeys[:2] {
		if _, err := tx.Read(k); err != nil {
			return err
		}
	}
	for _, k := range sixKeys[2:4] {
		v, err := tx.Read(k)
		if err != nil {
			return err
		}
		if err := tx.Write(k, v+1); err != nil {
			return err
		}
	}
	return nil
}

// TestTransactRoundTrips pins the point of pipelining: a transaction of
// 4 reads + 2 writes is 8 client calls but 5 blocking round trips —
// begin rides with the first read, each write with the sync point
// after it — and the server answers each burst with one write.
func TestTransactRoundTrips(t *testing.T) {
	ps := startCountingServer(t)
	ps.seed(t, sixKeys...)

	raw, err := net.Dial("tcp", ps.addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: raw}
	c := NewClient(cc)
	defer c.Close()
	sc := <-ps.accepted

	req0, flush0 := ps.counter("siwire_requests_total"), ps.counter("siwire_flushes_total")
	if _, err := c.Transact(fourReadsTwoWrites); err != nil {
		t.Fatal(err)
	}
	if got := cc.writes.Load(); got != 5 {
		t.Errorf("client write syscalls = %d, want 5", got)
	}
	if got := cc.reads.Load(); got != 5 {
		t.Errorf("client blocking reads = %d, want 5", got)
	}
	if got := sc.writes.Load(); got != 5 {
		t.Errorf("server write syscalls = %d, want 5", got)
	}
	if req, fl := ps.counter("siwire_requests_total")-req0, ps.counter("siwire_flushes_total")-flush0; req != 8 || fl != 5 {
		t.Errorf("server counted %d requests in %d flushes, want 8 in 5", req, fl)
	}
}

// rawFrame builds one wire frame from a payload.
func rawFrame(payload ...byte) []byte {
	return append(codec.AppendU32(nil, uint32(len(payload))), payload...)
}

func writeReq(obj string, v uint64) []byte {
	return rawFrame(codec.AppendU64(codec.AppendStr([]byte{opWrite}, obj), v)...)
}

func readReq(obj string) []byte { return rawFrame(codec.AppendStr([]byte{opRead}, obj)...) }

// TestBurstRepliesSurviveHandlerExit is the regression test for the
// missing flush on handleConn's return paths: a pipelined burst whose
// replies are all queued behind a non-empty read buffer, followed by a
// frame that makes the handler give up, must still deliver every
// reply before the connection closes.
func TestBurstRepliesSurviveHandlerExit(t *testing.T) {
	ps := startCountingServer(t)
	conn, err := net.Dial("tcp", ps.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	burst := []byte(Magic)
	burst = append(burst, rawFrame(opBegin)...)
	burst = append(burst, writeReq("x", 1)...)
	burst = append(burst, rawFrame(99)...)                     // garbage op
	burst = append(burst, codec.AppendU32(nil, MaxFrame+1)...) // unreadable frame: the handler exits
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	want := rawFrame(statusOK)
	want = append(want, rawFrame(statusOK)...)
	want = append(want, rawFrame(codec.AppendStr([]byte{statusErr}, "unknown op 99")...)...)
	if !bytes.Equal(got, want) {
		t.Fatalf("replies before close:\n got %x\nwant %x", got, want)
	}
	if n := ps.counter("siwire_flushes_total"); n != 1 {
		t.Errorf("burst of 3 replies took %d flushes, want 1", n)
	}
}

// TestBlockingClientCompat drives the server the way a pre-pipelining
// client does — one frame, wait for the reply, next frame — and pins
// every reply byte for byte: coalescing must be invisible to it.
func TestBlockingClientCompat(t *testing.T) {
	ps := startCountingServer(t)
	conn, err := net.Dial("tcp", ps.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write([]byte(Magic)); err != nil {
		t.Fatal(err)
	}
	okFrame := rawFrame(statusOK)
	steps := []struct {
		name      string
		req, want []byte
	}{
		{"begin", rawFrame(opBegin), okFrame},
		{"read uninitialised", readReq("k"), rawFrame(statusUninitialized)},
		{"write", writeReq("k", 42), okFrame},
		{"read own write", readReq("k"), rawFrame(codec.AppendU64([]byte{statusOK}, 42)...)},
		{"commit", rawFrame(opCommit), rawFrame(codec.AppendU64([]byte{statusOK}, 0)...)},
		{"commit again", rawFrame(opCommit), rawFrame(codec.AppendStr([]byte{statusErr}, "commit: no open transaction")...)},
		{"begin 2", rawFrame(opBegin), okFrame},
		{"double begin", rawFrame(opBegin), rawFrame(codec.AppendStr([]byte{statusErr}, "begin: transaction already open")...)},
		{"abort", rawFrame(opAbort), okFrame},
		{"truncated write", rawFrame(opWrite, 0, 0), rawFrame(codec.AppendStr([]byte{statusErr}, "siwire: truncated write object at offset 1")...)},
	}
	for _, st := range steps {
		if _, err := conn.Write(st.req); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		got := make([]byte, len(st.want))
		if _, err := io.ReadFull(conn, got); err != nil {
			t.Fatalf("%s: reading reply: %v", st.name, err)
		}
		if !bytes.Equal(got, st.want) {
			t.Errorf("%s: reply %x, want %x", st.name, got, st.want)
		}
	}
	if req, fl := ps.counter("siwire_requests_total"), ps.counter("siwire_flushes_total"); req != int64(len(steps)) || fl != req {
		t.Errorf("blocking client: %d requests, %d flushes, want %d each", req, fl, len(steps))
	}
}

// TestReadYourDeferredWrite: a write whose reply has not been read is
// still ahead of the next read on the connection, so the read sees it.
func TestReadYourDeferredWrite(t *testing.T) {
	ps := startCountingServer(t)
	ps.seed(t, "x")
	c := ps.dial(t)
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := model.Value(1); i <= 3; i++ {
		if err := c.Write("x", i); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.pending) != 4 {
		t.Fatalf("begin + 3 writes left %d replies pending, want 4", len(c.pending))
	}
	if v, err := c.Read("x"); err != nil || v != 3 {
		t.Fatalf("read after deferred writes: %d, %v (want 3)", v, err)
	}
	if len(c.pending) != 0 {
		t.Fatalf("sync point left %d replies pending", len(c.pending))
	}
	if _, err := c.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestDeferredErrorSurfaces: a write the server rejects is reported by
// the next sync point, tagged with the operation, and the connection
// stays usable; the same call with the client knowing no transaction
// is open fails locally and sends nothing.
func TestDeferredErrorSurfaces(t *testing.T) {
	ps := startCountingServer(t)
	c := ps.dial(t)

	if err := c.Write("x", 1); err == nil {
		t.Fatal("write without a transaction succeeded")
	}
	if _, err := c.Info(); err != nil {
		t.Fatal(err)
	}
	if n := ps.counter("siwire_requests_total"); n != 1 {
		t.Fatalf("local failure reached the server: %d requests, want 1 (the info)", n)
	}

	// Force the two sides out of step so the server has to reject a
	// deferred write: the client believes a transaction is open.
	c.open = true
	if err := c.Write("x", 1); err != nil {
		t.Fatalf("deferred write reported early: %v", err)
	}
	_, err := c.Read("x")
	if err == nil || !strings.Contains(err.Error(), "write: no open transaction") || !strings.Contains(err.Error(), "deferred write") {
		t.Fatalf("sync point after rejected write: %v", err)
	}
	if errors.Is(err, ErrConflict) {
		t.Fatalf("server error mistaken for a conflict: %v", err)
	}
	if c.open {
		t.Fatal("client still believes the transaction open after an error reply")
	}
	if n := ps.counter("siwire_deferred_errors_total"); n != 1 {
		t.Errorf("siwire_deferred_errors_total = %d, want 1", n)
	}

	if _, err := c.Transact(func(tx *ClientTx) error { return tx.Write("x", 7) }); err != nil {
		t.Fatalf("fresh transaction after the error: %v", err)
	}
	if v, err := readBack(c, "x"); err != nil || v != 7 {
		t.Fatalf("read back: %d, %v", v, err)
	}
}

// TestTransactDeferredBeginFailure: a begin the server refuses comes
// back from Commit; Transact must return it once, without retrying.
func TestTransactDeferredBeginFailure(t *testing.T) {
	ps := startCountingServer(t)
	c := ps.dial(t)
	if _, err := c.Info(); err != nil {
		t.Fatal(err)
	}
	ps.db.Close()
	runs := 0
	_, err := c.Transact(func(tx *ClientTx) error {
		runs++
		return tx.Write("x", 1)
	})
	if err == nil || !strings.Contains(err.Error(), "deferred begin") {
		t.Fatalf("Transact over a closed engine: %v", err)
	}
	if runs != 1 {
		t.Errorf("callback ran %d times, want 1 (no retry on a non-conflict error)", runs)
	}
	if c.open {
		t.Error("transaction left open")
	}
}

// scriptedServer answers the frames of one net.Pipe connection with
// the given replies, in order, then drains the connection.
func scriptedServer(t *testing.T, conn net.Conn, replies ...[]byte) {
	br := bufio.NewReader(conn)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		t.Errorf("scripted server: %v", err)
		return
	}
	var buf []byte
	for _, rep := range replies {
		if _, err := readFrame(br, &buf); err != nil {
			t.Errorf("scripted server: %v", err)
			return
		}
		if _, err := conn.Write(rep); err != nil {
			t.Errorf("scripted server: %v", err)
			return
		}
	}
	io.Copy(io.Discard, br)
}

// TestTransactRetriesWrappedConflict: a conflict reported on a
// deferred reply reaches Transact wrapped with its operation; the
// retry decision must use errors.Is, not ==.
func TestTransactRetriesWrappedConflict(t *testing.T) {
	cli, srv := net.Pipe()
	okFrame := rawFrame(statusOK)
	noTx := rawFrame(codec.AppendStr([]byte{statusErr}, "commit: no open transaction")...)
	done := make(chan struct{})
	go func() {
		defer close(done)
		scriptedServer(t, srv,
			okFrame, rawFrame(statusConflict), noTx, // attempt 1: begin, write, commit
			okFrame, okFrame, rawFrame(codec.AppendU64([]byte{statusOK}, 7)...), // attempt 2
		)
	}()
	c := NewClient(cli)
	runs := 0
	lsn, err := c.Transact(func(tx *ClientTx) error {
		runs++
		return tx.Write("x", 1)
	})
	if err != nil || lsn != 7 || runs != 2 {
		t.Errorf("Transact = lsn %d, %v after %d runs; want 7, nil after 2", lsn, err, runs)
	}
	c.Close()
	<-done
}

// TestHugeTransactionDrains: 50 000 deferred writes in one transaction
// must not wedge client and server on full socket buffers — the drain
// cap collects replies before the write buffer would overflow.
func TestHugeTransactionDrains(t *testing.T) {
	const writes = 50_000
	ps := startCountingServer(t)
	c := ps.dial(t)
	done := make(chan error, 1)
	go func() {
		_, err := c.Transact(func(tx *ClientTx) error {
			for i := 0; i < writes; i++ {
				if err := tx.Write(model.Obj(fmt.Sprintf("big%05d", i)), model.Value(i)); err != nil {
					return err
				}
			}
			return nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("50 000-write transaction did not finish: client and server wedged")
	}
	req, fl := ps.counter("siwire_requests_total"), ps.counter("siwire_flushes_total")
	if req != writes+2 {
		t.Errorf("server saw %d requests, want %d", req, writes+2)
	}
	if fl < 2 || fl > req/100 {
		t.Errorf("%d flushes for %d requests: want the cap to force several drains, far fewer than one per request", fl, req)
	}
	if v, err := readBack(c, model.Obj(fmt.Sprintf("big%05d", writes-1))); err != nil || v != writes-1 {
		t.Fatalf("last write: %d, %v", v, err)
	}
}

// TestUnbufferedTransport runs the pipelined client over net.Pipe,
// which has no buffering at all: every write blocks until the peer
// reads, so any client write with replies unread would deadlock.
func TestUnbufferedTransport(t *testing.T) {
	db, err := engine.New(engine.SI, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cli, srvConn := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		NewServer(ServerConfig{DB: db}).newConn(srvConn).serve()
		srvConn.Close()
	}()
	c := NewClient(cli)
	done := make(chan error, 1)
	go func() {
		_, err := c.Transact(func(tx *ClientTx) error {
			// Long keys make the queued writes overflow the 16 KiB
			// write buffer several times.
			for i := 0; i < 400; i++ {
				if err := tx.Write(model.Obj(fmt.Sprintf("%0200d", i)), model.Value(i)); err != nil {
					return err
				}
			}
			_, err := tx.Read(model.Obj(fmt.Sprintf("%0200d", 399)))
			return err
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("pipelined client deadlocked on an unbuffered transport")
	}
	c.Close()
	<-served
}

// FuzzServerFrames feeds arbitrary bytes after the magic into a
// connection handler: it must never panic, always terminate once the
// peer closes, and never leave a transaction open.
func FuzzServerFrames(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Join([][]byte{rawFrame(opBegin), writeReq("x", 1), readReq("x"), rawFrame(opCommit)}, nil))
	f.Add(bytes.Join([][]byte{rawFrame(opBegin), rawFrame(opBegin)}, nil))
	f.Add(bytes.Join([][]byte{rawFrame(opBegin, 0, 0, 0, 0, 0, 0, 0, 9), writeReq("y", 2)}, nil))
	f.Add(bytes.Join([][]byte{rawFrame(opBegin), rawFrame(99), codec.AppendU32(nil, MaxFrame+1)}, nil))
	f.Add(bytes.Join([][]byte{rawFrame(opInfo), rawFrame(opAbort), rawFrame(), {0, 0}}, nil))
	f.Add(rawFrame(opWrite, 0xff, 0xff, 0xff, 0xff))

	db, err := engine.New(engine.SI, engine.Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { db.Close() })
	srv := NewServer(ServerConfig{DB: db})

	f.Fuzz(func(t *testing.T, data []byte) {
		cli, srvConn := net.Pipe()
		c := srv.newConn(srvConn)
		served := make(chan struct{})
		go func() {
			defer close(served)
			c.serve()
			srvConn.Close()
		}()
		go io.Copy(io.Discard, cli)
		cli.Write(append([]byte(Magic), data...)) // fails only if the handler left first
		cli.Close()
		select {
		case <-served:
		case <-time.After(30 * time.Second):
			t.Fatal("handler did not terminate after the peer closed")
		}
		if c.tx != nil {
			t.Fatal("handler returned with a transaction open")
		}
	})
}

// FuzzReader parses arbitrary bytes as a run of commit trace blobs:
// each blob parses whole or fails with no partial result. The reader's
// own properties are codec.FuzzCodec's.
func FuzzReader(f *testing.F) {
	tr := txtrace.New(txtrace.Options{Start: 0xee}).Begin("s")
	tr.MarkAttrs(txtrace.StageValidate, map[string]int64{"k": -1})
	tr.Finish(txtrace.OutcomeCommit, 0)
	f.Add(appendTraceBlob(nil, tr.Data()))
	f.Add([]byte("payload"))
	f.Add(codec.AppendU32(codec.AppendU64(nil, 9), 0xffffffff))
	f.Add(codec.AppendStr(codec.AppendU32(codec.AppendU64(nil, 9), 1), "stage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := codec.NewReader("siwire", data)
		for r.Remaining() > 0 {
			id, spans := parseTraceBlob(&r)
			if r.Err() != nil && (id != 0 || spans != nil) {
				t.Fatalf("partial trace blob (%#x, %d spans) despite %v", id, len(spans), r.Err())
			}
		}
	})
}

// BenchmarkFrameCodec round-trips one write request through the frame
// codec (newFrame, append*, writeFrame, flush, readFrame, decode) over
// an in-memory transport. The codec must not allocate: 0 allocs/op.
func BenchmarkFrameCodec(b *testing.B) {
	var wire bytes.Buffer
	bw, br := bufio.NewWriter(&wire), bufio.NewReader(&wire)
	var frame, rbuf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame = newFrame(frame, opWrite)
		frame = codec.AppendStr(frame, "d0_0001")
		frame = codec.AppendU64(frame, uint64(i))
		if err := writeFrame(bw, frame); err != nil {
			b.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			b.Fatal(err)
		}
		payload, err := readFrame(br, &rbuf)
		if err != nil {
			b.Fatal(err)
		}
		// The key is compared in place: Reader.Str copies out, and that
		// copy is the decoder's one intended allocation, not the codec's.
		r := codec.NewReader("siwire", payload)
		op, n := r.U8("op"), int(r.U32("obj len"))
		key := r.Rest()
		if r.Err() != nil || op != opWrite || n > len(key) || string(key[:n]) != "d0_0001" {
			b.Fatalf("frame %d decoded wrong: %v", i, r.Err())
		}
		r = codec.NewReader("siwire", key[n:])
		if r.U64("val") != uint64(i) || r.Remaining() != 0 {
			b.Fatalf("frame %d decoded wrong: %v", i, r.Err())
		}
	}
}

// BenchmarkLoopbackTransact is one 4-read + 2-write transaction per
// iteration through Client.Transact over loopback TCP; flushes/op is
// the server's socket writes per transaction (5 when pipelined, 8 for
// a blocking client).
func BenchmarkLoopbackTransact(b *testing.B) {
	ps := startCountingServer(b)
	ps.seed(b, sixKeys...)
	c := ps.dial(b)
	if _, err := c.Info(); err != nil {
		b.Fatal(err)
	}
	flush0 := ps.counter("siwire_flushes_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Transact(fourReadsTwoWrites); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(ps.counter("siwire_flushes_total")-flush0)/float64(b.N), "flushes/op")
}
