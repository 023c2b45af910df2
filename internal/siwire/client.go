package siwire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"sian/internal/codec"
	"sian/internal/model"
	"sian/internal/obs/txtrace"
)

// Client is a binary-protocol connection to a siwire server: one
// session, at most one open transaction. Requests are pipelined (see
// the package doc): Begin and Write only queue their frame, the other
// calls are sync points that flush once and collect every outstanding
// reply. Not safe for concurrent use; open one Client per worker
// goroutine.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	req  []byte // request frame under construction, reused across calls
	rbuf []byte // response read buffer, reused across frames

	// open mirrors the server's "this connection has an open
	// transaction": set by Begin, cleared by Commit, Abort and any
	// error or conflict reply (the server finishes the transaction on
	// each). It is what lets double-begin and op-without-begin fail
	// locally, with no round trip.
	open bool
	// pending lists the opcodes of queued requests whose replies have
	// not been read yet, in send order.
	pending []byte
	// err is the transport failure that broke the connection. Once
	// requests and replies are out of step every call returns it.
	err error
}

// connBuf sizes the bufio buffers on both ends of a connection. On the
// client it is also the drain cap: a request that does not fit the
// write buffer while replies are outstanding first flushes and
// collects them (Client.send), so the client never writes to the
// socket with replies unread and the two sides cannot wedge each other
// on full socket buffers. The server reads with the same size, so one
// client flush is one server read even on an unbuffered transport.
const connBuf = 1 << 14

// NewClient wraps an established connection. The magic handshake is
// queued and leaves with the first flush.
func NewClient(conn net.Conn) *Client {
	c := &Client{conn: conn, br: bufio.NewReaderSize(conn, connBuf), bw: bufio.NewWriterSize(conn, connBuf)}
	c.bw.WriteString(Magic) // cannot fail: 8 bytes into an empty buffer
	return c
}

// Dial connects to a siwire server over TCP.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("siwire: %w", err)
	}
	return NewClient(conn), nil
}

// Close closes the connection; an open transaction aborts server-side.
func (c *Client) Close() error { return c.conn.Close() }

// opNames labels requests in client-side errors.
var opNames = [...]string{
	opBegin: "begin", opRead: "read", opWrite: "write",
	opCommit: "commit", opAbort: "abort", opInfo: "info",
}

// request starts a request frame in the reused scratch.
func (c *Client) request(op byte) { c.req = newFrame(c.req, op) }

// needTx is the local half of the protocol's state check.
func (c *Client) needTx(op byte) error {
	if c.err != nil {
		return c.err
	}
	if !c.open {
		return fmt.Errorf("siwire: %s: no open transaction", opNames[op])
	}
	return nil
}

// send queues the request frame in c.req. The write buffer is never
// allowed to overflow onto the socket while replies are outstanding:
// those are collected first, so every flush is followed by reading all
// replies to what it sent.
func (c *Client) send() error {
	if len(c.pending) > 0 && len(c.req) > c.bw.Available() {
		if err := c.drain(); err != nil {
			return err
		}
	}
	return writeFrame(c.bw, c.req)
}

// enqueue sends c.req as a deferred-reply request: queued, not flushed,
// its reply left for the next sync point.
func (c *Client) enqueue() error {
	if err := c.send(); err != nil {
		return err
	}
	c.pending = append(c.pending, c.req[frameHeader])
	return nil
}

// readReply reads one response frame. The body aliases the read buffer
// and is valid until the next readReply.
func (c *Client) readReply() (status byte, body []byte, err error) {
	payload, err := readFrame(c.br, &c.rbuf)
	if err != nil {
		c.err = fmt.Errorf("siwire: connection broken: %w", err)
		return 0, nil, c.err
	}
	r := codec.NewReader("siwire", payload)
	status = r.U8("status")
	if r.Err() != nil {
		c.err = r.Err()
		return 0, nil, c.err
	}
	switch status {
	case statusErr:
		c.open = false // the server aborts the transaction on every error reply
		return status, nil, fmt.Errorf("siwire: server: %s", r.Str("error message"))
	case statusConflict:
		c.open = false
		return status, nil, ErrConflict
	}
	return status, r.Rest(), nil
}

// drain flushes the queued requests and reads the deferred replies in
// order. It returns the first failed one, tagged with its operation;
// the later ones failed because of it (the server had no transaction
// left) and are dropped.
func (c *Client) drain() error {
	if err := c.bw.Flush(); err != nil {
		c.err = fmt.Errorf("siwire: connection broken: %w", err)
		return c.err
	}
	var first error
	for _, op := range c.pending {
		status, _, err := c.readReply()
		if c.err != nil {
			return c.err
		}
		if err == nil && status != statusOK {
			err = fmt.Errorf("siwire: unexpected status %d", status)
		}
		if err != nil && first == nil {
			first = fmt.Errorf("%w (deferred %s)", err, opNames[op])
		}
	}
	c.pending = c.pending[:0]
	return first
}

// roundTrip makes the request in c.req a sync point: it is queued
// behind the deferred requests, everything leaves in one flush, the
// deferred replies are read in order and then the request's own. A
// failed deferred reply takes precedence over the request's own
// outcome, which it caused.
func (c *Client) roundTrip() (status byte, body []byte, err error) {
	if c.err != nil {
		return 0, nil, c.err
	}
	if err := c.send(); err != nil {
		return 0, nil, err
	}
	derr := c.drain()
	if c.err != nil {
		return 0, nil, c.err
	}
	status, body, err = c.readReply()
	if derr != nil {
		return 0, nil, derr
	}
	return status, body, err
}

// Begin starts a transaction on the connection.
func (c *Client) Begin() error { return c.BeginTraced(0) }

// BeginTraced starts a transaction and propagates a client-assigned
// trace ID (the version-tolerant begin extension): a tracing server
// adopts the ID for its pipeline spans, an old or untracing server
// ignores it. A zero ID sends a plain begin.
//
// Begin is a deferred-reply request: it returns once the frame is
// queued. The server takes the snapshot when the frame reaches it,
// which is no later than the transaction's first read; a server-side
// failure is reported by the next sync point.
func (c *Client) BeginTraced(traceID uint64) error {
	if c.err != nil {
		return c.err
	}
	if c.open {
		return errors.New("siwire: begin: transaction already open")
	}
	c.request(opBegin)
	if traceID != 0 {
		c.req = codec.AppendU64(c.req, traceID)
	}
	if err := c.enqueue(); err != nil {
		return err
	}
	c.open = true
	return nil
}

// Read reads x at the open transaction's snapshot. ErrUninitialized
// reports an object with no version (the transaction stays open).
func (c *Client) Read(x model.Obj) (model.Value, error) {
	if err := c.needTx(opRead); err != nil {
		return 0, err
	}
	c.request(opRead)
	c.req = codec.AppendStr(c.req, string(x))
	status, body, err := c.roundTrip()
	if err != nil {
		return 0, err
	}
	switch status {
	case statusOK:
		r := codec.NewReader("siwire", body)
		v := model.Value(r.U64("read value"))
		return v, r.Err()
	case statusUninitialized:
		return 0, ErrUninitialized
	default:
		return 0, fmt.Errorf("siwire: read: unexpected status %d", status)
	}
}

// Write buffers a write into the open transaction. It is a
// deferred-reply request: nobody can observe the write before commit,
// so the call returns once the frame is queued and a server-side
// failure is reported by the next sync point.
func (c *Client) Write(x model.Obj, v model.Value) error {
	if err := c.needTx(opWrite); err != nil {
		return err
	}
	c.request(opWrite)
	c.req = codec.AppendStr(c.req, string(x))
	c.req = codec.AppendU64(c.req, uint64(v))
	return c.enqueue()
}

// commit runs the commit round trip shared by Commit and CommitTraced
// and returns the ok body. The transaction is finished either way.
func (c *Client) commit() ([]byte, error) {
	if err := c.needTx(opCommit); err != nil {
		return nil, err
	}
	c.request(opCommit)
	status, body, err := c.roundTrip()
	c.open = false
	if err != nil {
		return nil, err
	}
	if status != statusOK {
		return nil, fmt.Errorf("siwire: commit: unexpected status %d", status)
	}
	return body, nil
}

// Commit commits the open transaction and returns its durability LSN
// (zero for read-only transactions or volatile servers). ErrConflict
// reports a lost first-committer-wins race; the transaction is
// finished either way. Trailing response bytes (a tracing server's
// trace blob) are ignored — this is exactly the pre-extension parser.
func (c *Client) Commit() (uint64, error) {
	body, err := c.commit()
	if err != nil {
		return 0, err
	}
	r := codec.NewReader("siwire", body)
	lsn := r.U64("commit lsn")
	return lsn, r.Err()
}

// CommitResult is CommitTraced's decoded response: the durability LSN
// plus, when the server traces, the server-side trace ID and pipeline
// stage spans of the committed transaction.
type CommitResult struct {
	LSN uint64
	// TraceID is the server's trace ID (the client's, when propagated
	// via BeginTraced); zero when the server does not trace.
	TraceID uint64
	// ServerSpans are the server's pipeline stage spans (lock_wait,
	// validate, install, wal_append, fsync_wait, publish, ack, …),
	// ready to merge into a client-side trace via Trace.AddSpans.
	ServerSpans []txtrace.Span
}

// CommitTraced commits like Commit and additionally decodes the
// server's trace blob when present (absent on old or untracing
// servers: the result then carries only the LSN).
func (c *Client) CommitTraced() (CommitResult, error) {
	body, err := c.commit()
	if err != nil {
		return CommitResult{}, err
	}
	r := codec.NewReader("siwire", body)
	res := CommitResult{LSN: r.U64("commit lsn")}
	if r.Err() == nil && r.Remaining() > 0 {
		res.TraceID, res.ServerSpans = parseTraceBlob(&r)
	}
	return res, r.Err()
}

// Abort abandons the open transaction. With none open it is a local
// no-op: the server finished it already.
func (c *Client) Abort() error {
	if c.err != nil {
		return c.err
	}
	if !c.open {
		return nil
	}
	c.request(opAbort)
	status, _, err := c.roundTrip()
	c.open = false
	if err != nil {
		return err
	}
	if status != statusOK {
		return fmt.Errorf("siwire: abort: unexpected status %d", status)
	}
	return nil
}

// Info fetches the server identity document.
func (c *Client) Info() (Info, error) {
	c.request(opInfo)
	status, body, err := c.roundTrip()
	if err != nil {
		return Info{}, err
	}
	if status != statusOK {
		return Info{}, fmt.Errorf("siwire: info: unexpected status %d", status)
	}
	var info Info
	if err := json.Unmarshal(body, &info); err != nil {
		return Info{}, fmt.Errorf("siwire: info: %w", err)
	}
	return info, nil
}

// maxTransactRetries bounds Transact's conflict retries.
const maxTransactRetries = 10000

// Transact runs fn inside a transaction with the standard client-side
// retry loop: on ErrConflict from the commit it begins a fresh attempt
// (with a short capped backoff to de-synchronise contending clients);
// on any other error it aborts and returns. It returns the commit's
// durability LSN.
func (c *Client) Transact(fn func(tx *ClientTx) error) (uint64, error) {
	for attempt := 0; attempt < maxTransactRetries; attempt++ {
		if err := c.Begin(); err != nil {
			return 0, err
		}
		if err := fn(&ClientTx{c: c}); err != nil {
			if aerr := c.Abort(); aerr != nil {
				return 0, aerr
			}
			return 0, err
		}
		lsn, err := c.Commit()
		if err == nil {
			return lsn, nil
		}
		if !errors.Is(err, ErrConflict) {
			// A begin or write the server rejected surfaces here too;
			// the server aborted the transaction when it did, exactly
			// as after the synchronous failure it replaces.
			return 0, err
		}
		if attempt > 3 {
			backoff := time.Microsecond << uint(min(attempt, 10))
			time.Sleep(backoff)
		}
	}
	return 0, fmt.Errorf("siwire: too many conflict retries")
}

// ClientTx is the transaction handle passed to Transact callbacks.
type ClientTx struct{ c *Client }

// Read reads x at the transaction's snapshot.
func (t *ClientTx) Read(x model.Obj) (model.Value, error) { return t.c.Read(x) }

// Write buffers a write.
func (t *ClientTx) Write(x model.Obj, v model.Value) error { return t.c.Write(x, v) }
