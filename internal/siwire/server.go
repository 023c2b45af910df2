package siwire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"

	"sian/internal/codec"
	"sian/internal/engine"
	"sian/internal/model"
	"sian/internal/obs"
)

// ServerConfig parameterises a Server.
type ServerConfig struct {
	// DB is the engine the server fronts. The server does not own it:
	// the caller closes it after Close returns.
	DB *engine.DB
	// Info, when set, supplies the identity document served to info
	// requests; the zero Info is served otherwise.
	Info func() Info
	// Metrics, when set, receives the server's siwire_* counters:
	// siwire_requests_total and siwire_flushes_total (their ratio is
	// the flush coalescing factor: requests answered per write to a
	// socket) and siwire_deferred_errors_total (error replies to begin
	// and write, the requests whose replies a pipelined client defers).
	// Nil disables.
	Metrics *obs.Registry
}

// Server speaks the siwire binary protocol over a listener: one
// accepted connection = one engine session = at most one open
// transaction. Create with NewServer, run with Serve, stop with Close.
type Server struct {
	cfg ServerConfig

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	wg     sync.WaitGroup
	nextID atomic.Uint64

	requests, flushes, deferredErrs *obs.Counter

	// httpSessions pools engine sessions for the HTTP fallback, which
	// has no connection to pin a session to.
	httpMu       sync.Mutex
	httpSessions []*engine.Session
}

// NewServer returns an unstarted server.
func NewServer(cfg ServerConfig) *Server {
	return &Server{
		cfg:          cfg,
		conns:        make(map[net.Conn]struct{}),
		requests:     cfg.Metrics.Counter("siwire_requests_total"),
		flushes:      cfg.Metrics.Counter("siwire_flushes_total"),
		deferredErrs: cfg.Metrics.Counter("siwire_deferred_errors_total"),
	}
}

// Serve accepts connections on ln until Close. It returns nil after a
// graceful Close, also one that came before Serve (ln is then closed
// unused), the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// Close stops accepting, closes every live connection (open
// transactions abort), and waits for the handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// wireConn is the protocol state of one accepted connection.
type wireConn struct {
	srv *Server
	br  *bufio.Reader
	bw  *bufio.Writer

	rbuf []byte // request read buffer, reused across frames
	out  []byte // response frame under construction, reused across frames

	sess *engine.Session
	tx   *engine.ManualTx

	// unflushed counts the requests answered since the last flush.
	unflushed int64
}

// handleConn runs one connection's request loop. Any transport or
// protocol failure aborts the connection's open transaction — the
// client never saw a commit ok, so nothing acknowledged is lost.
func (s *Server) handleConn(conn net.Conn) {
	defer s.dropConn(conn)
	s.newConn(conn).serve()
}

func (s *Server) newConn(conn net.Conn) *wireConn {
	return &wireConn{srv: s, br: bufio.NewReaderSize(conn, connBuf), bw: bufio.NewWriterSize(conn, connBuf)}
}

// serve runs the request loop until the transport fails or the peer
// sends an unreadable frame.
func (c *wireConn) serve() {
	magic, err := c.br.Peek(len(Magic))
	if err != nil || string(magic) != Magic {
		return
	}
	c.br.Discard(len(Magic))

	c.sess = c.srv.cfg.DB.Session(fmt.Sprintf("wire/%d", c.srv.nextID.Add(1)))
	// On every exit path: replies still queued behind a coalesced
	// flush (a pipelined burst that ends in a protocol error, say)
	// must reach the client before the connection closes, and an open
	// transaction aborts.
	defer func() {
		_ = c.flush() // the connection is going away; its error changes nothing
		if c.tx != nil {
			c.tx.Abort()
			c.tx = nil
		}
	}()

	for {
		payload, err := readFrame(c.br, &c.rbuf)
		if err != nil {
			return
		}
		if err := c.handle(payload); err != nil {
			return
		}
		// Coalesced flush: with another request already received the
		// reply waits for that one's, so a pipelined burst costs one
		// write syscall; a blocking client has nothing buffered here
		// and gets every reply at once.
		if c.br.Buffered() == 0 {
			if err := c.flush(); err != nil {
				return
			}
		}
	}
}

func (c *wireConn) flush() error {
	if c.unflushed == 0 {
		return nil
	}
	c.srv.requests.Add(c.unflushed)
	c.srv.flushes.Inc()
	c.unflushed = 0
	return c.bw.Flush()
}

// reply starts a response frame in the reused scratch; send queues it.
func (c *wireConn) reply(status byte) { c.out = newFrame(c.out, status) }

func (c *wireConn) send() error { return writeFrame(c.bw, c.out) }

func (c *wireConn) ok() error {
	c.reply(statusOK)
	return c.send()
}

// fail answers op with an error and aborts the open transaction.
func (c *wireConn) fail(op byte, msg string) error {
	if c.tx != nil {
		c.tx.Abort()
		c.tx = nil
	}
	if op == opBegin || op == opWrite {
		c.srv.deferredErrs.Inc()
	}
	c.reply(statusErr)
	c.out = codec.AppendStr(c.out, msg)
	return c.send()
}

// handle executes one request and queues its response. The returned
// error is a transport failure; protocol errors are responses.
func (c *wireConn) handle(payload []byte) error {
	c.unflushed++
	r := codec.NewReader("siwire", payload)
	op := r.U8("op")
	switch op {
	case opBegin:
		if c.tx != nil {
			return c.fail(op, "begin: transaction already open")
		}
		// Version-tolerant trace extension: a tracing client appends
		// its u64 trace ID; old clients send no body.
		var traceID uint64
		if r.Remaining() >= 8 {
			traceID = r.U64("trace id")
		}
		tx, err := c.sess.BeginTraced("", traceID)
		if err != nil {
			return c.fail(op, err.Error())
		}
		c.tx = tx
		return c.ok()
	case opRead:
		x := model.Obj(r.Str("read object"))
		if r.Err() != nil {
			return c.fail(op, r.Err().Error())
		}
		if c.tx == nil {
			return c.fail(op, "read: no open transaction")
		}
		v, err := c.tx.Read(x)
		switch {
		case errors.Is(err, engine.ErrUninitialized):
			// The snapshot simply has no version; the transaction
			// stays usable.
			c.reply(statusUninitialized)
		case err != nil:
			return c.fail(op, err.Error())
		default:
			c.reply(statusOK)
			c.out = codec.AppendU64(c.out, uint64(v))
		}
		return c.send()
	case opWrite:
		x := model.Obj(r.Str("write object"))
		v := model.Value(r.U64("write value"))
		if r.Err() != nil {
			return c.fail(op, r.Err().Error())
		}
		if c.tx == nil {
			return c.fail(op, "write: no open transaction")
		}
		if err := c.tx.Write(x, v); err != nil {
			return c.fail(op, err.Error())
		}
		return c.ok()
	case opCommit:
		if c.tx == nil {
			return c.fail(op, "commit: no open transaction")
		}
		tx := c.tx
		c.tx = nil
		err := tx.Commit()
		switch {
		case errors.Is(err, engine.ErrConflict):
			c.reply(statusConflict)
		case err != nil:
			return c.fail(op, err.Error())
		default:
			// Over a durable driver this line is reached only after
			// the commit record is fsynced: ok ⇒ durable. When the
			// server traces, the pipeline spans ride back after the
			// LSN (old clients ignore them).
			c.reply(statusOK)
			c.out = codec.AppendU64(c.out, tx.LSN())
			c.out = appendTraceBlob(c.out, tx.TraceData())
		}
		return c.send()
	case opAbort:
		if c.tx != nil {
			c.tx.Abort()
			c.tx = nil
		}
		return c.ok()
	case opInfo:
		var info Info
		if c.srv.cfg.Info != nil {
			info = c.srv.cfg.Info()
		}
		doc, err := json.Marshal(info)
		if err != nil {
			return c.fail(op, err.Error())
		}
		c.reply(statusOK)
		c.out = append(c.out, doc...)
		return c.send()
	default:
		return c.fail(op, fmt.Sprintf("unknown op %d", op))
	}
}

// --- HTTP/JSON fallback ---

// HTTPOp is one operation of an HTTP transaction request.
type HTTPOp struct {
	// Op is "read" or "write".
	Op  string      `json:"op"`
	Obj string      `json:"obj"`
	Val model.Value `json:"val,omitempty"`
}

// HTTPRequest is the POST /v1/transact body: one transaction's
// operations, executed atomically with server-side conflict retry
// (the HTTP fallback cannot hold a transaction open across requests,
// so unlike the binary protocol the retry loop lives server-side).
type HTTPRequest struct {
	Ops []HTTPOp `json:"ops"`
}

// HTTPResponse is the success body: per-op results (read values,
// null for writes), the commit's durability LSN and how many conflict
// retries it took.
type HTTPResponse struct {
	Results []*model.Value `json:"results"`
	LSN     uint64         `json:"lsn"`
	Retries int            `json:"retries"`
}

const httpMaxRetries = 1000

func (s *Server) getHTTPSession() *engine.Session {
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	if n := len(s.httpSessions); n > 0 {
		sess := s.httpSessions[n-1]
		s.httpSessions = s.httpSessions[:n-1]
		return sess
	}
	return s.cfg.DB.Session(fmt.Sprintf("http/%d", s.nextID.Add(1)))
}

func (s *Server) putHTTPSession(sess *engine.Session) {
	s.httpMu.Lock()
	s.httpSessions = append(s.httpSessions, sess)
	s.httpMu.Unlock()
}

// HTTPHandler returns the JSON fallback endpoints, for mounting on the
// observability plane's mux:
//
//	POST /v1/transact  run one transaction (HTTPRequest → HTTPResponse)
//	GET  /v1/info      the server's Info document
func (s *Server) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/transact", s.handleTransact)
	mux.HandleFunc("GET /v1/info", func(w http.ResponseWriter, r *http.Request) {
		var info Info
		if s.cfg.Info != nil {
			info = s.cfg.Info()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(info)
	})
	return mux
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func (s *Server) handleTransact(w http.ResponseWriter, r *http.Request) {
	var req HTTPRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, MaxFrame))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	for _, op := range req.Ops {
		if op.Op != "read" && op.Op != "write" {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown op %q", op.Op))
			return
		}
		if op.Obj == "" {
			httpError(w, http.StatusBadRequest, "op without obj")
			return
		}
	}
	sess := s.getHTTPSession()
	defer s.putHTTPSession(sess)

	for attempt := 0; attempt < httpMaxRetries; attempt++ {
		tx, err := sess.Begin(fmt.Sprintf("http%d", attempt))
		if err != nil {
			httpError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		results := make([]*model.Value, len(req.Ops))
		opErr := func() error {
			for i, op := range req.Ops {
				if op.Op == "read" {
					v, err := tx.Read(model.Obj(op.Obj))
					if err != nil {
						return err
					}
					results[i] = &v
				} else if err := tx.Write(model.Obj(op.Obj), op.Val); err != nil {
					return err
				}
			}
			return nil
		}()
		if opErr != nil {
			tx.Abort()
			if errors.Is(opErr, engine.ErrUninitialized) {
				httpError(w, http.StatusUnprocessableEntity, opErr.Error())
			} else {
				httpError(w, http.StatusInternalServerError, opErr.Error())
			}
			return
		}
		err = tx.Commit()
		if errors.Is(err, engine.ErrConflict) {
			continue
		}
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(HTTPResponse{Results: results, LSN: tx.LSN(), Retries: attempt})
		return
	}
	httpError(w, http.StatusConflict, "transaction kept conflicting")
}
