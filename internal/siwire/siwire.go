// Package siwire is the wire protocol of the networked transactional
// KV server (cmd/siserve): a length-prefixed binary framing over TCP
// in which one connection is one engine session driving at most one
// interactive transaction at a time, plus an HTTP/JSON fallback for
// clients without the binary codec (Server.HTTPHandler).
//
// # Framing
//
// A connection opens with the 8-byte magic "SIWIRE01" from the client.
// After it, both directions exchange frames:
//
//	frame    := u32 payloadLen | payload        (big-endian, ≤ 1 MiB)
//	request  := u8 op  | body
//	response := u8 status | body
//
// Integers, strings and values are encoded as internal/codec says.
// Requests:
//
//	begin  (1): —               start a transaction on this connection
//	read   (2): str obj         read at the transaction's snapshot
//	write  (3): str obj, i64 v  buffer a write
//	commit (4): —               commit; ok carries u64 LSN
//	abort  (5): —               abandon the transaction
//	info   (6): —               server identity/durability JSON
//
// Statuses: ok (0, body per op), conflict (1, the transaction lost a
// first-committer-wins race and is finished — begin again and retry),
// uninitialized (2, the read object has no version; the transaction
// stays open), error (3, str message; the connection's transaction, if
// any, is aborted).
//
// # Pipelining
//
// The server processes a connection's frames strictly in order and
// answers each with exactly one response, so a client need not wait
// for one reply before sending the next request. Client uses that for
// the two requests whose answer tells it nothing: under SI a write is
// invisible to everyone until commit, and the snapshot only has to be
// fixed before the first read.
//
//   - Deferred-reply requests: begin and write. Client.Begin and
//     Client.Write queue their frame in the connection's write buffer
//     and return; nothing is flushed and no reply is awaited.
//   - Sync points: read, commit, abort and info. The call queues its
//     own frame behind the deferred ones, flushes once, reads the
//     deferred replies in order and then its own. A transaction of 4
//     reads and 2 writes is 8 calls but 5 blocking round trips.
//   - Error surfacing: the first deferred reply that failed is what the
//     sync point returns, tagged "(deferred begin)" or "(deferred
//     write)", with errors.Is(err, ErrConflict) and the server's
//     message preserved. The later replies of the burst, the sync
//     point's own included, failed because of it (the server aborted
//     the transaction) and are dropped. The connection stays in step
//     and a fresh Begin works. The client mirrors "a transaction is
//     open" locally, so a double begin or an operation outside a
//     transaction still fails at once, without a round trip.
//   - Drain cap: a request that does not fit the client's 16 KiB write
//     buffer while replies are outstanding first flushes and collects
//     them. The client therefore never writes to the socket with
//     replies unread, and a transaction of any size cannot wedge the
//     two sides on full socket buffers; a 50 000-write transaction
//     costs one round trip per buffer-full of writes.
//   - Server side: a response is flushed only when no further request
//     has been received already (and on every handler exit), so a
//     pipelined burst is answered with one write to the socket.
//   - Compatibility: no frame changed. A blocking client (one frame,
//     wait, next frame) never has a second request buffered when the
//     first is answered, so it gets every reply at once, byte for byte
//     as before; a pipelined client works against an older server,
//     which merely flushes per reply.
//
// In-order processing is the whole soundness argument: the begin frame
// precedes the transaction's first read on the wire, so the snapshot is
// taken before it (and after the previous commit's reply, which the
// client had read before it queued the begin: session order); a write
// precedes every later read on the same connection, so a transaction
// reads its own writes; and commit remains a sync point whose ok is
// sent only after the engine acknowledged, so ok still means durable.
//
// # Trace propagation (version-tolerant extension)
//
// A tracing client may append a u64 trace ID to the begin request; a
// tracing server adopts it for the transaction's txtrace trace, so the
// client's wire spans and the server's pipeline spans share one ID. A
// tracing server in turn appends a trace blob after the LSN of the
// commit ok body:
//
//	blob  := u64 traceID | u32 nspans | nspans × span
//	span  := str stage | u64 startNS | u64 endNS | u32 nattrs | nattrs × (str key | u64 val)
//
// Both extensions are backward- and forward-compatible by
// construction: the original begin handler reads no body (extra bytes
// are ignored), and the original commit parser reads exactly one u64
// and discards the rest. A client or server that does not trace simply
// omits its half, and the other side degrades gracefully.
//
// The server never retries: conflict handling is the client's
// (Client.Transact implements the standard retry loop). A commit's ok
// response is sent only after the engine acknowledged the commit —
// over a durable driver, after the record is fsynced — so a client
// that saw ok owns a durable commit; the returned LSN is its
// durability token.
package siwire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"

	"sian/internal/codec"
	"sian/internal/obs/txtrace"
)

// Magic opens every binary connection.
const Magic = "SIWIRE01"

// MaxFrame bounds a frame payload (1 MiB): far above any sane
// transaction, low enough to reject garbage length prefixes.
const MaxFrame = 1 << 20

// Request opcodes.
const (
	opBegin  byte = 1
	opRead   byte = 2
	opWrite  byte = 3
	opCommit byte = 4
	opAbort  byte = 5
	opInfo   byte = 6
)

// Response statuses.
const (
	statusOK            byte = 0
	statusConflict      byte = 1
	statusUninitialized byte = 2
	statusErr           byte = 3
)

// Sentinel errors mirrored across the wire.
var (
	// ErrConflict reports a commit lost to first-committer-wins; the
	// transaction is finished, begin again to retry.
	ErrConflict = errors.New("siwire: transaction aborted by conflict")
	// ErrUninitialized reports a read of an object with no version.
	ErrUninitialized = errors.New("siwire: object not initialised")
)

// frameHeader is the length prefix's size.
const frameHeader = 4

// retainFrame bounds the read buffer a connection keeps between
// frames: larger frames (up to MaxFrame) get a one-off allocation so a
// single huge request cannot pin a megabyte per connection.
const retainFrame = 1 << 16

// newFrame starts a frame in the reused scratch buf: four bytes
// reserved for the length prefix, then the opcode or status. Callers
// append the body and hand the result to writeFrame.
func newFrame(buf []byte, code byte) []byte {
	return append(buf[:0], 0, 0, 0, 0, code)
}

// writeFrame fills in the length prefix of a frame built with newFrame
// and queues header and payload on w in one buffered write. It does
// not flush: the caller decides when the bytes reach the socket.
func writeFrame(w *bufio.Writer, frame []byte) error {
	n := len(frame) - frameHeader
	if n > MaxFrame {
		return fmt.Errorf("siwire: frame payload %d exceeds limit", n)
	}
	codec.PutU32(frame, uint32(n))
	_, err := w.Write(frame)
	return err
}

// readFrame reads one length-prefixed frame into the connection's
// reused buffer *buf (grown on demand, see retainFrame). The returned
// payload aliases that buffer and is valid until the next readFrame;
// every codec.Reader accessor copies out, so decoded values outlive it.
func readFrame(r *bufio.Reader, buf *[]byte) ([]byte, error) {
	hdr, err := r.Peek(frameHeader)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n32 := codec.U32(hdr)
	if n32 > MaxFrame {
		return nil, fmt.Errorf("siwire: frame payload %d exceeds limit", n32)
	}
	n := int(n32)
	if _, err := r.Discard(frameHeader); err != nil {
		return nil, err
	}
	payload := *buf
	if n > cap(payload) {
		payload = make([]byte, max(n, 256))
		if n <= retainFrame {
			*buf = payload
		}
	}
	payload = payload[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// appendTraceBlob appends the commit response's trace blob (see the
// package doc): the server's trace ID and pipeline spans. A nil td
// appends nothing, which old and new clients alike parse as "server
// not tracing".
func appendTraceBlob(b []byte, td *txtrace.TraceData) []byte {
	if td == nil {
		return b
	}
	b = codec.AppendU64(b, td.ID())
	b = codec.AppendU32(b, uint32(len(td.Spans)))
	for _, sp := range td.Spans {
		b = codec.AppendStr(b, string(sp.Stage))
		b = codec.AppendU64(b, uint64(sp.Start))
		b = codec.AppendU64(b, uint64(sp.End))
		b = codec.AppendU32(b, uint32(len(sp.Attrs)))
		keys := make([]string, 0, len(sp.Attrs))
		for k := range sp.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b = codec.AppendStr(b, k)
			b = codec.AppendU64(b, uint64(sp.Attrs[k]))
		}
	}
	return b
}

// parseTraceBlob decodes a trace blob. Callers check Remaining() > 0
// first; a malformed blob surfaces as the reader's sticky error.
func parseTraceBlob(r *codec.Reader) (traceID uint64, spans []txtrace.Span) {
	traceID = r.U64("trace id")
	n := r.U32("trace span count")
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		sp := txtrace.Span{
			Stage: txtrace.Stage(r.Str("span stage")),
			Start: int64(r.U64("span start")),
			End:   int64(r.U64("span end")),
		}
		na := r.U32("span attr count")
		for j := uint32(0); j < na && r.Err() == nil; j++ {
			k := r.Str("attr key")
			v := int64(r.U64("attr value"))
			if r.Err() == nil {
				if sp.Attrs == nil {
					// The size hint is the peer's claim: bound it by what
					// the frame can still hold (an attr is ≥ 12 bytes).
					sp.Attrs = make(map[string]int64, min(uint64(na), uint64(1+r.Remaining()/12)))
				}
				sp.Attrs[k] = v
			}
		}
		if r.Err() == nil {
			spans = append(spans, sp)
		}
	}
	if r.Err() != nil {
		return 0, nil
	}
	return traceID, spans
}

// Info is the server identity document returned by the info request
// (and GET /v1/info on the HTTP plane).
type Info struct {
	// Name is the serving binary ("siserve"); Engine the isolation
	// level it runs ("si").
	Name   string `json:"name"`
	Engine string `json:"engine"`
	// GitRev is the server build's git revision, recorded by clients
	// into their bench reports (sibench -addr -bench-json).
	GitRev string `json:"git_rev,omitempty"`
	// Durable reports a WAL-backed store; the recovery fields describe
	// the last startup's replay when so.
	Durable           bool   `json:"durable"`
	RecoveryCertified bool   `json:"recovery_certified,omitempty"`
	RecoveryVerdict   string `json:"recovery_verdict,omitempty"`
	RecoveredCommits  int64  `json:"recovered_commits,omitempty"`
	// AppendedLSN and SyncedLSN snapshot the WAL frontier; their gap
	// is the current fsync lag in records.
	AppendedLSN uint64 `json:"appended_lsn,omitempty"`
	SyncedLSN   uint64 `json:"synced_lsn,omitempty"`
}
