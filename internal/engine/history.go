package engine

import (
	"maps"
	"slices"
	"strconv"

	"sian/internal/codec"
	"sian/internal/model"
)

// A history log's chunks double in capacity from histFirstChunk up to
// histChunk, so a session that commits little stays small. A
// transaction whose encoding exceeds the next chunk gets a chunk of its
// own, exactly its size.
const (
	histFirstChunk = 256
	histChunk      = 64 << 10
)

// histLog is a session's committed history: an append-only log of
// byte chunks, so the retained history holds no pointers for the
// garbage collector to scan. Per transaction it stores codec's op
// list. Transaction ids are derived at decode time (txID); only
// labelled transactions keep their label.
//
// Chunks are only ever appended to, so a copy of the chunk headers
// taken under the session lock (snapshot) stays valid while later
// commits extend the log.
type histLog struct {
	chunks [][]byte
	n      int            // transactions appended
	names  map[int]string // sequence number → label, labelled transactions only
}

// append encodes a committed transaction and returns its 1-based
// sequence number.
func (l *histLog) append(name string, ops []model.Op) int {
	size := codec.OpsLen(ops)
	var tail []byte
	if k := len(l.chunks); k > 0 {
		tail = l.chunks[k-1]
	}
	if cap(tail)-len(tail) < size {
		tail = make([]byte, 0, max(size, min(2*cap(tail), histChunk), histFirstChunk))
		l.chunks = append(l.chunks, tail)
	}
	l.chunks[len(l.chunks)-1] = codec.AppendOps(tail, ops)
	l.n++
	if name != "" {
		if l.names == nil {
			l.names = make(map[int]string)
		}
		l.names[l.n] = name
	}
	return l.n
}

// snapshot copies the log's chunk headers and labels; the caller holds
// the lock that serialises append.
func (l *histLog) snapshot() histLog {
	return histLog{chunks: slices.Clone(l.chunks), n: l.n, names: maps.Clone(l.names)}
}

// decode rebuilds the log's transactions of the given session. Object
// names are deduplicated through intern, which may be shared across
// sessions.
func (l histLog) decode(session string, intern map[string]model.Obj) []model.Transaction {
	txs := make([]model.Transaction, 0, l.n)
	for _, c := range l.chunks {
		r := codec.NewReader("engine", c)
		for r.Remaining() > 0 {
			seq := len(txs) + 1
			txs = append(txs, model.Transaction{ID: txID(session, seq, l.names[seq]), Ops: r.Ops(intern)})
		}
	}
	return txs
}

// txID is the id the seq-th committed transaction of a session is
// recorded under: "<session>/<label>" for a labelled transaction,
// "<session>/<seq>" otherwise — except that the first unlabelled
// transaction of the session named model.InitTransactionID keeps that
// bare name, so certifiers and tools recognise it (PinInit).
func txID(session string, seq int, name string) string {
	switch {
	case name != "":
		return session + "/" + name
	case seq == 1 && session == model.InitTransactionID:
		return model.InitTransactionID
	default:
		return session + "/" + strconv.Itoa(seq)
	}
}
