// Package model defines the history model of §2 of the paper: events,
// transactions (E, po), sessions and histories (T, SO), together with
// the derived transaction-level read/write judgements (T ⊢ read(x, n),
// T ⊢ write(x, n)), the WriteTx_x sets, the internal consistency axiom
// INT, and the splice operation of §5.
//
// Transactions inside a history are referred to by dense indices
// (0, …, len(T)-1); every relation over a history's transactions
// (session order, visibility, dependencies, …) uses those indices as
// its carrier, which lets the whole analysis pipeline share the bitset
// relations of internal/relation.
package model

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"sian/internal/relation"
)

// Obj identifies a shared object (the set Obj of the paper).
type Obj string

// Value is the domain of values stored in objects. The paper uses
// integers; so do we.
type Value int64

// OpKind distinguishes reads from writes.
type OpKind int

// Operation kinds. Following the style guide, the enum starts at one so
// the zero value is an invalid operation that validation rejects.
const (
	OpInvalid OpKind = iota
	OpRead
	OpWrite
)

// String returns "read" or "write".
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is a single operation op(e) = read(x, n) or write(x, n).
type Op struct {
	Kind OpKind
	Obj  Obj
	Val  Value
}

// Read returns the operation read(x, n).
func Read(x Obj, n Value) Op { return Op{Kind: OpRead, Obj: x, Val: n} }

// Write returns the operation write(x, n).
func Write(x Obj, n Value) Op { return Op{Kind: OpWrite, Obj: x, Val: n} }

// String renders the operation as in the paper, e.g. "read(x, 1)".
func (o Op) String() string {
	return fmt.Sprintf("%s(%s, %d)", o.Kind, o.Obj, o.Val)
}

// Transaction is a finite, totally ordered sequence of operations
// (E, po). The program order po is the slice order. Per the paper all
// transactions considered are committed.
type Transaction struct {
	// ID is an optional client-supplied label used in diagnostics; it
	// plays no semantic role.
	ID string
	// Ops is the sequence of events in program order.
	Ops []Op
}

// NewTransaction builds a transaction from operations in program
// order.
func NewTransaction(id string, ops ...Op) Transaction {
	cp := make([]Op, len(ops))
	copy(cp, ops)
	return Transaction{ID: id, Ops: cp}
}

// String renders the transaction as "[id: op1; op2; …]".
func (t Transaction) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	if t.ID != "" {
		sb.WriteString(t.ID)
		sb.WriteString(": ")
	}
	for i, op := range t.Ops {
		if i > 0 {
			sb.WriteString("; ")
		}
		sb.WriteString(op.String())
	}
	sb.WriteByte(']')
	return sb.String()
}

// ReadsBeforeWrites reports, per Definition in §2: T ⊢ read(x, n)
// holds iff the first operation on x in T is a read, and n is the
// value it returns. The boolean result is false when T does not read x
// before writing it.
func (t Transaction) ReadsBeforeWrites(x Obj) (Value, bool) {
	for _, op := range t.Ops {
		if op.Obj != x {
			continue
		}
		if op.Kind == OpRead {
			return op.Val, true
		}
		return 0, false // first access is a write
	}
	return 0, false
}

// FinalWrite reports T ⊢ write(x, n): whether T writes to x, and if
// so the last value written.
func (t Transaction) FinalWrite(x Obj) (Value, bool) {
	for i := len(t.Ops) - 1; i >= 0; i-- {
		op := t.Ops[i]
		if op.Obj == x && op.Kind == OpWrite {
			return op.Val, true
		}
	}
	return 0, false
}

// Writes reports whether the transaction writes to x at all.
func (t Transaction) Writes(x Obj) bool {
	_, ok := t.FinalWrite(x)
	return ok
}

// Reads reports whether the transaction reads x before writing it.
func (t Transaction) Reads(x Obj) bool {
	_, ok := t.ReadsBeforeWrites(x)
	return ok
}

// Objects returns the sorted set of objects accessed by the
// transaction.
func (t Transaction) Objects() []Obj {
	seen := make(map[Obj]bool)
	for _, op := range t.Ops {
		seen[op.Obj] = true
	}
	return sortedObjs(seen)
}

// ReadSet returns the sorted set of objects the transaction reads
// (anywhere, not only before writing).
func (t Transaction) ReadSet() []Obj {
	seen := make(map[Obj]bool)
	for _, op := range t.Ops {
		if op.Kind == OpRead {
			seen[op.Obj] = true
		}
	}
	return sortedObjs(seen)
}

// WriteSet returns the sorted set of objects the transaction writes.
func (t Transaction) WriteSet() []Obj {
	seen := make(map[Obj]bool)
	for _, op := range t.Ops {
		if op.Kind == OpWrite {
			seen[op.Obj] = true
		}
	}
	return sortedObjs(seen)
}

func sortedObjs(set map[Obj]bool) []Obj {
	out := make([]Obj, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CheckInt checks the internal consistency axiom INT (Figure 1) for a
// single transaction: every read on x that is preceded in the
// transaction by an operation on x must return the value of the last
// such operation. It returns nil when the axiom holds.
func (t Transaction) CheckInt() error {
	// Only a read can violate INT. A short transaction finds a read's
	// predecessor on the same object by scanning back; a long one that
	// reads keeps the last value per object in a map; a write-only one
	// (an initialising transaction) needs neither.
	const scanned = 16
	var last map[Obj]Value
	if len(t.Ops) > scanned && slices.ContainsFunc(t.Ops, func(op Op) bool { return op.Kind == OpRead }) {
		last = make(map[Obj]Value, len(t.Ops))
	}
	for i, op := range t.Ops {
		if op.Kind == OpInvalid {
			return fmt.Errorf("event %d: invalid operation kind", i)
		}
		var prev Value
		ok := false
		if last != nil {
			prev, ok = last[op.Obj]
			last[op.Obj] = op.Val
		} else if op.Kind == OpRead {
			for j := i - 1; j >= 0 && !ok; j-- {
				if t.Ops[j].Obj == op.Obj {
					prev, ok = t.Ops[j].Val, true
				}
			}
		}
		if ok && op.Kind == OpRead && op.Val != prev {
			return fmt.Errorf("event %d: INT violated: read(%s, %d) after the value %d",
				i, op.Obj, op.Val, prev)
		}
	}
	return nil
}

// Session is an ordered sequence of transactions issued by one client
// (§2); the session order SO of a history is the union of the per-
// session orders.
type Session struct {
	// ID labels the session in diagnostics.
	ID string
	// Transactions in session order.
	Transactions []Transaction
}

// History is a pair (T, SO) per Definition 2, stored as the list of
// sessions. Transaction indices are assigned session by session, in
// session order: session 0's transactions come first, then session
// 1's, and so on.
type History struct {
	sessions []Session
	// flat[i] is the transaction with index i.
	flat []Transaction
	// sessionOf[i] is the position in sessions of transaction i's
	// session; posOf[i] its position within that session.
	sessionOf []int
	posOf     []int
}

// NewHistory builds a history from sessions. The sessions are deep-
// copied, so the caller may reuse the argument.
func NewHistory(sessions ...Session) *History {
	h := &History{}
	for _, s := range sessions {
		cp := Session{ID: s.ID, Transactions: make([]Transaction, len(s.Transactions))}
		copy(cp.Transactions, s.Transactions)
		h.sessions = append(h.sessions, cp)
	}
	h.reindex()
	return h
}

func (h *History) reindex() {
	h.flat = h.flat[:0]
	h.sessionOf = h.sessionOf[:0]
	h.posOf = h.posOf[:0]
	for si, s := range h.sessions {
		for pi, t := range s.Transactions {
			h.flat = append(h.flat, t)
			h.sessionOf = append(h.sessionOf, si)
			h.posOf = append(h.posOf, pi)
		}
	}
}

// NumTransactions returns |T|.
func (h *History) NumTransactions() int { return len(h.flat) }

// NumSessions returns the number of sessions.
func (h *History) NumSessions() int { return len(h.sessions) }

// Transaction returns the transaction with the given index.
func (h *History) Transaction(i int) Transaction { return h.flat[i] }

// Transactions returns all transactions indexed by their dense index.
// The returned slice is a copy.
func (h *History) Transactions() []Transaction {
	out := make([]Transaction, len(h.flat))
	copy(out, h.flat)
	return out
}

// Sessions returns a copy of the session list.
func (h *History) Sessions() []Session {
	out := make([]Session, len(h.sessions))
	for i, s := range h.sessions {
		cp := Session{ID: s.ID, Transactions: make([]Transaction, len(s.Transactions))}
		copy(cp.Transactions, s.Transactions)
		out[i] = cp
	}
	return out
}

// SessionIndex returns the index of the session containing transaction
// i.
func (h *History) SessionIndex(i int) int { return h.sessionOf[i] }

// SessionOrder returns SO as a relation over transaction indices:
// (i, j) ∈ SO iff i and j are in the same session and i precedes j.
// SO is transitive by construction.
func (h *History) SessionOrder() *relation.Rel {
	so := relation.New(len(h.flat))
	base := 0
	for _, s := range h.sessions {
		n := len(s.Transactions)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				so.Add(base+a, base+b)
			}
		}
		base += n
	}
	return so
}

// SameSession returns the equivalence relation ≈_H of §5 (including
// the diagonal) as a relation over transaction indices.
func (h *History) SameSession() *relation.Rel {
	eq := relation.New(len(h.flat))
	base := 0
	for _, s := range h.sessions {
		n := len(s.Transactions)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				eq.Add(base+a, base+b)
			}
		}
		base += n
	}
	return eq
}

// WriteTx returns the sorted indices of transactions that write to x
// (the set WriteTx_x).
func (h *History) WriteTx(x Obj) []int {
	var out []int
	for i, t := range h.flat {
		if t.Writes(x) {
			out = append(out, i)
		}
	}
	return out
}

// Objects returns the sorted set of objects accessed anywhere in the
// history.
func (h *History) Objects() []Obj {
	seen := make(map[Obj]bool)
	for _, t := range h.flat {
		for _, op := range t.Ops {
			seen[op.Obj] = true
		}
	}
	return sortedObjs(seen)
}

// CheckInt checks the INT axiom for every transaction and returns an
// error identifying the first violating transaction, or nil.
func (h *History) CheckInt() error {
	for i, t := range h.flat {
		if err := t.CheckInt(); err != nil {
			return fmt.Errorf("transaction %d %s: %w", i, t.ID, err)
		}
	}
	return nil
}

// Validate performs structural well-formedness checks: every operation
// kind valid, and every transaction non-empty. It does not check INT;
// use CheckInt for that.
func (h *History) Validate() error {
	for i, t := range h.flat {
		if len(t.Ops) == 0 {
			return fmt.Errorf("transaction %d %s: empty transaction", i, t.ID)
		}
		for j, op := range t.Ops {
			if op.Kind != OpRead && op.Kind != OpWrite {
				return fmt.Errorf("transaction %d %s event %d: invalid operation kind %d",
					i, t.ID, j, op.Kind)
			}
			if op.Obj == "" {
				return fmt.Errorf("transaction %d %s event %d: empty object name", i, t.ID, j)
			}
		}
	}
	return nil
}

// Splice returns splice(H) of §5: a history with one single-
// transaction session per original session, each obtained by
// concatenating the session's transactions in session order. Sessions
// that already hold a single transaction keep its ID (in particular,
// an initialisation transaction stays recognisable); genuinely spliced
// transactions are labelled "spliced:<session>".
func (h *History) Splice() *History {
	spliced := make([]Session, 0, len(h.sessions))
	for _, s := range h.sessions {
		var ops []Op
		for _, t := range s.Transactions {
			ops = append(ops, t.Ops...)
		}
		var id string
		switch {
		case len(s.Transactions) == 1:
			id = s.Transactions[0].ID
		case s.ID == "":
			id = "spliced"
		default:
			id = "spliced:" + s.ID
		}
		spliced = append(spliced, Session{
			ID:           s.ID,
			Transactions: []Transaction{NewTransaction(id, ops...)},
		})
	}
	return NewHistory(spliced...)
}

// SplicedIndex maps a transaction index of h to the index of its
// spliced transaction in h.Splice(): the session index, since splicing
// leaves exactly one transaction per session.
func (h *History) SplicedIndex(i int) int { return h.sessionOf[i] }

// InitTransactionID is the diagnostic label of the initialisation
// transaction added by WithInit.
const InitTransactionID = "init"

// WithInit returns a copy of h extended with a new first session
// holding a single transaction that writes initVal to every object
// accessed anywhere in h. The paper's executions implicitly contain
// such a transaction ("a special transaction that writes initial
// versions of all objects", §2); the analyses make it explicit. The
// init transaction has index 0 in the returned history; every original
// transaction index shifts up by one.
func (h *History) WithInit(initVal Value) *History {
	ops := make([]Op, 0)
	for _, x := range h.Objects() {
		ops = append(ops, Write(x, initVal))
	}
	init := Session{
		ID:           InitTransactionID,
		Transactions: []Transaction{NewTransaction(InitTransactionID, ops...)},
	}
	return NewHistory(append([]Session{init}, h.Sessions()...)...)
}

// String renders the history session by session.
func (h *History) String() string {
	var sb strings.Builder
	for si, s := range h.sessions {
		if si > 0 {
			sb.WriteByte('\n')
		}
		fmt.Fprintf(&sb, "session %d", si)
		if s.ID != "" {
			fmt.Fprintf(&sb, " (%s)", s.ID)
		}
		sb.WriteString(":")
		for _, t := range s.Transactions {
			sb.WriteString(" ")
			sb.WriteString(t.String())
		}
	}
	return sb.String()
}
