package model

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func tx(id string, ops ...Op) Transaction { return NewTransaction(id, ops...) }

func TestOpConstructorsAndString(t *testing.T) {
	t.Parallel()
	r := Read("x", 3)
	if r.Kind != OpRead || r.Obj != "x" || r.Val != 3 {
		t.Errorf("Read built %+v", r)
	}
	w := Write("y", -1)
	if w.Kind != OpWrite || w.Obj != "y" || w.Val != -1 {
		t.Errorf("Write built %+v", w)
	}
	if got := r.String(); got != "read(x, 3)" {
		t.Errorf("String = %q", got)
	}
	if got := w.String(); got != "write(y, -1)" {
		t.Errorf("String = %q", got)
	}
	if !strings.Contains(OpKind(99).String(), "99") {
		t.Error("unknown kind String should include the number")
	}
}

func TestTransactionJudgements(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name     string
		tr       Transaction
		obj      Obj
		readVal  Value
		reads    bool
		writeVal Value
		writes   bool
	}{
		{
			name: "read before write",
			tr:   tx("t", Read("x", 5), Write("x", 7)),
			obj:  "x", readVal: 5, reads: true, writeVal: 7, writes: true,
		},
		{
			name: "write shadows read",
			tr:   tx("t", Write("x", 7), Read("x", 7)),
			obj:  "x", reads: false, writeVal: 7, writes: true,
		},
		{
			name: "last write wins",
			tr:   tx("t", Write("x", 1), Write("x", 2), Write("x", 3)),
			obj:  "x", reads: false, writeVal: 3, writes: true,
		},
		{
			name: "read only",
			tr:   tx("t", Read("x", 9), Read("x", 9)),
			obj:  "x", readVal: 9, reads: true, writes: false,
		},
		{
			name: "untouched object",
			tr:   tx("t", Read("y", 1)),
			obj:  "x", reads: false, writes: false,
		},
		{
			name: "first read counts",
			tr:   tx("t", Read("x", 2), Read("x", 2), Write("x", 4)),
			obj:  "x", readVal: 2, reads: true, writeVal: 4, writes: true,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			v, ok := tc.tr.ReadsBeforeWrites(tc.obj)
			if ok != tc.reads || (ok && v != tc.readVal) {
				t.Errorf("ReadsBeforeWrites = (%d,%v), want (%d,%v)", v, ok, tc.readVal, tc.reads)
			}
			w, ok := tc.tr.FinalWrite(tc.obj)
			if ok != tc.writes || (ok && w != tc.writeVal) {
				t.Errorf("FinalWrite = (%d,%v), want (%d,%v)", w, ok, tc.writeVal, tc.writes)
			}
			if tc.tr.Writes(tc.obj) != tc.writes {
				t.Errorf("Writes = %v", tc.tr.Writes(tc.obj))
			}
			if tc.tr.Reads(tc.obj) != tc.reads {
				t.Errorf("Reads = %v", tc.tr.Reads(tc.obj))
			}
		})
	}
}

func TestTransactionSets(t *testing.T) {
	t.Parallel()
	tr := tx("t", Read("b", 1), Write("a", 2), Read("a", 2), Write("c", 3))
	if got := tr.Objects(); len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("Objects = %v", got)
	}
	if got := tr.ReadSet(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("ReadSet = %v", got)
	}
	if got := tr.WriteSet(); len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Errorf("WriteSet = %v", got)
	}
}

func TestCheckInt(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		tr   Transaction
		ok   bool
	}{
		{"consistent read after write", tx("t", Write("x", 1), Read("x", 1)), true},
		{"inconsistent read after write", tx("t", Write("x", 1), Read("x", 2)), false},
		{"consistent read after read", tx("t", Read("x", 1), Read("x", 1)), true},
		{"inconsistent read after read", tx("t", Read("x", 1), Read("x", 2)), false},
		{"different objects free", tx("t", Write("x", 1), Read("y", 2)), true},
		{"overwrite then read", tx("t", Write("x", 1), Write("x", 2), Read("x", 2)), true},
		{"invalid kind", Transaction{Ops: []Op{{}}}, false},
		{"empty", tx("t"), true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.tr.CheckInt(); (err == nil) != tc.ok {
				t.Errorf("CheckInt = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func newTestHistory() *History {
	return NewHistory(
		Session{ID: "a", Transactions: []Transaction{
			tx("a0", Write("x", 1)),
			tx("a1", Read("x", 1), Write("y", 2)),
		}},
		Session{ID: "b", Transactions: []Transaction{
			tx("b0", Read("y", 2)),
		}},
	)
}

func TestHistoryIndexing(t *testing.T) {
	t.Parallel()
	h := newTestHistory()
	if h.NumTransactions() != 3 || h.NumSessions() != 2 {
		t.Fatalf("counts = %d/%d", h.NumTransactions(), h.NumSessions())
	}
	if h.Transaction(0).ID != "a0" || h.Transaction(1).ID != "a1" || h.Transaction(2).ID != "b0" {
		t.Error("session-major indexing broken")
	}
	if h.SessionIndex(0) != 0 || h.SessionIndex(1) != 0 || h.SessionIndex(2) != 1 {
		t.Error("SessionIndex broken")
	}
	txs := h.Transactions()
	txs[0].ID = "mutated"
	if h.Transaction(0).ID == "mutated" {
		t.Error("Transactions() does not copy")
	}
}

func TestSessionOrder(t *testing.T) {
	t.Parallel()
	h := newTestHistory()
	so := h.SessionOrder()
	if !so.Has(0, 1) {
		t.Error("missing SO (a0, a1)")
	}
	for _, p := range [][2]int{{1, 0}, {0, 2}, {2, 0}, {1, 2}, {2, 1}} {
		if so.Has(p[0], p[1]) {
			t.Errorf("unexpected SO %v", p)
		}
	}
	if !so.IsStrictPartialOrder() {
		t.Error("SO is not a strict partial order")
	}
}

func TestSessionOrderTransitive(t *testing.T) {
	t.Parallel()
	h := NewHistory(Session{ID: "s", Transactions: []Transaction{
		tx("t0", Write("x", 1)), tx("t1", Write("x", 2)), tx("t2", Write("x", 3)),
	}})
	so := h.SessionOrder()
	if !so.Has(0, 2) {
		t.Error("SO not transitive: missing (0,2)")
	}
	if so.Size() != 3 {
		t.Errorf("SO size = %d, want 3", so.Size())
	}
}

func TestSameSession(t *testing.T) {
	t.Parallel()
	h := newTestHistory()
	eq := h.SameSession()
	for _, p := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 2}} {
		if !eq.Has(p[0], p[1]) {
			t.Errorf("missing ≈ pair %v", p)
		}
	}
	if eq.Has(0, 2) || eq.Has(2, 1) {
		t.Error("cross-session ≈ pair")
	}
}

func TestWriteTxAndObjects(t *testing.T) {
	t.Parallel()
	h := newTestHistory()
	if got := h.WriteTx("x"); len(got) != 1 || got[0] != 0 {
		t.Errorf("WriteTx(x) = %v", got)
	}
	if got := h.WriteTx("y"); len(got) != 1 || got[0] != 1 {
		t.Errorf("WriteTx(y) = %v", got)
	}
	if got := h.WriteTx("z"); got != nil {
		t.Errorf("WriteTx(z) = %v", got)
	}
	if got := h.Objects(); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Errorf("Objects = %v", got)
	}
}

func TestHistoryValidate(t *testing.T) {
	t.Parallel()
	good := newTestHistory()
	if err := good.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	empty := NewHistory(Session{ID: "s", Transactions: []Transaction{tx("t")}})
	if err := empty.Validate(); err == nil {
		t.Error("empty transaction accepted")
	}
	bad := NewHistory(Session{ID: "s", Transactions: []Transaction{{ID: "t", Ops: []Op{{Kind: OpRead, Obj: ""}}}}})
	if err := bad.Validate(); err == nil {
		t.Error("empty object accepted")
	}
	invalidKind := NewHistory(Session{ID: "s", Transactions: []Transaction{{ID: "t", Ops: []Op{{Obj: "x"}}}}})
	if err := invalidKind.Validate(); err == nil {
		t.Error("invalid op kind accepted")
	}
}

func TestHistoryCheckInt(t *testing.T) {
	t.Parallel()
	h := NewHistory(Session{ID: "s", Transactions: []Transaction{
		tx("ok", Write("x", 1), Read("x", 1)),
		tx("bad", Write("x", 1), Read("x", 9)),
	}})
	err := h.CheckInt()
	if err == nil {
		t.Fatal("INT violation not caught")
	}
	if !strings.Contains(err.Error(), "bad") {
		t.Errorf("error %q should name the violating transaction", err)
	}
}

func TestSplice(t *testing.T) {
	t.Parallel()
	h := newTestHistory()
	sp := h.Splice()
	if sp.NumSessions() != 2 || sp.NumTransactions() != 2 {
		t.Fatalf("splice shape: %d sessions, %d txs", sp.NumSessions(), sp.NumTransactions())
	}
	first := sp.Transaction(0)
	wantOps := []Op{Write("x", 1), Read("x", 1), Write("y", 2)}
	if len(first.Ops) != len(wantOps) {
		t.Fatalf("spliced ops = %v", first.Ops)
	}
	for i, op := range wantOps {
		if first.Ops[i] != op {
			t.Errorf("op %d = %v, want %v", i, first.Ops[i], op)
		}
	}
	if sp.Transaction(1).Ops[0] != Read("y", 2) {
		t.Errorf("second spliced tx = %v", sp.Transaction(1))
	}
	// Mapping: transactions 0,1 → 0; transaction 2 → 1.
	if h.SplicedIndex(0) != 0 || h.SplicedIndex(1) != 0 || h.SplicedIndex(2) != 1 {
		t.Error("SplicedIndex broken")
	}
	// Splicing must not mutate the original.
	if h.NumTransactions() != 3 {
		t.Error("Splice mutated the receiver")
	}
}

func TestWithInit(t *testing.T) {
	t.Parallel()
	h := newTestHistory()
	hi := h.WithInit(0)
	if hi.NumTransactions() != 4 {
		t.Fatalf("WithInit txs = %d", hi.NumTransactions())
	}
	init := hi.Transaction(0)
	if init.ID != InitTransactionID {
		t.Errorf("init ID = %q", init.ID)
	}
	w, ok := init.FinalWrite("x")
	if !ok || w != 0 {
		t.Errorf("init write(x) = (%d,%v)", w, ok)
	}
	if !init.Writes("y") {
		t.Error("init misses y")
	}
	if hi.Transaction(1).ID != "a0" {
		t.Error("original transactions not shifted by one")
	}
}

func TestNewHistoryCopies(t *testing.T) {
	t.Parallel()
	sess := Session{ID: "s", Transactions: []Transaction{tx("t", Write("x", 1))}}
	h := NewHistory(sess)
	sess.Transactions[0] = tx("other", Write("x", 2))
	if h.Transaction(0).ID != "t" {
		t.Error("NewHistory aliases caller's slice")
	}
	got := h.Sessions()
	got[0].Transactions[0] = tx("mutated", Write("x", 3))
	if h.Transaction(0).ID != "t" {
		t.Error("Sessions() aliases internal state")
	}
}

func TestStringRenderings(t *testing.T) {
	t.Parallel()
	h := newTestHistory()
	s := h.String()
	for _, want := range []string{"session 0 (a)", "session 1 (b)", "write(x, 1)"} {
		if !strings.Contains(s, want) {
			t.Errorf("History.String() = %q missing %q", s, want)
		}
	}
	tr := tx("id", Read("x", 1))
	if got := tr.String(); got != "[id: read(x, 1)]" {
		t.Errorf("Transaction.String() = %q", got)
	}
}

// TestSpliceIdempotent: splicing an already-spliced history preserves
// its shape and operations.
func TestSpliceIdempotent(t *testing.T) {
	t.Parallel()
	h := newTestHistory()
	once := h.Splice()
	twice := once.Splice()
	if twice.NumTransactions() != once.NumTransactions() || twice.NumSessions() != once.NumSessions() {
		t.Fatalf("shape changed: %d/%d vs %d/%d",
			twice.NumTransactions(), twice.NumSessions(), once.NumTransactions(), once.NumSessions())
	}
	for i := 0; i < once.NumTransactions(); i++ {
		a, b := once.Transaction(i), twice.Transaction(i)
		if len(a.Ops) != len(b.Ops) {
			t.Fatalf("transaction %d ops changed", i)
		}
		for j := range a.Ops {
			if a.Ops[j] != b.Ops[j] {
				t.Fatalf("op %d/%d changed", i, j)
			}
		}
	}
}

// checkIntByMap is INT as the map of last values per object states it,
// the reference CheckInt's read-only scan must agree with.
func checkIntByMap(t Transaction) error {
	last := make(map[Obj]Value)
	for i, op := range t.Ops {
		if op.Kind == OpInvalid {
			return fmt.Errorf("event %d: invalid operation kind", i)
		}
		if prev, ok := last[op.Obj]; ok && op.Kind == OpRead && op.Val != prev {
			return fmt.Errorf("event %d: INT violated: read(%s, %d) after the value %d",
				i, op.Obj, op.Val, prev)
		}
		last[op.Obj] = op.Val
	}
	return nil
}

// TestCheckIntMatchesMap: on random transactions short and long (the
// scan and the map), reading and write-only, some with an invalid
// operation, CheckInt returns exactly the reference's error.
func TestCheckIntMatchesMap(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(46))
	objs := []Obj{"a", "b", "c", "d"}
	for trial := 0; trial < 5000; trial++ {
		ops := make([]Op, rng.Intn(48))
		writeOnly := trial%5 == 0
		for i := range ops {
			kind := OpWrite
			if !writeOnly && rng.Intn(2) == 0 {
				kind = OpRead
			}
			if rng.Intn(60) == 0 {
				kind = OpInvalid
			}
			// Mostly consistent values, so a violation is often late.
			ops[i] = Op{Kind: kind, Obj: objs[rng.Intn(len(objs))], Val: Value(rng.Intn(2) * rng.Intn(3))}
		}
		tr := Transaction{ID: "t", Ops: ops}
		got, want := tr.CheckInt(), checkIntByMap(tr)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("%v: CheckInt = %v, reference %v", tr, got, want)
		}
	}
}
