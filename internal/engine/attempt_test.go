package engine_test

import (
	"fmt"
	"reflect"
	"testing"

	. "sian/internal/engine"
	"sian/internal/model"
)

// TestTransactAllocs pins the allocation cost of a Transact attempt on
// a warm session: the session's one reused ManualTx and siTx leave SI a
// read-modify-write's storage lock window (mem.LockObjs) as its only
// allocation and a read-only transaction none; SSI adds the conflict
// record its tracker keeps.
func TestTransactAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own behalf")
	}
	rmwX := func(tx *Tx) error {
		v, err := tx.Read("x")
		if err != nil {
			return err
		}
		return tx.Write("x", v+1)
	}
	readX := func(tx *Tx) error {
		_, err := tx.Read("x")
		return err
	}
	for _, tc := range []struct {
		kind Kind
		fn   func(*Tx) error
		name string
		max  float64
	}{
		{SI, rmwX, "read+write", 1},
		{SI, readX, "read-only", 0},
		{SSI, rmwX, "read+write", 2},
	} {
		db := newDB(t, tc.kind, Config{})
		if err := db.Initialize(map[model.Obj]model.Value{"x": 0}); err != nil {
			t.Fatal(err)
		}
		s := db.Session("s")
		for i := 0; i < 10; i++ { // warm the session's attempt and history log
			if err := s.Transact(tc.fn); err != nil {
				t.Fatal(err)
			}
		}
		got := testing.AllocsPerRun(500, func() {
			if err := s.Transact(tc.fn); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("%v %s Transact: %v allocs per call, want ≤ %v", tc.kind, tc.name, got, tc.max)
		}
	}
}

// sessionTxs returns the committed transactions of session id.
func sessionTxs(h *model.History, id string) []model.Transaction {
	for _, s := range h.Sessions() {
		if s.ID == id {
			return s.Transactions
		}
	}
	return nil
}

// TestTransactRetryStartsClean forces a first-committer-wins conflict on
// a Transact whose first attempt reads, writes more objects than the
// write set indexes linearly, and buffers a write of an object the retry
// only reads. The retry runs on the same reused attempt and must carry
// none of the lost attempt's ops or writes: not in its reads
// (read-your-writes must not find the lost buffer), not in DB.History(),
// and, over the WAL, not in the recovered log. A Transact nested in
// another's callback on the same session commits correctly too.
func TestTransactRetryStartsClean(t *testing.T) {
	t.Parallel()
	for _, kind := range []Kind{SI, SSI, PSI} {
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			db := newDB(t, kind, Config{})
			retryStartsClean(t, db)
		})
	}
	for _, kind := range []Kind{SI, SSI, PSI, SER} {
		t.Run("nested-"+kind.String(), func(t *testing.T) {
			t.Parallel()
			transactNested(t, kind)
		})
	}
	for _, tc := range durableKinds {
		t.Run("WAL-"+tc.kind.String(), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			db, err := New(tc.kind, Config{Driver: openWAL(t, dir, tc.model)})
			if err != nil {
				t.Fatal(err)
			}
			retryStartsClean(t, db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			re := openWAL(t, dir, tc.model)
			defer re.Close()
			if info := re.Recovery(); !info.Certified || info.Commits != 3 {
				t.Fatalf("recovery: certified %v, %d commits, want 3: %s", info.Certified, info.Commits, info.Verdict)
			}
			for x, want := range map[model.Obj]model.Value{"x": 101, "lost": 0, "w0": 0, "w11": 0} {
				if v, ok := re.Latest(x); !ok || v.Val != want {
					t.Errorf("recovered %s = %+v, want value %d", x, v, want)
				}
			}
		})
	}
}

// retryStartsClean runs the retry scenario on db: the initial
// transaction, the rival's commit and the retried transaction.
func retryStartsClean(t *testing.T, db *DB) {
	t.Helper()
	init := map[model.Obj]model.Value{"x": 0, "lost": 0}
	for i := 0; i < 12; i++ {
		init[model.Obj(fmt.Sprintf("w%d", i))] = 0
	}
	if err := db.Initialize(init); err != nil {
		t.Fatal(err)
	}
	s, rival := db.Session("s"), db.Session("rival")
	attempts := 0
	err := s.Transact(func(tx *Tx) error {
		attempts++
		x, err := tx.Read("x")
		if err != nil {
			return err
		}
		if attempts == 1 {
			// The lost attempt: a large write set, a write of "lost",
			// and a rival commit of x after this snapshot.
			for i := 0; i < 12; i++ {
				if err := tx.Write(model.Obj(fmt.Sprintf("w%d", i)), 7); err != nil {
					return err
				}
			}
			if err := tx.Write("lost", 99); err != nil {
				return err
			}
			if err := rival.Transact(func(rt *Tx) error { return rt.Write("x", 100) }); err != nil {
				t.Fatal(err)
			}
			return tx.Write("x", x+1)
		}
		lost, err := tx.Read("lost")
		if err != nil {
			return err
		}
		if lost != 0 {
			t.Errorf("retry read lost = %d: the lost attempt's buffered write survived", lost)
		}
		return tx.Write("x", x+1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("%d attempts, want 2 (one lost to the rival, one retry)", attempts)
	}
	want := []model.Op{model.Read("x", 100), model.Read("lost", 0), model.Write("x", 101)}
	txs := sessionTxs(db.History(), "s")
	if len(txs) != 1 || !reflect.DeepEqual(txs[0].Ops, want) {
		t.Fatalf("session s history %v, want one transaction with ops %v", txs, want)
	}
}

// transactNested runs a Transact inside another's callback on the same
// session: the inner call must not overwrite the attempt the outer one
// is running, and both commit with their own ops.
func transactNested(t *testing.T, kind Kind) {
	db := newDB(t, kind, Config{})
	if err := db.Initialize(map[model.Obj]model.Value{"x": 0, "y": 0}); err != nil {
		t.Fatal(err)
	}
	s := db.Session("s")
	err := s.Transact(func(tx *Tx) error {
		if err := tx.Write("x", 1); err != nil {
			return err
		}
		if err := s.TransactNamed("inner", func(in *Tx) error { return in.Write("y", 2) }); err != nil {
			return err
		}
		v, err := tx.Read("x")
		if err != nil {
			return err
		}
		if v != 1 {
			t.Errorf("outer read-your-write x = %d after the nested Transact, want 1", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := sessionTxs(db.History(), "s")
	want := []model.Transaction{
		{ID: "s/inner", Ops: []model.Op{model.Write("y", 2)}},
		{ID: "s/2", Ops: []model.Op{model.Write("x", 1), model.Read("x", 1)}},
	}
	if !reflect.DeepEqual(txs, want) {
		t.Fatalf("session s history %v, want %v", txs, want)
	}
}
