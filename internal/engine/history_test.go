package engine_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	. "sian/internal/engine"
	"sian/internal/model"
)

// histRecorder is a test's own record of acknowledged commits, per
// session, against which DB.History() is compared.
type histRecorder struct {
	mu    sync.Mutex
	order []string
	txs   map[string][]model.Transaction
}

// open places a session next in the expected session order; ack
// opens a session it has not seen.
func (r *histRecorder) open(session string) {
	if r.txs == nil {
		r.txs = make(map[string][]model.Transaction)
	}
	if _, ok := r.txs[session]; !ok {
		r.order = append(r.order, session)
		r.txs[session] = nil
	}
}

func (r *histRecorder) ack(session, id string, ops []model.Op) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.open(session)
	r.txs[session] = append(r.txs[session], model.NewTransaction(id, ops...))
}

// recTx wraps a Tx or ManualTx and keeps the operations it performs.
type recTx struct {
	read  func(model.Obj) (model.Value, error)
	write func(model.Obj, model.Value) error
	ops   []model.Op
}

func (r *recTx) Read(x model.Obj) (model.Value, error) {
	v, err := r.read(x)
	if err == nil {
		r.ops = append(r.ops, model.Read(x, v))
	}
	return v, err
}

func (r *recTx) Write(x model.Obj, v model.Value) error {
	err := r.write(x, v)
	if err == nil {
		r.ops = append(r.ops, model.Write(x, v))
	}
	return err
}

func (r *recTx) Promote(x model.Obj) error {
	v, err := r.Read(x)
	if err != nil {
		return err
	}
	return r.Write(x, v)
}

// compareHistory reports, field by field, where h differs from the
// acknowledged commits.
func compareHistory(t *testing.T, h *model.History, want *histRecorder) {
	t.Helper()
	got := h.Sessions()
	if len(got) != len(want.order) {
		t.Fatalf("History has %d sessions, want %d", len(got), len(want.order))
	}
	for i, s := range got {
		if s.ID != want.order[i] {
			t.Fatalf("session %d is %q, want %q", i, s.ID, want.order[i])
		}
		wtxs := want.txs[s.ID]
		if len(s.Transactions) != len(wtxs) {
			t.Fatalf("session %q has %d transactions, want %d", s.ID, len(s.Transactions), len(wtxs))
		}
		for j, tx := range s.Transactions {
			w := wtxs[j]
			if tx.ID != w.ID {
				t.Errorf("session %q transaction %d: ID %q, want %q", s.ID, j, tx.ID, w.ID)
			}
			if len(tx.Ops) != len(w.Ops) {
				t.Errorf("%s: %d ops, want %d", w.ID, len(tx.Ops), len(w.Ops))
				continue
			}
			for k, op := range tx.Ops {
				if op.Kind != w.Ops[k].Kind || op.Obj != w.Ops[k].Obj || op.Val != w.Ops[k].Val {
					t.Errorf("%s op %d: %v, want %v", w.ID, k, op, w.Ops[k])
				}
			}
		}
	}
}

// TestHistoryMatchesCommits drives Transact, ManualTx and Promote
// sessions on every engine, including rolled-back and conflicting
// attempts that must leave no trace, and compares DB.History() with
// the test's own record of acknowledged commits.
func TestHistoryMatchesCommits(t *testing.T) {
	t.Parallel()
	for _, kind := range []Kind{SI, SSI, SER, PSI} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			db := newDB(t, kind, Config{})
			var want histRecorder
			init := map[model.Obj]model.Value{"a": 1, "b": -2, "": 3, "\xff": 4}
			if err := db.Initialize(init); err != nil {
				t.Fatal(err)
			}
			want.ack(model.InitTransactionID, model.InitTransactionID, []model.Op{
				model.Write("", 3), model.Write("a", 1), model.Write("b", -2), model.Write("\xff", 4),
			})

			// Transact, labelled and not, with a rollback in between
			// that must not consume a sequence number.
			transact := db.Session("transact")
			seq := 0
			run := func(name string, fn func(*recTx) error) error {
				var rt *recTx
				err := transact.TransactNamed(name, func(tx *Tx) error {
					rt = &recTx{read: tx.Read, write: tx.Write}
					return fn(rt)
				})
				if err == nil {
					seq++
					id := fmt.Sprintf("transact/%d", seq)
					if name != "" {
						id = "transact/" + name
					}
					want.ack("transact", id, rt.ops)
				}
				return err
			}
			for i := 0; i < 5; i++ {
				if err := run("", func(tx *recTx) error {
					v, err := tx.Read("a")
					if err != nil {
						return err
					}
					return tx.Write("a", v*-3+model.Value(i))
				}); err != nil {
					t.Fatal(err)
				}
			}
			rollback := errors.New("rollback")
			if err := run("", func(tx *recTx) error {
				if err := tx.Write("a", 99); err != nil {
					return err
				}
				return rollback
			}); !errors.Is(err, rollback) {
				t.Fatalf("rollback err = %v", err)
			}
			if err := run("named", func(tx *recTx) error { return tx.Write("\xff", 1<<62) }); err != nil {
				t.Fatal(err)
			}
			if err := run("", func(*recTx) error { return nil }); err != nil {
				t.Fatal(err)
			}

			// Promote and ManualTx sessions, with an aborted attempt.
			promote := db.Session("promote")
			var rt *recTx
			if err := promote.Transact(func(tx *Tx) error {
				rt = &recTx{read: tx.Read, write: tx.Write}
				return rt.Promote("b")
			}); err != nil {
				t.Fatal(err)
			}
			want.ack("promote", "promote/1", rt.ops)

			manual := db.Session("manual")
			begin := func(name string) (*ManualTx, *recTx) {
				m, err := manual.Begin(name)
				if err != nil {
					t.Fatal(err)
				}
				return m, &recTx{read: m.Read, write: m.Write}
			}
			m, rt := begin("")
			if _, err := rt.Read(""); err != nil {
				t.Fatal(err)
			}
			m.Abort()
			m, rt = begin("staged")
			if err := rt.Promote(""); err != nil {
				t.Fatal(err)
			}
			if err := rt.Write("fresh", 5); err != nil {
				t.Fatal(err)
			}
			if err := m.Commit(); err != nil {
				t.Fatal(err)
			}
			want.ack("manual", "manual/staged", rt.ops)
			m, rt = begin("")
			if _, err := rt.Read("fresh"); err != nil {
				t.Fatal(err)
			}
			if err := m.Commit(); err != nil {
				t.Fatal(err)
			}
			want.ack("manual", "manual/2", rt.ops)

			// A lost first-committer-wins race leaves no entry. SER
			// locks at Write time, so it cannot stage this race.
			if kind != SER {
				loser := db.Session("loser")
				m1, rt1 := begin("")
				m2, err := loser.Begin("")
				if err != nil {
					t.Fatal(err)
				}
				if err := rt1.Write("a", 7); err != nil {
					t.Fatal(err)
				}
				if err := m2.Write("a", 8); err != nil {
					t.Fatal(err)
				}
				if err := m1.Commit(); err != nil {
					t.Fatal(err)
				}
				want.ack("manual", "manual/3", rt1.ops)
				if err := m2.Commit(); !errors.Is(err, ErrConflict) {
					t.Fatalf("second writer's commit err = %v, want ErrConflict", err)
				}
			}

			db.Flush()
			compareHistory(t, db.History(), &want)
			// Decoding is repeatable.
			compareHistory(t, db.History(), &want)
		})
	}
}

// TestHistoryWhileCommitting calls DB.History() while two sessions
// commit. Every history must hold, per session, a prefix of that
// session's commits, and at least every commit acknowledged before the
// call began; once the sessions stop, it must equal their acknowledged
// commits.
func TestHistoryWhileCommitting(t *testing.T) {
	t.Parallel()
	for _, kind := range []Kind{SI, PSI} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			db := newDB(t, kind, Config{})
			names := []string{"s0", "s1"}
			init := make(map[model.Obj]model.Value)
			for _, n := range names {
				init[model.Obj(n+"_own")] = 0
			}
			if err := db.Initialize(init); err != nil {
				t.Fatal(err)
			}
			var want histRecorder
			want.ack(model.InitTransactionID, model.InitTransactionID, []model.Op{
				model.Write("s0_own", 0), model.Write("s1_own", 0),
			})
			// The i-th commit of session w: private keys make it
			// deterministic, so a concurrent History can be checked
			// against it before it is acknowledged.
			expect := func(w, i int) model.Transaction {
				own := model.Obj(names[w] + "_own")
				// Object names of varying length, so transactions
				// straddle chunk boundaries.
				x := model.Obj(fmt.Sprintf("%s_%0*d", names[w], i%40, i))
				return model.NewTransaction(fmt.Sprintf("%s/%d", names[w], i+1),
					model.Read(own, model.Value(i)), model.Write(x, model.Value(i)), model.Write(own, model.Value(i+1)))
			}
			const perSession = 2000
			var acked [2]atomic.Int64
			var wg sync.WaitGroup
			for w, name := range names {
				w, sess := w, db.Session(name)
				want.open(name)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perSession; i++ {
						tx := expect(w, i)
						var rt *recTx
						err := sess.Transact(func(t *Tx) error {
							rt = &recTx{read: t.Read, write: t.Write}
							if _, err := rt.Read(tx.Ops[0].Obj); err != nil {
								return err
							}
							if err := rt.Write(tx.Ops[1].Obj, tx.Ops[1].Val); err != nil {
								return err
							}
							return rt.Write(tx.Ops[2].Obj, tx.Ops[2].Val)
						})
						if err != nil {
							t.Error(err)
							return
						}
						want.ack(names[w], tx.ID, rt.ops)
						acked[w].Add(1)
					}
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			calls := 0
			for stop := false; !stop; calls++ {
				select {
				case <-done:
					stop = true
				default:
				}
				var floor [2]int64
				for w := range acked {
					floor[w] = acked[w].Load()
				}
				got := map[string][]model.Transaction{}
				for _, s := range db.History().Sessions() {
					got[s.ID] = s.Transactions
				}
				for w, name := range names {
					txs := got[name]
					if int64(len(txs)) < floor[w] || len(txs) > perSession {
						t.Fatalf("History call %d: session %s has %d transactions, %d were acknowledged before the call", calls, name, len(txs), floor[w])
					}
					for i, tx := range txs {
						if e := expect(w, i); tx.ID != e.ID || fmt.Sprint(tx.Ops) != fmt.Sprint(e.Ops) {
							t.Fatalf("History call %d: %s transaction %d is %v, want %v", calls, name, i, tx, e)
						}
					}
				}
			}
			t.Logf("%d History calls", calls)
			compareHistory(t, db.History(), &want)
		})
	}
}

// TestHistoryBytesPerCommit bounds the heap a committed transaction
// keeps alive: 100 000 transactions of mem_disjoint's shape (2 reads
// and 2 read-modify-writes on 7-byte private keys) may retain at most
// 128 B each. A history that keeps a []model.Op per transaction
// retains about twice that.
func TestHistoryBytesPerCommit(t *testing.T) {
	const (
		commits = 100_000
		keys    = 1024
		limit   = 128
	)
	db := newDB(t, SI, Config{})
	own := make([]model.Obj, keys)
	init := make(map[model.Obj]model.Value, keys)
	for i := range own {
		own[i] = model.Obj(fmt.Sprintf("d0_%04d", i))
		init[own[i]] = 0
	}
	if err := db.Initialize(init); err != nil {
		t.Fatal(err)
	}
	sess := db.Session("s0")
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	for i := 0; i < commits; i++ {
		err := sess.Transact(func(tx *Tx) error {
			for j := 0; j < 4; j++ {
				x := own[(i*4+j*257)%keys]
				v, err := tx.Read(x)
				if err != nil {
					return err
				}
				if j >= 2 {
					if err := tx.Write(x, v+1); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	after := ms.HeapAlloc
	runtime.KeepAlive(db)
	perCommit := (float64(after) - float64(before)) / commits
	t.Logf("%.1f B retained per commit", perCommit)
	if perCommit > limit {
		t.Errorf("%.1f B retained per commit, want ≤ %d", perCommit, limit)
	}
	if got := db.Stats().Commits; got != commits+1 {
		t.Errorf("commits = %d, want %d", got, commits+1)
	}
}
