package engine

import (
	"fmt"
	"reflect"
	"testing"

	"sian/internal/model"
)

// TestWriteSetIndexed drives write sets below, at and above indexAfter
// through one session's reused attempt, the indexed ones first, so a
// later attempt starts with the index an earlier one built. In every
// attempt a rewritten object keeps its first-write position, reads see
// the transaction's own last write, the committed value is the last
// one written, and DB.History() records every op as issued. Between
// transactions the session keeps no index and no buffer past keepCap.
func TestWriteSetIndexed(t *testing.T) {
	t.Parallel()
	sizes := []int{4 * indexAfter, 3, indexAfter + 1, indexAfter, 1}
	for _, kind := range []Kind{SI, SSI, PSI, SER} {
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			db, err := New(kind, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			obj := func(i int) model.Obj { return model.Obj(fmt.Sprintf("o%d", i)) }
			init := make(map[model.Obj]model.Value)
			for i := 0; i < sizes[0]; i++ {
				init[obj(i)] = 0
			}
			if err := db.Initialize(init); err != nil {
				t.Fatal(err)
			}
			s := db.Session("s")
			var want []model.Transaction
			for _, n := range sizes {
				var ops []model.Op
				last := make([]model.Value, n)
				err := s.Transact(func(tx *Tx) error {
					ops = ops[:0]
					write := func(i int, v model.Value) {
						if err := tx.Write(obj(i), v); err != nil {
							t.Fatal(err)
						}
						ops = append(ops, model.Write(obj(i), v))
						last[i] = v
					}
					for i := 0; i < n; i++ {
						write(i, model.Value(i+1))
					}
					for i := n - 1; i >= 0; i-- { // rewrite in reverse
						write(i, model.Value(100+i))
					}
					write(0, 1000)
					for i := 0; i < n; i++ {
						v, err := tx.Read(obj(i))
						if err != nil {
							return err
						}
						if v != last[i] {
							t.Errorf("n=%d: read-your-writes %s = %d, want %d", n, obj(i), v, last[i])
						}
						ops = append(ops, model.Read(obj(i), v))
					}
					for i, x := range tx.writeOrder {
						if x != obj(i) || tx.vals[i] != last[i] {
							t.Errorf("n=%d: write set position %d holds %s=%d, want %s=%d", n, i, x, tx.vals[i], obj(i), last[i])
						}
					}
					if len(tx.writeOrder) != n || len(tx.vals) != n {
						t.Errorf("n=%d: write set of %d objects (%d values)", n, len(tx.writeOrder), len(tx.vals))
					}
					if indexed := tx.index != nil; indexed != (n > indexAfter) {
						t.Errorf("n=%d: indexed %v, want %v", n, indexed, n > indexAfter)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if a := &s.attempt.tx; a.index != nil || cap(a.ops) > keepCap || cap(a.writeOrder) > keepCap {
					t.Errorf("n=%d: the idle session keeps an index or buffers past keepCap (ops cap %d)", n, cap(a.ops))
				}
				want = append(want, model.Transaction{ID: txID("s", len(want)+1, ""), Ops: ops})
				db.Flush()
				if err := db.Session("check").Transact(func(tx *Tx) error {
					for i := 0; i < n; i++ {
						if v, err := tx.Read(obj(i)); err != nil || v != last[i] {
							t.Errorf("n=%d: committed %s = %d (%v), want %d", n, obj(i), v, err, last[i])
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			var got []model.Transaction
			for _, sess := range db.History().Sessions() {
				if sess.ID == "s" {
					got = sess.Transactions
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("history of session s:\n got %v\nwant %v", got, want)
			}
		})
	}
}
