package engine

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sian/internal/model"
)

// TestHistoryRoundTrip encodes transactions into a session's byte log
// and checks that decoding returns them exactly: edge-case object names
// and values, zero-op, labelled and init transactions, a transaction
// larger than a chunk, and a seeded random stream that crosses many
// chunk boundaries. A snapshot keeps decoding its prefix after later
// appends.
func TestHistoryRoundTrip(t *testing.T) {
	t.Parallel()
	type entry struct {
		name string
		ops  []model.Op
	}
	big := make([]model.Op, 0, 4000)
	for i := 0; i < cap(big); i++ {
		big = append(big, model.Write(model.Obj(strings.Repeat("k", 20)+string(rune('a'+i%26))), model.Value(i)))
	}
	if size := len(big) * 23; size <= histChunk {
		t.Fatalf("big transaction encodes to ~%d B, want more than a chunk (%d B)", size, histChunk)
	}
	rng := rand.New(rand.NewSource(1))
	var random []entry
	for i := 0; i < 3000; i++ {
		ops := make([]model.Op, rng.Intn(12))
		for j := range ops {
			obj := make([]byte, rng.Intn(40))
			rng.Read(obj)
			ops[j] = model.Read(model.Obj(obj), model.Value(rng.Int63()-rng.Int63()))
			if rng.Intn(2) == 0 {
				ops[j].Kind = model.OpWrite
			}
		}
		random = append(random, entry{ops: ops})
	}

	cases := []struct {
		session string
		entries []entry
		ids     []string
	}{
		{
			session: "s",
			entries: []entry{
				{ops: []model.Op{model.Read("", 0), model.Write("", -1)}},
				{ops: []model.Op{model.Write("\xff\xfe\x00", 1), model.Read("é", 2)}},
				{ops: []model.Op{model.Write("x", math.MinInt64), model.Write("x", math.MaxInt64), model.Read("x", -1<<40)}},
				{},
				{name: "label", ops: []model.Op{model.Read("y", 7)}},
				{name: "label"},
			},
			ids: []string{"s/1", "s/2", "s/3", "s/4", "s/label", "s/label"},
		},
		{
			session: model.InitTransactionID,
			entries: []entry{{ops: []model.Op{model.Write("x", 0)}}, {ops: []model.Op{model.Write("x", 1)}}},
			ids:     []string{model.InitTransactionID, model.InitTransactionID + "/2"},
		},
		{
			// A labelled first transaction of the init session keeps its label.
			session: model.InitTransactionID,
			entries: []entry{{name: "setup"}},
			ids:     []string{model.InitTransactionID + "/setup"},
		},
		{
			session: "big",
			entries: []entry{{ops: []model.Op{model.Read("a", 1)}}, {ops: big}, {ops: []model.Op{model.Read("b", 2)}}},
			ids:     []string{"big/1", "big/2", "big/3"},
		},
		{session: "random", entries: random},
	}
	for _, c := range cases {
		var l histLog
		want := make([]model.Transaction, len(c.entries))
		for i, e := range c.entries {
			if seq := l.append(e.name, e.ops); seq != i+1 {
				t.Fatalf("%s: append returned sequence %d, want %d", c.session, seq, i+1)
			}
			id := txID(c.session, i+1, e.name)
			if c.ids != nil && id != c.ids[i] {
				t.Errorf("%s: transaction %d id %q, want %q", c.session, i+1, id, c.ids[i])
			}
			want[i] = model.NewTransaction(id, e.ops...)
		}
		snap := l.snapshot()
		if got := snap.decode(c.session, make(map[string]model.Obj)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded history differs from what was appended", c.session)
		}
		// Later appends extend the tail chunk in place; the snapshot
		// still decodes exactly its prefix.
		l.append("late", []model.Op{model.Write("late", 1)})
		if got := snap.decode(c.session, make(map[string]model.Obj)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: snapshot changed after a later append", c.session)
		}
		for i, ch := range l.chunks {
			if cap(ch) > histChunk && len(ch) != cap(ch) {
				t.Errorf("%s: oversized chunk %d has %d of %d bytes used, want it exactly filled", c.session, i, len(ch), cap(ch))
			}
		}
		if c.session == "random" && len(l.chunks) < 2 {
			t.Errorf("random stream used %d chunks, want several", len(l.chunks))
		}
		if c.session == "big" && len(l.chunks) != 3 {
			t.Errorf("big: %d chunks, want 3 (the oversized transaction alone in the middle)", len(l.chunks))
		}
	}
}
