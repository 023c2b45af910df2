package check

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"sian/internal/depgraph"
	"sian/internal/model"
	"sian/internal/workload"
)

// serialHistory returns a history of txns transactions, dealt round
// robin to sessions, that executed one after the other against a store
// of objects keys: each reads two keys and read-modify-writes two more,
// every written value globally fresh. It carries its own initialising
// transaction (index 0). A serial execution is an SI member with one
// candidate dependency graph; with lostUpdate set, two final
// transactions both increment key 0 from the same version, which makes
// it the paper's lost-update history (Figure 2b) at scale.
func serialHistory(seed int64, txns, sessions, objects int, lostUpdate bool) *model.History {
	rng := rand.New(rand.NewSource(seed))
	key := func(i int) model.Obj { return model.Obj(fmt.Sprintf("o%04d", i)) }
	state := make([]model.Value, objects)
	initOps := make([]model.Op, objects)
	for i := range initOps {
		initOps[i] = model.Write(key(i), 0)
	}
	sess := make([]model.Session, sessions+1)
	sess[0] = model.Session{ID: model.InitTransactionID, Transactions: []model.Transaction{
		model.NewTransaction(model.InitTransactionID, initOps...)}}
	for s := 1; s <= sessions; s++ {
		sess[s].ID = fmt.Sprintf("s%d", s)
	}
	next := model.Value(0)
	for t := 0; t < txns; t++ {
		var ops []model.Op
		for i, k := range rng.Perm(objects)[:4] {
			ops = append(ops, model.Read(key(k), state[k]))
			if i >= 2 {
				next++
				state[k] = next
				ops = append(ops, model.Write(key(k), next))
			}
		}
		s := &sess[1+t%sessions]
		s.Transactions = append(s.Transactions, model.NewTransaction(fmt.Sprintf("t%d", t), ops...))
	}
	if lostUpdate {
		for s := 1; s <= 2; s++ {
			next++
			sess[s].Transactions = append(sess[s].Transactions, model.NewTransaction(fmt.Sprintf("lost%d", s),
				model.Read(key(0), state[0]), model.Write(key(0), next)))
		}
	}
	return model.NewHistory(sess...)
}

// BenchmarkCertify1k certifies a 1001-transaction, 2048-object member
// history — the shape of the repository benchmark's offline input: one
// candidate graph, so the time is what it costs to build, test and
// return that graph.
func BenchmarkCertify1k(b *testing.B) {
	h := serialHistory(1, 1000, 4, 2048, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Certify(h, depgraph.SI, Options{NoInit: true, PinInit: true})
		if err != nil || !res.Member || res.Examined != 1 {
			b.Fatalf("member %v, examined %d, err %v", res.Member, res.Examined, err)
		}
	}
}

// TestRejected1kExplained: a rejected history of a thousand
// transactions is certified a non-member and explained — axiom and
// witness cycle — in well under a second. The explanation used to
// derive RW(x) as a dense inverse-and-compose per object per edge
// looked at, which took minutes at this size.
func TestRejected1kExplained(t *testing.T) {
	t.Parallel()
	h := serialHistory(2, 1000, 4, 2048, true)
	start := time.Now()
	res, err := Certify(h, depgraph.SI, Options{NoInit: true, PinInit: true, Parallelism: 1})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Member {
		t.Fatal("lost update accepted")
	}
	// Either order of the two lost writers is a candidate.
	if res.Examined != 2 {
		t.Errorf("examined %d candidates, want 2", res.Examined)
	}
	e := res.Explain
	if e == nil || !strings.HasPrefix(e.Axiom, "NOCONFLICT") || len(e.Cycle) == 0 {
		t.Fatalf("explanation = %v, want NOCONFLICT with a cycle", e)
	}
	rw := 0
	for i, edge := range e.Cycle {
		if edge.To != e.Cycle[(i+1)%len(e.Cycle)].From {
			t.Errorf("cycle %v is not closed at edge %d", e.Cycle, i)
		}
		if edge.Kind == depgraph.EdgeRW {
			rw++
			if edge.Obj != "o0000" {
				t.Errorf("anti-dependency on %s, want o0000", edge.Obj)
			}
		}
	}
	if rw != 1 {
		t.Errorf("cycle %s has %d anti-dependencies, want 1", e.Graph.FormatCycle(e.Cycle), rw)
	}
	if !strings.Contains(e.String(), "lost") {
		t.Errorf("explanation %q does not name a lost writer", e)
	}
	// The same graph must also be rejected through the plain Graph
	// path (dense composites over the sparse per-object relations).
	if err := e.Graph.InModel(depgraph.SI); err == nil {
		t.Error("Graph.InModel accepts the rejected candidate")
	}
	limit := time.Second
	if raceEnabled {
		limit = 10 * time.Second
	}
	if elapsed > limit {
		t.Errorf("certify + explain took %v, want under %v", elapsed, limit)
	}
}

// TestIndexHistoryMatchesScan pins the one-pass index behind newSearch
// to the scan it replaced (newRefSearch: FinalWrite on every
// transaction for every read site, WriteTx for every object) on the
// seeded corpus: same read sites in the same order with the same
// candidate lists, same writer lists, same multi-writer objects — so
// the search order, and with it Examined and the witness, cannot move.
func TestIndexHistoryMatchesScan(t *testing.T) {
	t.Parallel()
	hs := map[string]*model.History{
		"serial":     serialHistory(3, 200, 3, 64, false),
		"lostupdate": serialHistory(4, 200, 3, 64, true),
	}
	for name, h := range diffCorpus(t) {
		hs[name] = h
		hs[name+"+init"] = h.WithInit(0)
	}
	rng := rand.New(rand.NewSource(20260926))
	cfgs := []workload.RandomConfig{
		{Sessions: 3, TxPerSession: 3, OpsPerTx: 4, Objects: 3, Values: 2, ReadFraction: 500},
		{Sessions: 2, TxPerSession: 4, OpsPerTx: 3, Objects: 2, Values: 3},
	}
	for i := 0; i < 400; i++ {
		h := workload.RandomHistory(rng, cfgs[i%len(cfgs)])
		if i%2 == 1 {
			h = workload.RandomPlausibleHistory(rng, cfgs[i%len(cfgs)])
		}
		hs[fmt.Sprintf("random-%d", i)] = h.WithInit(0)
	}
	for name, h := range hs {
		ref, refErr := newRefSearch(h, depgraph.SI, 1, 0)
		got, err := newSearch(h, depgraph.SI, 1, 1, 0)
		if (refErr == nil) != (err == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("%s: error diverged: scan %v, index %v", name, refErr, err)
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(got.reads, ref.reads) {
			t.Fatalf("%s: read sites diverged:\nscan  %v\nindex %v", name, ref.reads, got.reads)
		}
		if !reflect.DeepEqual(got.objs, ref.objs) {
			t.Fatalf("%s: multi-writer objects diverged: scan %v, index %v", name, ref.objs, got.objs)
		}
		for _, x := range h.Objects() {
			if !reflect.DeepEqual(got.writers[x], ref.writers[x]) {
				t.Fatalf("%s: writers of %s diverged: scan %v, index %v", name, x, ref.writers[x], got.writers[x])
			}
		}
	}
}
