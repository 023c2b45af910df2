package check

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"sian/internal/depgraph"
	"sian/internal/histio"
	"sian/internal/model"
	"sian/internal/relation"
	"sian/internal/workload"
)

// This file pins the refactored incremental certifier to the
// pre-refactor semantics. refSearch below is a faithful port of the
// original search: it clones the whole dependency graph at every WR
// branch and write-order leaf and recomputes a full transitive closure
// at every orderWrites node. The differential tests drive both
// implementations over the example corpus, the testdata histories and
// thousands of seeded random histories, and require identical
// verdicts, witnesses, explanations and examined counts.

type refSearch struct {
	h       *model.History
	m       depgraph.Model
	budget  int
	pinned  int
	reads   []refSite
	objs    []model.Obj
	writers map[model.Obj][]int
	all     []model.Obj // h.Objects(), computed once for the clones

	examined      int
	lastCandidate *depgraph.Graph
	lastPruned    *depgraph.Graph
}

// refSite is a read site as the reference names it: by object name.
type refSite struct {
	reader     int
	obj        model.Obj
	val        model.Value
	candidates []int
}

func newRefSearch(h *model.History, m depgraph.Model, budget, pinned int) (*refSearch, error) {
	s := &refSearch{h: h, m: m, budget: budget, pinned: pinned, writers: make(map[model.Obj][]int)}
	n := h.NumTransactions()
	for i := 0; i < n; i++ {
		t := h.Transaction(i)
		for _, x := range t.Objects() {
			v, reads := t.ReadsBeforeWrites(x)
			if !reads {
				continue
			}
			site := refSite{reader: i, obj: x, val: v}
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				if w, ok := h.Transaction(j).FinalWrite(x); ok && w == v {
					site.candidates = append(site.candidates, j)
				}
			}
			if len(site.candidates) == 0 {
				return nil, fmt.Errorf("check: transaction %d reads (%s, %d) never finally written", i, x, v)
			}
			s.reads = append(s.reads, site)
		}
	}
	s.all = h.Objects()
	for _, x := range s.all {
		w := h.WriteTx(x)
		s.writers[x] = w
		if len(w) >= 2 {
			s.objs = append(s.objs, x)
		}
	}
	return s, nil
}

func (s *refSearch) run() (*depgraph.Graph, int, error) {
	g, err := s.assignReads(0, depgraph.New(s.h))
	return g, s.examined, err
}

func (s *refSearch) assignReads(i int, g *depgraph.Graph) (*depgraph.Graph, error) {
	if i == len(s.reads) {
		return s.orderWrites(0, g)
	}
	site := s.reads[i]
	for _, w := range site.candidates {
		g2 := refCloneGraph(s.h, s.all, g)
		g2.AddWR(site.obj, w, site.reader)
		found, err := s.assignReads(i+1, g2)
		if err != nil || found != nil {
			return found, err
		}
	}
	return nil, nil
}

func (s *refSearch) orderWrites(oi int, g *depgraph.Graph) (*depgraph.Graph, error) {
	if oi == len(s.objs) {
		s.examined++
		if s.examined > s.budget {
			return nil, ErrBudgetExceeded
		}
		s.lastCandidate = g
		if g.InModel(s.m) == nil {
			return g, nil
		}
		return nil, nil
	}
	x := s.objs[oi]
	writers := s.writers[x]
	var base *relation.Rel
	if s.m == depgraph.GSI {
		base = relation.New(s.h.NumTransactions())
	} else {
		base = s.h.SessionOrder()
	}
	base.UnionInPlace(g.WR()).UnionInPlace(g.WW())
	closure := base.TransitiveClosure()
	if !closure.IsIrreflexive() {
		s.lastPruned = g
		return nil, nil
	}
	k := len(writers)
	if k > 64 {
		return nil, fmt.Errorf("check: object %q has %d writers; search limited to 64", x, k)
	}
	forced := make([]uint64, k)
	for i, a := range writers {
		for j, b := range writers {
			if i != j && closure.Has(b, a) {
				forced[i] |= 1 << uint(j)
			}
			if i != j && writers[j] == s.pinned {
				forced[i] |= 1 << uint(j)
			}
		}
	}
	order := make([]int, 0, k)
	return s.extend(oi, x, writers, forced, 0, order, g)
}

func (s *refSearch) extend(oi int, x model.Obj, writers []int, forced []uint64, placed uint64, order []int, g *depgraph.Graph) (*depgraph.Graph, error) {
	if len(order) == len(writers) {
		g2 := refCloneGraph(s.h, s.all, g)
		for a := 0; a < len(order); a++ {
			for b := a + 1; b < len(order); b++ {
				g2.AddWW(x, order[a], order[b])
			}
		}
		return s.orderWrites(oi+1, g2)
	}
	for i := range writers {
		bit := uint64(1) << uint(i)
		if placed&bit != 0 || forced[i]&^placed != 0 {
			continue
		}
		found, err := s.extend(oi, x, writers, forced, placed|bit, append(order, writers[i]), g)
		if err != nil || found != nil {
			return found, err
		}
	}
	return nil, nil
}

func refCloneGraph(h *model.History, objs []model.Obj, g *depgraph.Graph) *depgraph.Graph {
	out := depgraph.New(h)
	for _, x := range objs {
		for _, p := range g.WRObj(x).Pairs() {
			out.AddWR(x, p[0], p[1])
		}
		for _, p := range g.WWObj(x).Pairs() {
			out.AddWW(x, p[0], p[1])
		}
	}
	return out
}

// refOutcome is the reference verdict in comparable form.
type refOutcome struct {
	member   bool
	graph    *depgraph.Graph
	examined int
	axiom    string
	cycle    []depgraph.Edge
	explainG *depgraph.Graph
}

// refCertify mirrors the pre-refactor Certify control flow around
// refSearch. A non-nil error is a search error (budget, >64 writers).
func refCertify(h *model.History, m depgraph.Model, noInit, pinInit bool, budget int) (*refOutcome, error) {
	target := h
	if !noInit {
		target = h.WithInit(0)
		pinInit = true
	}
	if err := target.Validate(); err != nil {
		panic("differential corpus produced an invalid history: " + err.Error())
	}
	out := &refOutcome{}
	if err := target.CheckInt(); err != nil {
		out.axiom = "INT"
		return out, nil
	}
	pinned := -1
	if pinInit {
		pinned = 0
	}
	s, err := newRefSearch(target, m, budget, pinned)
	if err != nil {
		out.axiom = "EXT"
		return out, nil
	}
	g, examined, err := s.run()
	out.examined = examined
	if err != nil {
		return out, err
	}
	if g != nil {
		out.member = true
		out.graph = g
		return out, nil
	}
	// Pre-refactor explainNegative.
	if s.lastCandidate != nil {
		if we := s.lastCandidate.ExplainWitness(m); we != nil {
			out.axiom, out.cycle, out.explainG = we.Axiom, we.Cycle, s.lastCandidate
			return out, nil
		}
	}
	if s.lastPruned != nil {
		if we := s.lastPruned.ExplainBaseCycle(m); we != nil {
			out.axiom, out.cycle, out.explainG = we.Axiom, we.Cycle, s.lastPruned
			return out, nil
		}
	}
	out.axiom = "EXT"
	return out, nil
}

var diffModels = []depgraph.Model{depgraph.SER, depgraph.SI, depgraph.PSI, depgraph.PC, depgraph.GSI}

// diffCompare certifies h under the new implementation and requires
// agreement with the reference.
func diffCompare(t *testing.T, label string, h *model.History, m depgraph.Model, noInit bool, budget int) {
	t.Helper()
	ref, refErr := refCertify(h, m, noInit, true, budget)
	opts := Options{NoInit: noInit, PinInit: true, Budget: budget}
	res, err := Certify(h, m, opts)
	if refErr != nil {
		// Search error (budget or >64 writers): the new search is the
		// same depth-first exploration and must stop at the same place.
		if err == nil {
			t.Fatalf("%s/%v: reference errored (%v), new certifier returned member=%v", label, m, refErr, res.Member)
		}
		if errors.Is(refErr, ErrBudgetExceeded) != errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("%s/%v: error kind diverged: ref %v, new %v", label, m, refErr, err)
		}
		if res.Examined != ref.examined {
			t.Fatalf("%s/%v: examined at error diverged: ref %d, new %d", label, m, ref.examined, res.Examined)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s/%v: new certifier errored (%v), reference did not", label, m, err)
	}
	if res.Member != ref.member {
		t.Fatalf("%s/%v: verdict diverged: ref member=%v, new member=%v", label, m, ref.member, res.Member)
	}
	if res.Examined != ref.examined {
		t.Fatalf("%s/%v: examined diverged: ref %d, new %d", label, m, ref.examined, res.Examined)
	}
	if ref.member {
		if res.Graph == nil || !res.Graph.Equal(ref.graph) {
			t.Fatalf("%s/%v: witness graph diverged from reference", label, m)
		}
		return
	}
	if res.Explain == nil {
		t.Fatalf("%s/%v: negative verdict without explanation", label, m)
	}
	if res.Explain.Axiom != ref.axiom {
		t.Fatalf("%s/%v: axiom diverged: ref %s, new %s", label, m, ref.axiom, res.Explain.Axiom)
	}
	if !reflect.DeepEqual(res.Explain.Cycle, ref.cycle) {
		t.Fatalf("%s/%v: witness cycle diverged:\nref %v\nnew %v", label, m, ref.cycle, res.Explain.Cycle)
	}
	if ref.explainG != nil && (res.Explain.Graph == nil || !res.Explain.Graph.Equal(ref.explainG)) {
		t.Fatalf("%s/%v: explanation graph diverged from reference", label, m)
	}
}

// diffCorpus returns the curated histories: the Figure 2 examples and
// the testdata corpus.
func diffCorpus(t *testing.T) map[string]*model.History {
	t.Helper()
	out := make(map[string]*model.History)
	for _, ex := range workload.Examples() {
		out[ex.Name] = ex.History
	}
	for _, name := range []string{"longfork_history.json", "writeskew_history.json"} {
		f, err := os.Open("../../testdata/" + name)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		h, err := histio.DecodeHistory(f)
		f.Close()
		if err != nil {
			t.Fatalf("decode %s: %v", name, err)
		}
		out[name] = h
	}
	return out
}

// TestDifferentialCorpus pins the new certifier to the reference on
// every curated history.
func TestDifferentialCorpus(t *testing.T) {
	t.Parallel()
	for name, h := range diffCorpus(t) {
		for _, m := range diffModels {
			// The curated histories carry their own init transactions;
			// certify both raw and init-extended.
			diffCompare(t, name, h, m, true, 100_000)
			diffCompare(t, name+"+init", h, m, false, 100_000)
		}
	}
}

// TestDifferentialRandom pins the new certifier to the reference on
// seeded random histories — well over a thousand, mixing the
// unconstrained and plausible generators — under every model.
func TestDifferentialRandom(t *testing.T) {
	t.Parallel()
	const histories = 1200
	rng := rand.New(rand.NewSource(20260805))
	cfgs := []workload.RandomConfig{
		{Sessions: 2, TxPerSession: 2, OpsPerTx: 2, Objects: 2, Values: 2},
		{Sessions: 3, TxPerSession: 2, OpsPerTx: 3, Objects: 2, Values: 2, ReadFraction: 400},
		{Sessions: 2, TxPerSession: 3, OpsPerTx: 2, Objects: 3, Values: 2, ReadFraction: 600},
		{Sessions: 3, TxPerSession: 1, OpsPerTx: 4, Objects: 2, Values: 3},
	}
	for i := 0; i < histories; i++ {
		cfg := cfgs[i%len(cfgs)]
		var h *model.History
		if i%2 == 0 {
			h = workload.RandomHistory(rng, cfg)
		} else {
			h = workload.RandomPlausibleHistory(rng, cfg)
		}
		label := fmt.Sprintf("random-%d", i)
		m := diffModels[i%len(diffModels)]
		// Every history under one rotating model, plus a full model
		// sweep on a sample.
		diffCompare(t, label, h, m, false, 20_000)
		if i%10 == 0 {
			for _, other := range diffModels {
				if other == m {
					continue
				}
				diffCompare(t, label, h, other, false, 20_000)
			}
		}
	}
}

// forcedPrefixHistory has more than a thousand objects whose write
// order the init transaction alone forces (one blind writer each, in
// ten sessions) and, last in object order, one branch point: "z",
// which two transactions of different sessions increment from the
// same version, a lost update. The search places the forced objects
// in one loop and branches only at z.
func forcedPrefixHistory() *model.History {
	const sessions, perSession, objsPerTx = 10, 2, 55
	var sess []model.Session
	next := model.Value(0)
	for s := 0; s < sessions; s++ {
		se := model.Session{ID: fmt.Sprintf("s%d", s)}
		for t := 0; t < perSession; t++ {
			var ops []model.Op
			for k := 0; k < objsPerTx; k++ {
				next++
				ops = append(ops, model.Write(model.Obj(fmt.Sprintf("o%04d", (s*perSession+t)*objsPerTx+k)), next))
			}
			se.Transactions = append(se.Transactions, model.NewTransaction(fmt.Sprintf("s%d.%d", s, t), ops...))
		}
		sess = append(sess, se)
	}
	for i, v := range []model.Value{1, 2} {
		sess = append(sess, model.Session{ID: fmt.Sprintf("lost%d", i), Transactions: []model.Transaction{
			model.NewTransaction(fmt.Sprintf("lost%d", i), model.Read("z", 0), model.Write("z", v)),
		}})
	}
	return model.NewHistory(sess...)
}

// TestDifferentialForcedPrefix pins the flat placement of forced write
// orders to the reference on forcedPrefixHistory, under every model.
func TestDifferentialForcedPrefix(t *testing.T) {
	t.Parallel()
	h := forcedPrefixHistory()
	s, err := newSearch(h.WithInit(0), depgraph.SI, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.objs) <= 1000 || s.names[s.objs[len(s.objs)-1]] != "z" {
		t.Fatalf("%d multi-writer objects, last %s; want over 1000, last z", len(s.objs), s.names[s.objs[len(s.objs)-1]])
	}
	for _, m := range diffModels {
		diffCompare(t, "forced-prefix", h, m, false, 100)
	}
	if res, err := Certify(h, depgraph.SI, Options{}); err != nil || res.Member || res.Examined != 2 {
		t.Fatalf("SI: member %v, examined %d, err %v; want a rejection after both orders of z", res.Member, res.Examined, err)
	}
}
