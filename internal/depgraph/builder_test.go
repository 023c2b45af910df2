package depgraph

import (
	"math/rand"
	"testing"

	"sian/internal/model"
	"sian/internal/relation"
)

// builderHistory is a small multi-session, multi-object history for
// exercising the builder. Edge validity does not matter for these
// tests (composites are pure relational algebra), only the carrier
// size and the session order.
func builderHistory() *model.History {
	return model.NewHistory(
		sess("s1", tx("A", model.Write("x", 1)), tx("B", model.Write("y", 1))),
		sess("s2", tx("C", model.Write("x", 2)), tx("D", model.Write("y", 2))),
		sess("s3", tx("E", model.Read("x", 1)), tx("F", model.Read("y", 2))),
	)
}

var builderModels = []Model{SER, SI, PSI, PC, GSI}

// builderObjs names builderHistory's objects by id: x is 0, y is 1.
var builderObjs = []model.Obj{"x", "y"}

// graphAgrees checks Builder.InModel against the immutable Graph's
// composite characterisations (skipping the INT check, which is not
// the builder's concern).
func graphAgrees(t *testing.T, b *Builder, g *Graph, m Model) {
	t.Helper()
	r := m.Row()
	c := g.composite(r)
	want := c.IsAcyclic()
	if r.RW == RWAfterPath {
		want = c.IsIrreflexive()
	}
	got := b.InModel() == nil
	if got != want {
		t.Fatalf("%v: builder member=%v, composite member=%v\nWR=%v\nWW=%v",
			m, got, want, g.WR(), g.WW())
	}
}

// TestBuilderMatchesGraph drives random WR/WW edge sequences with
// nested mark/undo through a Builder and cross-checks membership and
// snapshots against graphs rebuilt from scratch, for every model.
func TestBuilderMatchesGraph(t *testing.T) {
	t.Parallel()
	h := builderHistory()
	n := h.NumTransactions()
	objs := []model.Obj{"x", "y"}
	rng := rand.New(rand.NewSource(7))
	for _, m := range builderModels {
		for trial := 0; trial < 60; trial++ {
			b := NewBuilder(h, m, objs)
			g := New(h)
			type frame struct {
				mark BuilderMark
				g    *Graph
			}
			var stack []frame
			cloneG := func() *Graph {
				c := New(h)
				for _, x := range objs {
					for _, p := range g.WRObj(x).Pairs() {
						c.AddWR(x, p[0], p[1])
					}
					for _, p := range g.WWObj(x).Pairs() {
						c.AddWW(x, p[0], p[1])
					}
				}
				return c
			}
			for step := 0; step < 30; step++ {
				switch {
				case len(stack) > 0 && rng.Intn(4) == 0:
					f := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					b.Undo(f.mark)
					g = f.g
				case rng.Intn(3) == 0:
					stack = append(stack, frame{mark: b.Mark(), g: cloneG()})
				default:
					xi := rng.Intn(len(objs))
					x := objs[xi]
					a, c := rng.Intn(n), rng.Intn(n)
					if a == c {
						continue
					}
					if rng.Intn(2) == 0 {
						b.ApplyWR(xi, a, c)
						g.AddWR(x, a, c)
					} else {
						b.ApplyWW(xi, a, c)
						g.AddWW(x, a, c)
					}
				}
				graphAgrees(t, b, g, m)
				if snap := b.Graph(); !snap.Equal(g) {
					t.Fatalf("%v trial %d step %d: snapshot diverged from reference graph", m, trial, step)
				}
				if cyc := b.Cyclic(); m != GSI {
					base := h.SessionOrder().UnionInPlace(g.WR()).UnionInPlace(g.WW())
					if cyc != !base.TransitiveClosure().IsIrreflexive() {
						t.Fatalf("%v trial %d step %d: Cyclic()=%v disagrees with batch closure", m, trial, step, cyc)
					}
				}
			}
		}
	}
}

// TestBuilderReaches pins the forced-precedence oracle to the batch
// closure of the base relation.
func TestBuilderReaches(t *testing.T) {
	t.Parallel()
	h := builderHistory()
	n := h.NumTransactions()
	b := NewBuilder(h, SI, builderObjs)
	b.ApplyWR(0, 0, 4)
	b.ApplyWW(0, 0, 2)
	g := New(h)
	g.AddWR("x", 0, 4)
	g.AddWW("x", 0, 2)
	want := h.SessionOrder().UnionInPlace(g.WR()).UnionInPlace(g.WW()).TransitiveClosure()
	for a := 0; a < n; a++ {
		for c := 0; c < n; c++ {
			if b.Reaches(a, c) != want.Has(a, c) {
				t.Fatalf("Reaches(%d,%d)=%v, batch closure says %v", a, c, b.Reaches(a, c), want.Has(a, c))
			}
		}
	}
}

// TestBuilderRederivesRW checks that undoing one witness of an
// anti-dependency keeps the pair while another witness remains.
func TestBuilderRederivesRW(t *testing.T) {
	t.Parallel()
	h := builderHistory()
	b := NewBuilder(h, SI, builderObjs)
	// Witness 1: WR(x)(0,4), WW(x)(0,2) ⟹ RW(4,2).
	b.ApplyWR(0, 0, 4)
	b.ApplyWW(0, 0, 2)
	mark := b.Mark()
	// Witness 2 for the same pair via object y.
	b.ApplyWR(1, 1, 4)
	b.ApplyWW(1, 1, 2)
	b.Undo(mark)
	if !b.Graph().RW().Has(4, 2) {
		t.Fatal("undoing the second witness dropped a still-derivable RW pair")
	}
	b2 := NewBuilder(h, SI, builderObjs)
	b2.ApplyWR(0, 0, 4)
	b2.ApplyWW(0, 0, 2)
	if !b.Graph().Equal(b2.Graph()) {
		t.Fatal("undo did not restore the exact edge set")
	}
}

// TestBuilderStats checks the observability totals move.
func TestBuilderStats(t *testing.T) {
	t.Parallel()
	h := builderHistory()
	b := NewBuilder(h, SI, builderObjs)
	m := b.Mark()
	b.ApplyWR(0, 0, 4)
	b.Undo(m)
	undo, delta := b.Stats()
	if undo == 0 || delta == 0 {
		t.Errorf("stats not recorded: undo=%d delta=%d", undo, delta)
	}
}

// denseRef is an independent model of a builder's edge set: one dense
// matrix per object and kind, as the package stored them before
// per-object relations became edge sets.
type denseRef struct {
	n      int
	wr, ww map[model.Obj]*relation.Rel
}

func (d *denseRef) clone() *denseRef {
	c := &denseRef{n: d.n, wr: map[model.Obj]*relation.Rel{}, ww: map[model.Obj]*relation.Rel{}}
	for x, r := range d.wr {
		c.wr[x] = r.Clone()
	}
	for x, r := range d.ww {
		c.ww[x] = r.Clone()
	}
	return c
}

func (d *denseRef) rel(m map[model.Obj]*relation.Rel, x model.Obj) *relation.Rel {
	if m[x] == nil {
		m[x] = relation.New(d.n)
	}
	return m[x]
}

// rw derives RW(x) the dense way: WR(x)⁻¹ ; WW(x) minus the diagonal.
func (d *denseRef) rw(x model.Obj) *relation.Rel {
	out := d.rel(d.wr, x).Inverse().Compose(d.rel(d.ww, x))
	for i := 0; i < d.n; i++ {
		out.Remove(i, i)
	}
	return out
}

// TestBuilderUndoAgainstDense drives random ApplyWR/ApplyWW sequences
// with nested Mark/Undo and checks every snapshot's per-object WR, WW
// and derived RW, and the carrier-wide unions, pair for pair against
// dense matrices kept on the side — so the edge-set journal restores
// exactly what it should, and the sparse RW derivation is the dense
// formula's.
func TestBuilderUndoAgainstDense(t *testing.T) {
	t.Parallel()
	h := builderHistory()
	n := h.NumTransactions()
	objs := []model.Obj{"x", "y"}
	rng := rand.New(rand.NewSource(21))
	samePairs := func(label string, e *relation.Edges, r *relation.Rel) {
		t.Helper()
		dense := relation.New(n)
		e.AddTo(dense)
		if !dense.Equal(r) || len(e.Pairs()) != r.Size() {
			t.Fatalf("%s: edge set %v, dense %v", label, e, r)
		}
	}
	for trial := 0; trial < 80; trial++ {
		b := NewBuilder(h, SI, objs)
		ref := &denseRef{n: n, wr: map[model.Obj]*relation.Rel{}, ww: map[model.Obj]*relation.Rel{}}
		type frame struct {
			mark BuilderMark
			ref  *denseRef
		}
		var stack []frame
		for step := 0; step < 40; step++ {
			switch {
			case len(stack) > 0 && rng.Intn(4) == 0:
				f := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				b.Undo(f.mark)
				ref = f.ref
			case rng.Intn(3) == 0:
				stack = append(stack, frame{mark: b.Mark(), ref: ref.clone()})
			default:
				xi := rng.Intn(len(objs))
				x := objs[xi]
				a, c := rng.Intn(n), rng.Intn(n)
				if a == c {
					continue
				}
				if rng.Intn(2) == 0 {
					b.ApplyWR(xi, a, c)
					ref.rel(ref.wr, x).Add(a, c)
				} else {
					b.ApplyWW(xi, a, c)
					ref.rel(ref.ww, x).Add(a, c)
				}
			}
			g := b.Graph()
			wrAll, wwAll, rwAll := relation.New(n), relation.New(n), relation.New(n)
			for _, x := range objs {
				samePairs("WR("+string(x)+")", g.WRObj(x), ref.rel(ref.wr, x))
				samePairs("WW("+string(x)+")", g.WWObj(x), ref.rel(ref.ww, x))
				samePairs("RW("+string(x)+")", g.RWObj(x), ref.rw(x))
				wrAll.UnionInPlace(ref.rel(ref.wr, x))
				wwAll.UnionInPlace(ref.rel(ref.ww, x))
				rwAll.UnionInPlace(ref.rw(x))
			}
			if !g.WR().Equal(wrAll) || !g.WW().Equal(wwAll) || !g.RW().Equal(rwAll) {
				t.Fatalf("trial %d step %d: unions diverged from the dense reference", trial, step)
			}
			for a := 0; a < n; a++ {
				for c := 0; c < n; c++ {
					for _, x := range objs {
						if g.hasRW(x, a, c) != ref.rw(x).Has(a, c) {
							t.Fatalf("trial %d step %d: hasRW(%s,%d,%d) disagrees with the dense derivation", trial, step, x, a, c)
						}
					}
				}
			}
		}
	}
}

// TestClosureInModelAllocatesNothing: the membership test over a
// maintained closure, which every candidate of the certification
// search and every monitor commit pays, allocates nothing under any
// model, member or not.
func TestClosureInModelAllocatesNothing(t *testing.T) {
	h := builderHistory()
	for _, m := range builderModels {
		for _, member := range []bool{true, false} {
			b := NewBuilder(h, m, builderObjs)
			b.ApplyWR(0, 0, 4)
			b.ApplyWW(0, 0, 2)
			b.ApplyWR(1, 1, 5)
			if !member {
				// Lost update on y: D and F both follow B's version.
				b.ApplyWR(1, 1, 3)
				b.ApplyWW(1, 1, 3)
				b.ApplyWW(1, 3, 5)
			}
			if got := b.InModel() == nil; m != PC && got != member {
				t.Fatalf("%v: member = %v, want %v", m, got, member)
			}
			if allocs := testing.AllocsPerRun(50, func() { _ = b.InModel() }); allocs != 0 {
				t.Errorf("%v member=%v: InModel allocated %.1f times per call", m, member, allocs)
			}
		}
	}
}

// TestBuilderKeepsOnlyItsModelsRelations: a builder allocates the n×n
// relations its model's membership test reads. SER, SI, PSI and GSI
// compose RW with the closure alone, so their builders hold no WR
// union, no session order and no PC composites; a PC builder holds all
// three, and judges as the composite characterisation does.
func TestBuilderKeepsOnlyItsModelsRelations(t *testing.T) {
	t.Parallel()
	h := builderHistory()
	for _, m := range builderModels {
		b := NewBuilder(h, m, builderObjs)
		pc := m == PC
		if (b.wrAll != nil) != pc || (b.so != nil) != pc || (b.scratch.s2 != nil) != pc || (b.scratch.s3 != nil) != pc {
			t.Errorf("%v: WR union %v, SO %v, PC scratch %v/%v; want all present exactly for PC",
				m, b.wrAll != nil, b.so != nil, b.scratch.s2 != nil, b.scratch.s3 != nil)
		}
		if b.rw == nil || b.scratch.s1 == nil {
			t.Errorf("%v: RW or the composite scratch is missing", m)
		}
		b.ApplyWR(0, 0, 4)
		b.ApplyWW(0, 0, 2)
		b.ApplyWR(1, 3, 5)
		g := New(h)
		g.AddWR("x", 0, 4)
		g.AddWW("x", 0, 2)
		g.AddWR("y", 3, 5)
		graphAgrees(t, b, g, m)
	}
}

// TestClosureInModelThroughMatchesFull: on random graphs that pass
// ClosureInModel, adding base edges into and out of one element t and
// anti-dependencies at t leaves ClosureInModelThrough with the whole
// test's verdict, under every row it covers, on carriers of one word
// and of several.
func TestClosureInModelThroughMatchesFull(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	verdicts := map[Model]map[bool]int{}
	for _, m := range Models() {
		if !m.Row().Incremental() {
			if m.Row().CO == 0 && m.Row().RW != RWAfterPath {
				t.Errorf("%v: a row without CO kinds or PSI's shape is not Incremental", m)
			}
			continue
		}
		verdicts[m] = map[bool]int{}
		for _, n := range []int{2, 9, 40, 64, 65, 150} {
			sc := NewScratch(n, m)
			for trial := 0; trial < 60; trial++ {
				cl, rw := relation.NewClosure(n), relation.New(n)
				target := rng.Intn(n)
				// Base edges follow a random order, so B is acyclic; then
				// anti-dependencies are kept only while the graph passes.
				perm := rng.Perm(n)
				for range rng.Intn(2*n) + 1 {
					a, b := rng.Intn(n), rng.Intn(n)
					if a > b {
						a, b = b, a
					}
					if a != b && perm[a] != target && perm[b] != target {
						cl.AddEdge(perm[a], perm[b])
					}
				}
				for range rng.Intn(n) + 1 {
					a, b := rng.Intn(n), rng.Intn(n)
					if a == b || a == target || b == target || rw.Has(a, b) {
						continue
					}
					rw.Add(a, b)
					if ClosureInModel(m, cl, rw, nil, nil, sc) != nil {
						rw.Remove(a, b)
					}
				}
				if err := ClosureInModel(m, cl, rw, nil, nil, sc); err != nil {
					t.Fatalf("%v n=%d trial %d: the graph before t fails: %v", m, n, trial, err)
				}
				// t's edges: base edges into it in one sweep, a few out of
				// it, anti-dependencies either way.
				preds := make([]uint64, (n+63)/64)
				for range rng.Intn(4) {
					a := rng.Intn(n)
					preds[a/64] |= 1 << (uint(a) % 64)
				}
				cl.AddEdgesInto(preds, target)
				for range rng.Intn(3) {
					if b := rng.Intn(n); b != target {
						cl.AddEdge(target, b)
					}
				}
				for range rng.Intn(4) {
					if a := rng.Intn(n); a != target {
						if rng.Intn(2) == 0 {
							rw.Add(a, target)
						} else {
							rw.Add(target, a)
						}
					}
				}
				want := ClosureInModel(m, cl, rw, nil, nil, sc)
				got := ClosureInModelThrough(m, cl, rw, target, sc)
				if got != want {
					t.Fatalf("%v n=%d trial %d: through %d: %v, whole test: %v\nclosure %v\nRW %v", m, n, trial, target, got, want, cl.Rel(), rw)
				}
				verdicts[m][want == nil]++
			}
		}
	}
	for m, v := range verdicts {
		t.Logf("%v: %d members, %d non-members", m, v[true], v[false])
		if v[true] < 50 || v[false] < 50 {
			t.Errorf("%v: %d members and %d non-members, want both kinds", m, v[true], v[false])
		}
	}
}

// TestBaseCycleNamesTheRowsBase: a cycle of dependencies alone is
// attributed to the axioms and kinds of the row's base. GSI's base
// holds no SO, so its explanation names neither SESSION nor SO; SI's
// is the text it always was.
func TestBaseCycleNamesTheRowsBase(t *testing.T) {
	t.Parallel()
	h := model.NewHistory(
		sess("s1", tx("T1", model.Write("x", 1), model.Read("y", 2))),
		sess("s2", tx("T2", model.Write("y", 2), model.Read("x", 1))),
	)
	g := New(h)
	g.AddWR("x", 0, 1)
	g.AddWR("y", 1, 0)
	for _, tc := range []struct {
		m    Model
		want string
	}{
		{SI, "SESSION/EXT (dependency cycle: SO ∪ WR ∪ WW must embed into the commit order)"},
		{PC, "SESSION/EXT (dependency cycle: SO ∪ WR ∪ WW must embed into the commit order)"},
		{GSI, "EXT (dependency cycle: WR ∪ WW must embed into the commit order)"},
	} {
		for _, e := range []*WitnessExplanation{g.ExplainWitness(tc.m), g.ExplainBaseCycle(tc.m)} {
			if e == nil || e.Axiom != tc.want {
				t.Errorf("%v: explanation %+v, want axiom %q", tc.m, e, tc.want)
			}
		}
	}
}

// TestClosureInModelThroughAllocatesNothing: once its scratch has grown
// to the carrier, the search through one element allocates nothing,
// on one word and on several, member or not.
func TestClosureInModelThroughAllocatesNothing(t *testing.T) {
	for _, n := range []int{40, 150} {
		for _, m := range []Model{SER, SI, GSI} {
			cl, rw, sc := relation.NewClosure(n), relation.New(n), NewScratch(n, m)
			for i := 1; i < n; i++ {
				cl.AddEdge(i-1, i)
			}
			for _, member := range []bool{true, false} {
				if !member {
					rw.Add(n-1, n/2)
				}
				if got := ClosureInModelThrough(m, cl, rw, n/2, sc) == nil; got != member {
					t.Fatalf("%v n=%d: member = %v, want %v", m, n, got, member)
				}
				if allocs := testing.AllocsPerRun(20, func() { _ = ClosureInModelThrough(m, cl, rw, n/2, sc) }); allocs != 0 {
					t.Errorf("%v n=%d member=%v: ClosureInModelThrough allocated %.1f times per call", m, n, member, allocs)
				}
			}
		}
	}
}
