package depgraph

import (
	"fmt"

	"sian/internal/model"
	"sian/internal/relation"
)

// Builder is the mutable counterpart of Graph used by the
// certification search. Where Graph is an immutable value that
// recomputes unions, anti-dependencies and closures on demand, Builder
// applies WR and WW edges in place, derives the affected RW
// anti-dependencies incrementally, and maintains the transitive
// closure of its model's base relation B = VIS ∪ CO (the row's Base)
// through relation.Closure. Every mutation after the first Mark is
// journaled, so a depth-first search can push edges while descending
// and pop them with Undo while backtracking — no per-branch graph
// clones.
//
// The membership test InModel is evaluated against the maintained
// state. A B cycle lies inside every row's composite (RW? is
// reflexive), so once B is known acyclic each candidate check reduces
// to a cycle check on a composition with the sparse RW on the left,
// one kernel per row shape:
//
//	B ∪ RW cyclic             ⟺  RW ; B* cyclic
//	B ; RW? cyclic            ⟺  RW ; B⁺ cyclic         (no CO edges: B = VIS)
//	(A ; RW?) ∪ CO cyclic     ⟺  (RW ; B*) ; A cyclic  (A = VIS)
//	B⁺ ; RW? reflexive        ⟺  ∃ RW(a,b) with b →B⁺ a
//
// (collapse the pure-B segments of any composite cycle: what remains
// alternates RW edges with non-empty — or possibly empty, for the
// union shape — B-paths). B⁺ is exactly the maintained closure, so no
// candidate check recomputes a transitive closure.
//
// Objects are named by dense ids, positions in the name table passed
// to NewBuilder, so the per-object edge sets are slices, not maps.
// Nothing is journaled before the first Mark: edges applied before it
// are below every mark and never undone, and the closure collects them
// for one pass (relation.Closure) instead of propagating each.
//
// Builder is not safe for concurrent use.
type Builder struct {
	h    *model.History
	m    Model
	objs []model.Obj // object names by id

	// Per-object edge sets by object id, as in Graph.
	wr, ww []relation.Edges
	// Derived anti-dependencies (dense: the membership test composes
	// them with the closure word-parallel).
	rw *relation.Rel
	// so and wrAll, the session order and the maintained WR union, are
	// the dense kinds of the row (Row.Dense), nil when it has none.
	so, wrAll *relation.Rel
	// cl is the transitive closure of the row's base relation.
	cl *relation.Closure

	journal    []builderOp
	journaling bool // set by the first Mark
	scratch    *Scratch

	undoOps int64
}

// builderOp journals one newly set bit; Undo clears it. Edges that
// were already present (a union bit witnessed by another object, a
// re-applied per-object edge) are not journaled, so LIFO undo restores
// exact prior state.
type builderOp struct {
	kind uint8
	x    int
	a, b int
}

const (
	opWRObj uint8 = iota
	opWWObj
	opWRAll
	opRW
)

// NewBuilder returns an empty builder over the history for membership
// tests against the given model. objs names the objects by id: the
// x of ApplyWR and ApplyWW indexes it. It allocates the n×n relations
// its model's membership test reads and no others: the closure, RW and
// one composite for every model, and the row's dense relations (SO and
// the WR union under PC) and two more composites when it has CO edges.
func NewBuilder(h *model.History, m Model, objs []model.Obj) *Builder {
	n := h.NumTransactions()
	r := m.Row()
	b := &Builder{
		h: h, m: m, objs: objs,
		wr: make([]relation.Edges, len(objs)), ww: make([]relation.Edges, len(objs)),
		rw:      relation.New(n),
		cl:      relation.NewClosure(n),
		scratch: NewScratch(n, m),
	}
	if r.Dense().Has(EdgeSO) {
		b.so = h.SessionOrder()
	}
	if r.Dense().Has(EdgeWR) {
		b.wrAll = relation.New(n)
	}
	if r.Base().Has(EdgeSO) {
		// Transaction indices run session by session, so each session's
		// immediate-successor edges seed SO; the closure adds the rest.
		b.cl.Reserve(n)
		for i := 1; i < n; i++ {
			if h.SessionIndex(i) == h.SessionIndex(i-1) {
				b.cl.AddEdge(i-1, i)
			}
		}
	}
	return b
}

// Reserve makes room for edges more ApplyWR/ApplyWW edges before the
// first Mark, which the closure collects for its one-pass close: a
// caller that knows how many edges it places unconditionally saves the
// collection's reallocations.
func (b *Builder) Reserve(edges int) { b.cl.Reserve(edges) }

// BuilderMark captures a builder state for Undo.
type BuilderMark struct {
	ops int
	cl  relation.Mark
}

// Mark returns a checkpoint of the current edge set, and starts the
// journal if this is the first one.
func (b *Builder) Mark() BuilderMark {
	b.journaling = true
	return BuilderMark{ops: len(b.journal), cl: b.cl.Checkpoint()}
}

// Undo reverts every ApplyWR/ApplyWW since the mark.
func (b *Builder) Undo(m BuilderMark) {
	for i := len(b.journal) - 1; i >= m.ops; i-- {
		op := b.journal[i]
		switch op.kind {
		case opWRObj:
			b.wr[op.x].Remove(op.a, op.b)
		case opWWObj:
			b.ww[op.x].Remove(op.a, op.b)
		case opWRAll:
			b.wrAll.Remove(op.a, op.b)
		case opRW:
			b.rw.Remove(op.a, op.b)
		}
	}
	b.undoOps += int64(len(b.journal) - m.ops)
	b.journal = b.journal[:m.ops]
	b.cl.Rollback(m.cl)
}

// record journals a newly set bit once a mark exists.
func (b *Builder) record(kind uint8, x, a, c int) {
	if b.journaling {
		b.journal = append(b.journal, builderOp{kind: kind, x: x, a: a, b: c})
	}
}

func (b *Builder) addRW(a, c int) {
	if b.rw.Has(a, c) {
		return
	}
	b.rw.Add(a, c)
	b.record(opRW, 0, a, c)
}

// ApplyWR records T —WR(x)→ S for the object with id x, updating the
// union, the derived anti-dependencies (S now races with every
// WW(x)-successor of T) and the maintained closure. Re-applying an
// existing edge is a no-op.
func (b *Builder) ApplyWR(x, t, s int) {
	wr := &b.wr[x]
	if wr.Has(t, s) {
		return
	}
	wr.Add(t, s)
	b.record(opWRObj, x, t, s)
	if b.wrAll != nil && !b.wrAll.Has(t, s) {
		b.wrAll.Add(t, s)
		b.record(opWRAll, 0, t, s)
	}
	b.ww[x].EachSuccessor(t, func(s2 int) {
		if s2 != s {
			b.addRW(s, s2)
		}
	})
	b.cl.AddEdge(t, s)
}

// ApplyWW records T —WW(x)→ S for the object with id x, updating the
// derived anti-dependencies (every reader of T on x races with S) and
// the maintained closure. Re-applying an existing edge is a no-op.
func (b *Builder) ApplyWW(x, t, s int) {
	ww := &b.ww[x]
	if ww.Has(t, s) {
		return
	}
	ww.Add(t, s)
	b.record(opWWObj, x, t, s)
	b.wr[x].EachSuccessor(t, func(r int) {
		if r != s {
			b.addRW(r, s)
		}
	})
	b.cl.AddEdge(t, s)
}

// Cyclic reports whether the base relation B is cyclic. A cyclic base
// excludes membership in the model, so the search prunes on it.
func (b *Builder) Cyclic() bool { return b.cl.HasCycle() }

// Reaches reports whether s is reachable from t through the base
// relation (one or more steps) — the forced-precedence oracle of the
// write-order enumeration.
func (b *Builder) Reaches(t, s int) bool { return b.cl.Reaches(t, s) }

// InModel reports membership of the current edge set in the builder's
// model, against the same composite-relation characterisations as
// Graph.InModel. It assumes the history already passed CheckInt (the
// INT axiom constrains transactions, not dependency choices, so the
// search front-loads it). A nil error means membership.
func (b *Builder) InModel() error {
	return ClosureInModel(b.m, b.cl, b.rw, b.so, b.wrAll, b.scratch)
}

// Scratch is the working storage ClosureInModel overwrites: relations
// over the carrier for the composites and the cycle test's DFS. Each
// builder and monitor keeps its own.
type Scratch struct {
	s1 *relation.Rel
	// s2 and s3 hold A and (RW ; B*) ; A for a row with CO edges; nil
	// for the others.
	s2, s3 *relation.Rel
	dfs    relation.DFS
	walk   relation.Walk
}

// NewScratch returns working storage for model m's membership test
// over a carrier of n elements.
func NewScratch(n int, m Model) *Scratch {
	sc := &Scratch{s1: relation.New(n)}
	if m.Row().Dense() != 0 {
		sc.s2, sc.s3 = relation.New(n), relation.New(n)
	}
	return sc
}

// ClosureInModel is the membership test over a maintained closure, the
// reductions listed on Builder: cl is the transitive closure of the
// model's base relation B, rw the anti-dependencies, so and wr the
// session order and the WR union (read only when they are the row's
// Dense kinds), and sc working storage from NewScratch for m, which it
// overwrites. The certification search (Builder.InModel) and the
// online monitor's fast path both judge their graphs with it. It
// allocates nothing.
func ClosureInModel(m Model, cl *relation.Closure, rw, so, wr *relation.Rel, sc *Scratch) error {
	r := m.Row()
	if r == nil {
		return fmt.Errorf("unknown model %v", m)
	}
	if cl.HasCycle() {
		return r.violation
	}
	ok := true
	switch {
	case r.RW == RWAfterPath:
		for a := 0; a < rw.N() && ok; a++ {
			rw.EachSuccessor(a, func(c int) {
				if ok && cl.Reaches(c, a) {
					ok = false
				}
			})
		}
	case r.RW == RWUnion:
		cl.ComposeMaybeInto(sc.s1, rw) // RW ; B*
		ok = sc.s1.IsAcyclicWith(&sc.dfs)
	case r.CO == 0:
		cl.ComposeInto(sc.s1, rw) // RW ; B⁺
		ok = sc.s1.IsAcyclicWith(&sc.dfs)
	default:
		cl.ComposeMaybeInto(sc.s1, rw) // RW ; B*
		a := sc.s2                     // A = VIS
		a.Clear()
		if r.VIS.Has(EdgeSO) {
			a.UnionInPlace(so)
		}
		if r.VIS.Has(EdgeWR) {
			a.UnionInPlace(wr)
		}
		ok = sc.s3.ComposeOf(sc.s1, a).IsAcyclicWith(&sc.dfs)
	}
	if !ok {
		return r.violation
	}
	return nil
}

// ClosureInModelThrough is ClosureInModel for a graph that passed it
// before the edges of one element t were added: every base edge and
// every anti-dependency added since has t at one end. Each pair such a
// base edge adds to the closure runs through t, so a cycle the
// composite gained runs through t as well, and the test searches from
// t alone (relation.Closure.OnCycleMaybe and OnCycleUnion), reading
// the rows it reaches instead of composing and searching the whole
// carrier. Its verdict is ClosureInModel's. It allocates nothing once
// sc has grown to the carrier, and it panics for a row that is not
// Incremental.
func ClosureInModelThrough(m Model, cl *relation.Closure, rw *relation.Rel, t int, sc *Scratch) error {
	r := m.Row()
	if !r.Incremental() {
		panic(fmt.Sprintf("depgraph: %v has no cycle test through one element", m))
	}
	if cl.HasCycle() {
		return r.violation
	}
	var cyclic bool
	if r.RW == RWUnion {
		cyclic = cl.OnCycleUnion(rw, t, &sc.walk)
	} else {
		cyclic = cl.OnCycleMaybe(rw, t, &sc.walk)
	}
	if cyclic {
		return r.violation
	}
	return nil
}

// Graph hands the current edge set over to a Graph, for witness
// reporting once the search finds a member. Nothing is copied: the
// Graph shares the builder's per-object edge sets, so it stays valid
// only until the builder's next ApplyWR, ApplyWW or Undo.
func (b *Builder) Graph() *Graph {
	nwr, nww := 0, 0
	for x := range b.objs {
		if !b.wr[x].IsEmpty() {
			nwr++
		}
		if !b.ww[x].IsEmpty() {
			nww++
		}
	}
	// A quarter of slack: a map of more than one table grows a table
	// that its hash seed happens to fill, so an exact hint would make
	// what a certification allocates differ from run to run.
	g := &Graph{
		History: b.h,
		wr:      make(map[model.Obj]*relation.Edges, nwr+nwr/4),
		ww:      make(map[model.Obj]*relation.Edges, nww+nww/4),
	}
	for x := range b.objs {
		if e := &b.wr[x]; !e.IsEmpty() {
			g.wr[b.objs[x]] = e
		}
		if e := &b.ww[x]; !e.IsEmpty() {
			g.ww[b.objs[x]] = e
		}
	}
	return g
}

// Stats returns the observability totals: journal entries reverted by
// Undo and closure pairs materialised by delta propagation.
func (b *Builder) Stats() (undoOps, closureDeltaEdges int64) {
	delta, _ := b.cl.Stats()
	return b.undoOps, delta
}
