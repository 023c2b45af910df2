package depgraph

import (
	"sian/internal/model"
	"sian/internal/relation"
)

// Builder is the mutable counterpart of Graph used by the
// certification search. Where Graph is an immutable value that
// recomputes unions, anti-dependencies and closures on demand, Builder
// applies WR and WW edges in place, derives the affected RW
// anti-dependencies incrementally, and maintains the transitive
// closure of the model's base relation (SO ∪ WR ∪ WW, or WR ∪ WW for
// GSI) through relation.Closure. Every mutation is journaled, so a
// depth-first search can push edges while descending and pop them with
// Undo while backtracking — no per-branch graph clones.
//
// The membership test InModel is evaluated against the maintained
// state. Writing B for the base relation and observing that a base
// cycle lies inside every model's composite (RW? is reflexive), each
// candidate check reduces, once B is known acyclic, to a cycle check
// on a composition with the sparse RW on the left:
//
//	SER: B ∪ RW cyclic        ⟺  RW ; B* cyclic
//	SI:  B ; RW? cyclic       ⟺  RW ; B⁺ cyclic
//	PSI: B⁺ ; RW? reflexive   ⟺  ∃ RW(a,b) with b →B⁺ a
//	PC:  (A ; RW?) ∪ WW cyclic ⟺ (RW ; B*) ; A cyclic  (A = SO ∪ WR)
//	GSI: as SI with B = WR ∪ WW
//
// (collapse the pure-B segments of any composite cycle: what remains
// alternates RW edges with non-empty — or possibly empty, for SER —
// B-paths). B⁺ is exactly the maintained closure, so no candidate
// check recomputes a transitive closure.
//
// Builder is not safe for concurrent use; parallel searches give each
// worker its own Builder.
type Builder struct {
	h *model.History
	m Model

	// Per-object edge sets, as in Graph.
	wr map[model.Obj]*relation.Edges
	ww map[model.Obj]*relation.Edges
	// Maintained unions and derived anti-dependencies (dense: the
	// membership test composes them with the closure word-parallel).
	wrAll, wwAll, rw *relation.Rel
	// so seeds the closure base: the session order, or empty under GSI
	// (whose composite ignores sessions).
	so *relation.Rel
	// cl is the transitive closure of so ∪ wrAll ∪ wwAll.
	cl *relation.Closure

	journal []builderOp
	// Scratch relations reused across InModel calls.
	s1, s2, s3 *relation.Rel

	undoOps int64
}

// builderOp journals one newly set bit; Undo clears it. Edges that
// were already present (a union bit witnessed by another object, a
// re-applied per-object edge) are not journaled, so LIFO undo restores
// exact prior state.
type builderOp struct {
	kind uint8
	x    model.Obj
	a, b int
}

const (
	opWRObj uint8 = iota
	opWWObj
	opWRAll
	opWWAll
	opRW
)

// NewBuilder returns an empty builder over the history for membership
// tests against the given model.
func NewBuilder(h *model.History, m Model) *Builder {
	n := h.NumTransactions()
	var so *relation.Rel
	if m == GSI {
		so = relation.New(n)
	} else {
		so = h.SessionOrder()
	}
	return &Builder{
		h: h, m: m,
		wr:    make(map[model.Obj]*relation.Edges),
		ww:    make(map[model.Obj]*relation.Edges),
		wrAll: relation.New(n), wwAll: relation.New(n), rw: relation.New(n),
		so: so, cl: relation.ClosureOf(so),
		s1: relation.New(n), s2: relation.New(n), s3: relation.New(n),
	}
}

// BuilderMark captures a builder state for Undo.
type BuilderMark struct {
	ops int
	cl  relation.Mark
}

// Mark returns a checkpoint of the current edge set.
func (b *Builder) Mark() BuilderMark {
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
		case opWWAll:
			b.wwAll.Remove(op.a, op.b)
		case opRW:
			b.rw.Remove(op.a, op.b)
		}
	}
	b.undoOps += int64(len(b.journal) - m.ops)
	b.journal = b.journal[:m.ops]
	b.cl.Rollback(m.cl)
}

func (b *Builder) obj(m map[model.Obj]*relation.Edges, x model.Obj) *relation.Edges {
	e, ok := m[x]
	if !ok {
		e = &relation.Edges{}
		m[x] = e
	}
	return e
}

func (b *Builder) addRW(a, c int) {
	if b.rw.Has(a, c) {
		return
	}
	b.rw.Add(a, c)
	b.journal = append(b.journal, builderOp{kind: opRW, a: a, b: c})
}

// ApplyWR records T —WR(x)→ S, updating the union, the derived
// anti-dependencies (S now races with every WW(x)-successor of T) and
// the maintained closure. Re-applying an existing edge is a no-op.
func (b *Builder) ApplyWR(x model.Obj, t, s int) {
	wr := b.obj(b.wr, x)
	if wr.Has(t, s) {
		return
	}
	wr.Add(t, s)
	b.journal = append(b.journal, builderOp{kind: opWRObj, x: x, a: t, b: s})
	if !b.wrAll.Has(t, s) {
		b.wrAll.Add(t, s)
		b.journal = append(b.journal, builderOp{kind: opWRAll, a: t, b: s})
	}
	b.ww[x].EachSuccessor(t, func(s2 int) {
		if s2 != s {
			b.addRW(s, s2)
		}
	})
	b.cl.AddEdge(t, s)
}

// ApplyWW records T —WW(x)→ S, updating the union, the derived
// anti-dependencies (every reader of T on x races with S) and the
// maintained closure. Re-applying an existing edge is a no-op.
func (b *Builder) ApplyWW(x model.Obj, t, s int) {
	ww := b.obj(b.ww, x)
	if ww.Has(t, s) {
		return
	}
	ww.Add(t, s)
	b.journal = append(b.journal, builderOp{kind: opWWObj, x: x, a: t, b: s})
	if !b.wwAll.Has(t, s) {
		b.wwAll.Add(t, s)
		b.journal = append(b.journal, builderOp{kind: opWWAll, a: t, b: s})
	}
	b.wr[x].EachSuccessor(t, func(r int) {
		if r != s {
			b.addRW(r, s)
		}
	})
	b.cl.AddEdge(t, s)
}

// Cyclic reports whether the base relation (SO ∪ WR ∪ WW, without SO
// under GSI) is cyclic. A cyclic base excludes membership in every
// model, so the search prunes on it.
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
	return ClosureInModel(b.m, b.cl, b.rw, b.so, b.wrAll, b.s1, b.s2, b.s3)
}

// ClosureInModel is the membership test over a maintained closure, the
// reductions listed on Builder: cl is the transitive closure of the
// model's base relation B (SO ∪ WR ∪ WW, or WR ∪ WW under GSI), rw the
// anti-dependencies, so and wr the session order and the WR union (PC's
// A = SO ∪ WR), and s1, s2, s3 scratch relations it overwrites. The
// certification search (Builder.InModel) and the online monitor's fast
// path both judge their graphs with it. It allocates nothing.
func ClosureInModel(m Model, cl *relation.Closure, rw, so, wr, s1, s2, s3 *relation.Rel) error {
	violation, err := modelViolation(m)
	if err != nil {
		return err
	}
	if cl.HasCycle() {
		return violation
	}
	ok := true
	switch m {
	case SER:
		cl.ComposeMaybeInto(s1, rw) // RW ; B*
		ok = s1.IsAcyclic()
	case SI, GSI:
		cl.ComposeInto(s1, rw) // RW ; B⁺
		ok = s1.IsAcyclic()
	case PSI:
		for a := 0; a < rw.N() && ok; a++ {
			rw.EachSuccessor(a, func(c int) {
				if ok && cl.Reaches(c, a) {
					ok = false
				}
			})
		}
	case PC:
		cl.ComposeMaybeInto(s1, rw)      // RW ; B*
		s2.CopyFrom(so).UnionInPlace(wr) // A = SO ∪ WR
		ok = s3.ComposeOf(s1, s2).IsAcyclic()
	}
	if !ok {
		return violation
	}
	return nil
}

// Snapshot returns the current edge set as an immutable Graph, for
// witness reporting once the search finds a member. It copies edges,
// not matrices: the cost is the size of the dependency graph.
func (b *Builder) Snapshot() *Graph {
	g := New(b.h)
	for x, e := range b.wr {
		if !e.IsEmpty() {
			g.wr[x] = e.Clone()
		}
	}
	for x, e := range b.ww {
		if !e.IsEmpty() {
			g.ww[x] = e.Clone()
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
