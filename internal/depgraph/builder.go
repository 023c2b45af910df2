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
// GSI) through relation.Closure. Every mutation after the first Mark is
// journaled, so a depth-first search can push edges while descending
// and pop them with Undo while backtracking — no per-branch graph
// clones.
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
	// Maintained WR union and derived anti-dependencies (dense: the
	// membership test composes them with the closure word-parallel).
	wrAll, rw *relation.Rel
	// so is the session order PC's membership test composes with; nil
	// for the other models, which only need it inside the closure.
	so *relation.Rel
	// cl is the transitive closure of the base relation: SO ∪ WR ∪ WW,
	// or WR ∪ WW under GSI (whose composite ignores sessions).
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
// x of ApplyWR and ApplyWW indexes it.
func NewBuilder(h *model.History, m Model, objs []model.Obj) *Builder {
	n := h.NumTransactions()
	b := &Builder{
		h: h, m: m, objs: objs,
		wr: make([]relation.Edges, len(objs)), ww: make([]relation.Edges, len(objs)),
		wrAll: relation.New(n), rw: relation.New(n),
		cl:      relation.NewClosure(n),
		scratch: NewScratch(n),
	}
	if m == PC {
		b.so = h.SessionOrder()
	}
	if m != GSI {
		// Transaction indices run session by session, so each session's
		// immediate-successor edges seed SO; the closure adds the rest.
		for i := 1; i < n; i++ {
			if h.SessionIndex(i) == h.SessionIndex(i-1) {
				b.cl.AddEdge(i-1, i)
			}
		}
	}
	return b
}

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
	if !b.wrAll.Has(t, s) {
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
	return ClosureInModel(b.m, b.cl, b.rw, b.so, b.wrAll, b.scratch)
}

// Scratch is the working storage ClosureInModel overwrites: relations
// over the carrier for the composites and the cycle test's DFS. Each
// builder and monitor keeps its own.
type Scratch struct {
	s1, s2, s3 *relation.Rel
	dfs        relation.DFS
}

// NewScratch returns working storage for a carrier of n elements.
func NewScratch(n int) *Scratch {
	return &Scratch{s1: relation.New(n), s2: relation.New(n), s3: relation.New(n)}
}

// ClosureInModel is the membership test over a maintained closure, the
// reductions listed on Builder: cl is the transitive closure of the
// model's base relation B (SO ∪ WR ∪ WW, or WR ∪ WW under GSI), rw the
// anti-dependencies, so and wr the session order and the WR union (PC's
// A = SO ∪ WR; the other models ignore both), and sc working storage it
// overwrites. The certification search (Builder.InModel) and the online
// monitor's fast path both judge their graphs with it. It allocates
// nothing.
func ClosureInModel(m Model, cl *relation.Closure, rw, so, wr *relation.Rel, sc *Scratch) error {
	violation, err := modelViolation(m)
	if err != nil {
		return err
	}
	if cl.HasCycle() {
		return violation
	}
	ok := true
	s1, s2, s3 := sc.s1, sc.s2, sc.s3
	switch m {
	case SER:
		cl.ComposeMaybeInto(s1, rw) // RW ; B*
		ok = s1.IsAcyclicWith(&sc.dfs)
	case SI, GSI:
		cl.ComposeInto(s1, rw) // RW ; B⁺
		ok = s1.IsAcyclicWith(&sc.dfs)
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
		ok = s3.ComposeOf(s1, s2).IsAcyclicWith(&sc.dfs)
	}
	if !ok {
		return violation
	}
	return nil
}

// Graph hands the current edge set over to a Graph, for witness
// reporting once the search finds a member. Nothing is copied: the
// Graph shares the builder's per-object edge sets, so it stays valid
// only until the builder's next ApplyWR, ApplyWW or Undo.
func (b *Builder) Graph() *Graph {
	g := &Graph{History: b.h, wr: make(map[model.Obj]*relation.Edges, len(b.objs)), ww: make(map[model.Obj]*relation.Edges)}
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
