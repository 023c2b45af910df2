package depgraph

import (
	"fmt"
	"strings"

	"sian/internal/model"
	"sian/internal/relation"
)

// EdgeKind labels one dependency-graph edge kind.
type EdgeKind int

// Edge kinds: session order, read dependency, write dependency,
// anti-dependency.
const (
	EdgeSO EdgeKind = iota + 1
	EdgeWR
	EdgeWW
	EdgeRW
)

// String returns "SO", "WR", "WW" or "RW".
func (k EdgeKind) String() string {
	switch k {
	case EdgeSO:
		return "SO"
	case EdgeWR:
		return "WR"
	case EdgeWW:
		return "WW"
	case EdgeRW:
		return "RW"
	default:
		return fmt.Sprintf("EdgeKind(%d)", int(k))
	}
}

// Edge is one labelled dependency edge: From —Kind(Obj)→ To. Obj is
// empty for SO edges.
type Edge struct {
	Kind     EdgeKind
	Obj      model.Obj
	From, To int
}

// Label renders the edge label: "WR(x)", "SO", ….
func (e Edge) Label() string {
	if e.Kind == EdgeSO || e.Obj == "" {
		return e.Kind.String()
	}
	return fmt.Sprintf("%s(%s)", e.Kind, e.Obj)
}

// WitnessExplanation is an explainable negative verdict: the axiom of
// the paper's Figure 1 specification that the history cannot satisfy,
// and a forbidden cycle of labelled dependency edges witnessing it.
type WitnessExplanation struct {
	Model Model
	// Axiom names the violated axiom (or axiom group) of the model's
	// specification, attributed from the shape of the witness cycle —
	// see axiomFor for the attribution rules.
	Axiom string
	// Cycle is the witnessing cycle as consecutive labelled edges
	// (Cycle[i].To == Cycle[i+1].From, last edge closing back to
	// Cycle[0].From). Composite-relation steps are decomposed into
	// their underlying SO/WR/WW/RW edges.
	Cycle []Edge
}

// ExplainWitness explains why the graph is outside the given model:
// it finds a forbidden cycle of the model's composite relation
// (Theorems 8, 9 and 21), decomposes every composite step into the
// underlying labelled edges, and attributes the violation to an axiom
// of the paper's Figure 1 specification. It returns nil when the graph
// is in the model.
func (g *Graph) ExplainWitness(m Model) *WitnessExplanation {
	cyc := g.Witness(m)
	if cyc == nil {
		return nil
	}
	x := g.newExpander(m.Row())
	var edges []Edge
	for i := 0; i+1 < len(cyc); i++ {
		step := x.expandStep(cyc[i], cyc[i+1])
		if step == nil {
			// The composite step cannot be decomposed (should not
			// happen for cycles produced by Witness); fall back to an
			// unlabelled edge rather than lying about the kind.
			step = []Edge{{Kind: 0, From: cyc[i], To: cyc[i+1]}}
		}
		edges = append(edges, step...)
	}
	return &WitnessExplanation{Model: m, Axiom: axiomFor(m.Row(), edges), Cycle: edges}
}

// ExplainBaseCycle explains a cycle of the model's base relation B =
// VIS ∪ CO of its row (SO ∪ WR ∪ WW, or WR ∪ WW under GSI; no
// anti-dependencies). It is used by the certifier when a search branch
// dies before completing a candidate graph: a base cycle excludes
// membership, since those dependencies must embed into the commit
// order. Returns nil when the base relation is acyclic.
func (g *Graph) ExplainBaseCycle(m Model) *WitnessExplanation {
	base := m.Row().Base()
	cyc := g.Union(base).FindCycle()
	if cyc == nil {
		return nil
	}
	var edges []Edge
	for i := 0; i+1 < len(cyc); i++ {
		e, ok := g.labelDep(cyc[i], cyc[i+1], base.order()...)
		if !ok {
			e = Edge{From: cyc[i], To: cyc[i+1]}
		}
		edges = append(edges, e)
	}
	return &WitnessExplanation{Model: m, Axiom: axiomFor(m.Row(), edges), Cycle: edges}
}

// FormatCycle renders an edge cycle with transaction labels, e.g.
// "t1 -WW(x)-> t2 -RW(x)-> t1".
func (g *Graph) FormatCycle(cycle []Edge) string {
	if len(cycle) == 0 {
		return ""
	}
	name := func(i int) string {
		if id := g.History.Transaction(i).ID; id != "" {
			return id
		}
		return fmt.Sprintf("#%d", i)
	}
	var b strings.Builder
	b.WriteString(name(cycle[0].From))
	for _, e := range cycle {
		fmt.Fprintf(&b, " -%s-> %s", e.Label(), name(e.To))
	}
	return b.String()
}

// String renders the explanation as "axiom <axiom>; cycle <cycle>".
func (w *WitnessExplanation) String(g *Graph) string {
	if w == nil {
		return ""
	}
	if len(w.Cycle) == 0 {
		return "axiom " + w.Axiom
	}
	return fmt.Sprintf("axiom %s; cycle %s", w.Axiom, g.FormatCycle(w.Cycle))
}

// expander decomposes composite-relation steps of one row. It holds
// the two relations every decomposition searches — the union of the
// dependency kinds that may start a step (the row's VIS, the relation
// left of "; RW?"), and RW — computed once, so a step costs the edges
// it inspects; labelling a found edge then only looks at the objects
// its endpoints access.
type expander struct {
	g     *Graph
	r     *Row
	kinds []EdgeKind
	deps  *relation.Rel // ⋃ kinds
	rw    *relation.Rel
}

func (g *Graph) newExpander(r *Row) *expander {
	return &expander{g: g, r: r, kinds: r.VIS.order(), deps: g.Union(r.VIS), rw: g.RW()}
}

// expandStep decomposes one composite-relation step a→b into the
// underlying labelled edges, or nil if no decomposition exists.
func (x *expander) expandStep(a, b int) []Edge {
	switch x.r.RW {
	case RWUnion:
		// B ∪ RW: always a direct edge.
		if e, ok := x.g.labelDep(a, b, append(x.r.Base().order(), EdgeRW)...); ok {
			return []Edge{e}
		}
		return nil
	case RWAfterPath:
		// (deps)⁺ ; RW?: BFS over dependency edges.
		return x.expandPathThenRW(a, b)
	}
	// (deps ; RW?) ∪ CO: try the CO disjunct first.
	if x.r.CO != 0 {
		if e, ok := x.g.labelDep(a, b, x.r.CO.order()...); ok {
			return []Edge{e}
		}
	}
	return x.expandDepThenRW(a, b)
}

// dep labels the dependency edge a→b, which x.deps holds.
func (x *expander) dep(a, b int) Edge {
	e, _ := x.g.labelDep(a, b, x.kinds...)
	return e
}

// expandDepThenRW decomposes a step of the form dep ; RW?: either a
// single dependency edge a→b, or a dependency edge a→m followed by an
// anti-dependency m→b (the lowest such m).
func (x *expander) expandDepThenRW(a, b int) []Edge {
	if x.deps.Has(a, b) {
		return []Edge{x.dep(a, b)}
	}
	for _, m := range x.deps.Successors(a) {
		if x.rw.Has(m, b) {
			rw, _ := x.g.labelRW(m, b)
			return []Edge{x.dep(a, m), rw}
		}
	}
	return nil
}

// expandPathThenRW decomposes a step of the form dep⁺ ; RW?: a
// shortest non-empty dependency path a ⇝ b, or a ⇝ m followed by an
// anti-dependency m→b. BFS keeps the witness minimal. The start node
// is never marked visited, so paths may return to a (self-loop
// witnesses, the shape PSI's irreflexivity check finds).
func (x *expander) expandPathThenRW(a, b int) []Edge {
	n := x.g.n()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	visited := make([]bool, n)
	// pathTo rebuilds the BFS dependency path a ⇝ u (empty for u == a).
	pathTo := func(u int) []Edge {
		var nodes []int
		for v := u; v != a; v = parent[v] {
			nodes = append(nodes, v)
		}
		var edges []Edge
		prev := a
		for i := len(nodes) - 1; i >= 0; i-- {
			edges = append(edges, x.dep(prev, nodes[i]))
			prev = nodes[i]
		}
		return edges
	}
	queue := []int{a}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range x.deps.Successors(u) {
			if v == b {
				return append(pathTo(u), x.dep(u, v))
			}
			if x.rw.Has(v, b) {
				rw, _ := x.g.labelRW(v, b)
				return append(append(pathTo(u), x.dep(u, v)), rw)
			}
			if !visited[v] && v != a {
				visited[v] = true
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return nil
}

// labelDep finds a dependency edge a→b among the given kinds, trying
// them in order; for WR/WW/RW it also resolves the object, the first in
// sorted order when the pair is a dependency on several. Only objects
// both endpoints can be related on are tried: WR(x) and WW(x) end at a
// transaction accessing x, RW(x) starts at one.
func (g *Graph) labelDep(a, b int, kinds ...EdgeKind) (Edge, bool) {
	h := g.History
	for _, k := range kinds {
		switch k {
		case EdgeSO:
			// Indices are assigned session by session in session order.
			if a < b && h.SessionIndex(a) == h.SessionIndex(b) {
				return Edge{Kind: EdgeSO, From: a, To: b}, true
			}
		case EdgeWR:
			for _, x := range h.Transaction(b).Objects() {
				if g.wr[x].Has(a, b) {
					return Edge{Kind: EdgeWR, Obj: x, From: a, To: b}, true
				}
			}
		case EdgeWW:
			for _, x := range h.Transaction(b).Objects() {
				if g.ww[x].Has(a, b) {
					return Edge{Kind: EdgeWW, Obj: x, From: a, To: b}, true
				}
			}
		case EdgeRW:
			if e, ok := g.labelRW(a, b); ok {
				return e, true
			}
		}
	}
	return Edge{}, false
}

// labelRW finds an anti-dependency edge a→b, resolving its object.
func (g *Graph) labelRW(a, b int) (Edge, bool) {
	for _, x := range g.History.Transaction(a).Objects() {
		if g.hasRW(x, a, b) {
			return Edge{Kind: EdgeRW, Obj: x, From: a, To: b}, true
		}
	}
	return Edge{}, false
}

// axiomFor attributes a forbidden cycle to an axiom (or axiom group)
// of the paper's Figure 1 specification, from the cycle's shape:
//
//   - no anti-dependency: the row's base dependencies themselves are
//     cyclic, yet every model requires them to embed into the commit
//     order — an EXT violation, and a SESSION one too when the base
//     holds SO (every row's but GSI's);
//   - exactly one anti-dependency: the lost-update shape that
//     NOCONFLICT forbids (Figure 2(b));
//   - two or more (necessarily non-adjacent) anti-dependencies: under
//     SER, whose row joins RW to B by union, this is the write-skew
//     shape excluded by TOTALVIS (Figure 2(d)); under the other rows
//     it is the long-fork shape excluded by PREFIX (Figure 2(c)).
//
// Cycles with adjacent anti-dependency pairs never reach here: the
// composite relations place at most one RW per step, so such cycles
// are not forbidden (Theorem 9's "allowed" direction).
func axiomFor(r *Row, cycle []Edge) string {
	rw := 0
	for _, e := range cycle {
		if e.Kind == EdgeRW {
			rw++
		}
	}
	switch {
	case rw == 0:
		base, axiom := r.Base(), "EXT"
		if base == 0 {
			base = kinds(EdgeSO, EdgeWR, EdgeWW) // no row: name every dependency
		}
		if base.Has(EdgeSO) {
			axiom = "SESSION/EXT"
		}
		return axiom + " (dependency cycle: " + base.String() + " must embed into the commit order)"
	case rw == 1:
		return "NOCONFLICT (lost-update shape: cycle with a single anti-dependency)"
	case r != nil && r.RW == RWUnion:
		return "TOTALVIS (write-skew shape: anti-dependency cycle, Theorem 8)"
	default:
		return "PREFIX (long-fork shape: cycle with non-adjacent anti-dependencies, Theorem 9)"
	}
}
