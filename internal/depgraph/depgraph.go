// Package depgraph implements Adya-style transactional dependency
// graphs (Definition 6 of the paper): per-object read dependencies WR,
// write dependencies WW and the derived anti-dependencies RW, together
// with the dependency-graph characterisations of serializability
// (Theorem 8), snapshot isolation (Theorem 9) and parallel snapshot
// isolation (Theorem 21).
//
// # Representation
//
// A per-object relation is small by Definition 6 — WW(x) totally
// orders the writers of x, every reader of x has exactly one WR(x)
// predecessor — so Graph and Builder keep each WR(x) and WW(x) as a
// relation.Edges, sized by its pairs, and derive RW(x) by walking each
// writer's readers against its WW(x) successors. What the theorems
// compose or close stays dense (relation.Rel): the session order, the
// carrier-wide unions WR, WW and RW, the composites, and the Builder's
// maintained closure, where word-parallel rows pay for themselves.
package depgraph

import (
	"errors"
	"fmt"

	"sian/internal/execution"
	"sian/internal/model"
	"sian/internal/relation"
)

// Graph is a dependency graph G = (T, SO, WR, WW, RW). WR and WW are
// stored per object, as edge sets (see the package comment); RW is
// always derived from them per Definition 5 and never set directly.
type Graph struct {
	History *model.History
	// wr[x] and ww[x] relate the history's transaction indices.
	wr map[model.Obj]*relation.Edges
	ww map[model.Obj]*relation.Edges
}

// New returns an empty dependency graph over the given history.
func New(h *model.History) *Graph {
	return &Graph{
		History: h,
		wr:      make(map[model.Obj]*relation.Edges),
		ww:      make(map[model.Obj]*relation.Edges),
	}
}

func (g *Graph) n() int { return g.History.NumTransactions() }

// add inserts (t, s) into m[x], rejecting indices outside the history.
func (g *Graph) add(m map[model.Obj]*relation.Edges, x model.Obj, t, s int) {
	if n := g.n(); t < 0 || t >= n || s < 0 || s >= n {
		panic(fmt.Sprintf("depgraph: edge (%d,%d) out of range [0,%d)", t, s, n))
	}
	e, ok := m[x]
	if !ok {
		e = &relation.Edges{}
		m[x] = e
	}
	e.Add(t, s)
}

// AddWR records T —WR(x)→ S.
func (g *Graph) AddWR(x model.Obj, t, s int) { g.add(g.wr, x, t, s) }

// AddWW records T —WW(x)→ S.
func (g *Graph) AddWW(x model.Obj, t, s int) { g.add(g.ww, x, t, s) }

// WRObj returns WR(x) (a copy-free view; treat as read-only). It is
// nil, the empty relation, for an object without read dependencies.
func (g *Graph) WRObj(x model.Obj) *relation.Edges { return g.wr[x] }

// WWObj returns WW(x) (a copy-free view; treat as read-only). It is
// nil, the empty relation, for an object without write dependencies.
func (g *Graph) WWObj(x model.Obj) *relation.Edges { return g.ww[x] }

// eachRW calls fn for every anti-dependency T —RW(x)→ S of Definition
// 5: T ≠ S and ∃T'. T' —WR(x)→ T ∧ T' —WW(x)→ S. It walks the readers
// of each writer against that writer's WW(x) successors, so the cost is
// the number of anti-dependencies, not a function of the history size.
// A pair may be reported more than once.
func (g *Graph) eachRW(x model.Obj, fn func(t, s int)) {
	wr, ww := g.wr[x], g.ww[x]
	for _, p := range wr.Pairs() {
		w, t := p[0], p[1]
		ww.EachSuccessor(w, func(s int) {
			if s != t {
				fn(t, s)
			}
		})
	}
}

// RWObj computes the derived anti-dependency relation RW(x) of
// Definition 5: T —RW(x)→ S iff T ≠ S and ∃T'. T' —WR(x)→ T ∧
// T' —WW(x)→ S.
func (g *Graph) RWObj(x model.Obj) *relation.Edges {
	out := &relation.Edges{}
	g.eachRW(x, out.Add)
	return out
}

// hasRW reports T —RW(x)→ S without materialising RW(x).
func (g *Graph) hasRW(x model.Obj, t, s int) bool {
	if t == s {
		return false
	}
	ww := g.ww[x]
	for _, w := range g.wr[x].Predecessors(t) {
		if ww.Has(w, s) {
			return true
		}
	}
	return false
}

// WR returns the union ⋃_x WR(x).
func (g *Graph) WR() *relation.Rel { return unionAll(g.n(), g.wr) }

// WW returns the union ⋃_x WW(x).
func (g *Graph) WW() *relation.Rel { return unionAll(g.n(), g.ww) }

// RW returns the union ⋃_x RW(x).
func (g *Graph) RW() *relation.Rel {
	out := relation.New(g.n())
	for x := range g.wr {
		g.eachRW(x, out.Add)
	}
	return out
}

func unionAll(n int, m map[model.Obj]*relation.Edges) *relation.Rel {
	out := relation.New(n)
	for _, e := range m {
		e.AddTo(out)
	}
	return out
}

// Objects returns the objects that carry at least one WR or WW edge.
func (g *Graph) Objects() []model.Obj {
	seen := make(map[model.Obj]bool)
	for x, r := range g.wr {
		if !r.IsEmpty() {
			seen[x] = true
		}
	}
	for x, r := range g.ww {
		if !r.IsEmpty() {
			seen[x] = true
		}
	}
	objs := make([]model.Obj, 0, len(seen))
	for _, x := range g.History.Objects() {
		if seen[x] {
			objs = append(objs, x)
		}
	}
	return objs
}

// Validate checks the well-formedness constraints of Definition 6:
//
//   - T —WR(x)→ S implies T ≠ S, T ⊢ write(x, n) and S ⊢ read(x, n)
//     for the same n;
//   - every transaction reading x has exactly one incoming WR(x) edge;
//   - WW(x) is a strict total order on WriteTx_x and relates only
//     members of WriteTx_x.
func (g *Graph) Validate() error {
	h := g.History
	for x, wr := range g.wr {
		for _, p := range wr.Pairs() {
			t, s := p[0], p[1]
			if t == s {
				return fmt.Errorf("WR(%s): self edge at %d", x, t)
			}
			rv, reads := h.Transaction(s).ReadsBeforeWrites(x)
			if !reads {
				return fmt.Errorf("WR(%s): target %d does not read %s before writing it", x, s, x)
			}
			wv, writes := h.Transaction(t).FinalWrite(x)
			if !writes {
				return fmt.Errorf("WR(%s): source %d does not write %s", x, t, x)
			}
			if rv != wv {
				return fmt.Errorf("WR(%s): %d reads %d but source %d wrote %d", x, s, rv, t, wv)
			}
		}
	}
	// Exactly one reader in-edge per read.
	for s := 0; s < g.n(); s++ {
		t := h.Transaction(s)
		for _, x := range t.Objects() {
			if !t.Reads(x) {
				continue
			}
			if count := len(g.wr[x].Predecessors(s)); count != 1 {
				return fmt.Errorf("WR(%s): transaction %d has %d sources, want exactly 1", x, s, count)
			}
		}
	}
	for x, ww := range g.ww {
		writers := h.WriteTx(x)
		inSet := make(map[int]bool, len(writers))
		for _, w := range writers {
			inSet[w] = true
		}
		for _, p := range ww.Pairs() {
			if !inSet[p[0]] || !inSet[p[1]] {
				return fmt.Errorf("WW(%s): edge (%d,%d) involves a non-writer", x, p[0], p[1])
			}
		}
		if !ww.IsTotalOrderOn(writers) {
			return fmt.Errorf("WW(%s): not a strict total order on WriteTx", x)
		}
	}
	// Objects written by ≥2 transactions must carry a WW order even if
	// no edge was added explicitly.
	for _, x := range h.Objects() {
		writers := h.WriteTx(x)
		if len(writers) < 2 {
			continue
		}
		if !g.ww[x].IsTotalOrderOn(writers) {
			return fmt.Errorf("WW(%s): missing total order over %d writers", x, len(writers))
		}
	}
	return nil
}

// Model identifies one of the paper's consistency models.
type Model int

// The three consistency models the paper characterises, plus prefix
// consistency (PC), the §7 future-work model this module characterises
// with the same machinery.
const (
	ModelInvalid Model = iota
	SER
	SI
	PSI
	PC
	GSI
)

// String returns "SER", "SI", "PSI", "PC" or "GSI".
func (m Model) String() string {
	switch m {
	case SER:
		return "SER"
	case SI:
		return "SI"
	case PSI:
		return "PSI"
	case PC:
		return "PC"
	case GSI:
		return "GSI"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// SIComposite returns (SO ∪ WR ∪ WW) ; RW?, the relation whose
// acyclicity characterises GraphSI (Theorem 9).
func (g *Graph) SIComposite() *relation.Rel {
	base := g.History.SessionOrder().UnionInPlace(g.WR()).UnionInPlace(g.WW())
	return base.Compose(g.RW().Maybe())
}

// SERComposite returns SO ∪ WR ∪ WW ∪ RW, the relation whose
// acyclicity characterises GraphSER (Theorem 8).
func (g *Graph) SERComposite() *relation.Rel {
	return g.History.SessionOrder().
		UnionInPlace(g.WR()).
		UnionInPlace(g.WW()).
		UnionInPlace(g.RW())
}

// PSIComposite returns (SO ∪ WR ∪ WW)⁺ ; RW?, the relation whose
// irreflexivity characterises GraphPSI (Theorem 21).
func (g *Graph) PSIComposite() *relation.Rel {
	base := g.History.SessionOrder().UnionInPlace(g.WR()).UnionInPlace(g.WW())
	return base.TransitiveClosure().Compose(g.RW().Maybe())
}

// PCComposite returns ((SO ∪ WR) ; RW?) ∪ WW, the relation whose
// acyclicity characterises prefix consistency.
//
// The characterisation is obtained by replaying the paper's §4 proof
// with the NOCONFLICT axiom dropped: write dependencies then need not
// be visible (WW ⊄ VIS), but must still agree with the commit order
// (WW ⊆ CO), so the Figure 3 inequality system becomes
//
//	SO ∪ WR ⊆ VIS    WW ⊆ CO    CO ; VIS ⊆ VIS
//	VIS ⊆ CO         CO ; CO ⊆ CO      VIS ; RW ⊆ CO
//
// whose Lemma 15-style least solution is CO = (((SO ∪ WR) ; RW?) ∪
// WW)⁺ and VIS = CO? ; (SO ∪ WR). Soundness (an execution can be
// built whenever the composite is acyclic, core.BuildExecutionPC) and
// completeness are property-tested against the axiomatic definition in
// internal/check.
func (g *Graph) PCComposite() *relation.Rel {
	soWR := g.History.SessionOrder().UnionInPlace(g.WR())
	return soWR.Compose(g.RW().Maybe()).UnionInPlace(g.WW())
}

// GSIComposite returns (WR ∪ WW) ; RW?, the relation whose acyclicity
// characterises generalised SI — the SI characterisation of Theorem 9
// with the session order dropped, obtained by replaying the §4 proof
// without the SESSION axiom (so SO ⊄ VIS is no longer forced).
func (g *Graph) GSIComposite() *relation.Rel {
	base := g.WR().UnionInPlace(g.WW())
	return base.Compose(g.RW().Maybe())
}

// InModel reports whether the graph belongs to GraphSER, GraphSI or
// GraphPSI. A nil error means membership; the error otherwise explains
// the violated condition (an INT violation or a forbidden cycle).
func (g *Graph) InModel(m Model) error {
	if err := g.History.CheckInt(); err != nil {
		return fmt.Errorf("INT: %w", err)
	}
	violation, err := modelViolation(m)
	if err != nil {
		return err
	}
	var ok bool
	switch m {
	case SER:
		ok = g.SERComposite().IsAcyclic()
	case SI:
		ok = g.SIComposite().IsAcyclic()
	case PSI:
		ok = g.PSIComposite().IsIrreflexive()
	case PC:
		ok = g.PCComposite().IsAcyclic()
	case GSI:
		ok = g.GSIComposite().IsAcyclic()
	}
	if !ok {
		return violation
	}
	return nil
}

// violations holds the condition each model's characterisation
// forbids, the error a membership test reports.
var violations = [...]error{
	SER: errors.New("SO ∪ WR ∪ WW ∪ RW is cyclic"),
	SI:  errors.New("(SO ∪ WR ∪ WW) ; RW? is cyclic"),
	PSI: errors.New("(SO ∪ WR ∪ WW)⁺ ; RW? is not irreflexive"),
	PC:  errors.New("((SO ∪ WR) ; RW?) ∪ WW is cyclic"),
	GSI: errors.New("(WR ∪ WW) ; RW? is cyclic"),
}

// modelViolation returns m's violation, or an error for an unknown m.
func modelViolation(m Model) (violation, err error) {
	if m <= ModelInvalid || int(m) >= len(violations) {
		return nil, fmt.Errorf("unknown model %v", m)
	}
	return violations[m], nil
}

// InGSI reports membership in GraphGSI (the generalised-SI
// characterisation).
func (g *Graph) InGSI() bool { return g.InModel(GSI) == nil }

// InPC reports membership in GraphPC (the prefix-consistency
// characterisation).
func (g *Graph) InPC() bool { return g.InModel(PC) == nil }

// InSER reports membership in GraphSER (Theorem 8).
func (g *Graph) InSER() bool { return g.InModel(SER) == nil }

// InSI reports membership in GraphSI (Theorem 9).
func (g *Graph) InSI() bool { return g.InModel(SI) == nil }

// InPSI reports membership in GraphPSI (Theorem 21).
func (g *Graph) InPSI() bool { return g.InModel(PSI) == nil }

// Witness returns one forbidden cycle for the given model as a
// sequence of transaction indices (first repeated last), or nil if the
// graph is in the model. For SI and PSI the cycle is over the
// composite relation, so consecutive nodes may be connected by a
// dependency followed by an optional anti-dependency.
func (g *Graph) Witness(m Model) []int {
	switch m {
	case SER:
		return g.SERComposite().FindCycle()
	case SI:
		return g.SIComposite().FindCycle()
	case PSI:
		comp := g.PSIComposite()
		for i := 0; i < g.n(); i++ {
			if comp.Has(i, i) {
				return []int{i, i}
			}
		}
		return nil
	case PC:
		return g.PCComposite().FindCycle()
	case GSI:
		return g.GSIComposite().FindCycle()
	default:
		return nil
	}
}

// FromExecution extracts graph(X) per Definition 5 from an execution
// satisfying EXT (Proposition 23 guarantees the result is a well-
// formed dependency graph). CO must totally order the writers of every
// object read; otherwise an error is returned.
func FromExecution(x *execution.Execution) (*Graph, error) {
	h := x.History
	g := New(h)
	// WW(x): restriction of CO to WriteTx_x.
	for _, obj := range h.Objects() {
		writers := h.WriteTx(obj)
		for _, a := range writers {
			for _, b := range writers {
				if a != b && x.CO.Has(a, b) {
					g.AddWW(obj, a, b)
				}
			}
		}
	}
	// WR(x): the CO-maximal visible writer for every read.
	for s := 0; s < h.NumTransactions(); s++ {
		t := h.Transaction(s)
		for _, obj := range t.Objects() {
			if !t.Reads(obj) {
				continue
			}
			w, ok, err := visibleWriter(x, s, obj)
			if err != nil {
				return nil, fmt.Errorf("graph(X): transaction %d reads %q: %w", s, obj, err)
			}
			if !ok {
				return nil, fmt.Errorf("graph(X): transaction %d reads %q with no visible writer", s, obj)
			}
			g.AddWR(obj, w, s)
		}
	}
	return g, nil
}

// visibleWriter mirrors execution's EXT helper: max_CO(VIS⁻¹(s) ∩
// WriteTx_x).
func visibleWriter(x *execution.Execution, s int, obj model.Obj) (int, bool, error) {
	var candidates []int
	for _, w := range x.History.WriteTx(obj) {
		if x.VIS.Has(w, s) {
			candidates = append(candidates, w)
		}
	}
	if len(candidates) == 0 {
		return 0, false, nil
	}
	best := candidates[0]
	for _, c := range candidates[1:] {
		switch {
		case x.CO.Has(best, c):
			best = c
		case x.CO.Has(c, best):
		default:
			return 0, false, fmt.Errorf("CO does not order writers %d and %d", best, c)
		}
	}
	return best, true, nil
}

// Equal reports whether two graphs over the same history have
// identical per-object WR and WW relations (and hence identical RW).
func (g *Graph) Equal(o *Graph) bool {
	if g.n() != o.n() {
		return false
	}
	objs := make(map[model.Obj]bool)
	for x := range g.wr {
		objs[x] = true
	}
	for x := range o.wr {
		objs[x] = true
	}
	for x := range g.ww {
		objs[x] = true
	}
	for x := range o.ww {
		objs[x] = true
	}
	for x := range objs {
		if !g.WRObj(x).Equal(o.WRObj(x)) || !g.WWObj(x).Equal(o.WWObj(x)) {
			return false
		}
	}
	return true
}
