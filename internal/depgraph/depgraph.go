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
	"strings"

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
func (g *Graph) WR() *relation.Rel { return g.Union(kinds(EdgeWR)) }

// WW returns the union ⋃_x WW(x).
func (g *Graph) WW() *relation.Rel { return g.Union(kinds(EdgeWW)) }

// RW returns the union ⋃_x RW(x).
func (g *Graph) RW() *relation.Rel {
	out := relation.New(g.n())
	for x := range g.wr {
		g.eachRW(x, out.Add)
	}
	return out
}

// Objects returns the objects that carry at least one WR or WW edge,
// in the history's object order.
func (g *Graph) Objects() []model.Obj {
	objs := []model.Obj{}
	for _, x := range g.History.Objects() {
		if !g.wr[x].IsEmpty() || !g.ww[x].IsEmpty() {
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

// Model identifies one of the consistency models of the table below.
type Model int

// The three consistency models the paper characterises, plus prefix
// consistency (PC), the §7 future-work model, and generalised SI (GSI),
// SI without the SESSION axiom, which this module characterises with
// the same machinery.
const (
	ModelInvalid Model = iota
	SER
	SI
	PSI
	PC
	GSI
)

// Kinds is a set of dependency edge kinds, one bit per EdgeKind.
type Kinds uint8

func kinds(ks ...EdgeKind) Kinds {
	var s Kinds
	for _, k := range ks {
		s |= 1 << k
	}
	return s
}

// Has reports whether k is in the set.
func (s Kinds) Has(k EdgeKind) bool { return s&(1<<k) != 0 }

// in lists the kinds of the set in the given order.
func (s Kinds) in(order ...EdgeKind) []EdgeKind {
	var ks []EdgeKind
	for _, k := range order {
		if s.Has(k) {
			ks = append(ks, k)
		}
	}
	return ks
}

// order lists the kinds of the set in the order witnesses label edges
// with them: WW, WR, SO.
func (s Kinds) order() []EdgeKind { return s.in(EdgeWW, EdgeWR, EdgeSO) }

// String renders the union of the set, e.g. "SO ∪ WR ∪ WW".
func (s Kinds) String() string {
	var b strings.Builder
	for i, k := range s.in(EdgeSO, EdgeWR, EdgeWW, EdgeRW) {
		if i > 0 {
			b.WriteString(" ∪ ")
		}
		b.WriteString(k.String())
	}
	return b.String()
}

// Shape says how a row's anti-dependencies join its base relation B
// in the composite whose cycles the model forbids.
type Shape uint8

const (
	// RWOptional: (VIS ; RW?) ∪ CO is acyclic (SI, PC, GSI; Theorem 9).
	RWOptional Shape = iota
	// RWAfterPath: B⁺ ; RW? is irreflexive (PSI; Theorem 21).
	RWAfterPath
	// RWUnion: B ∪ RW is acyclic (SER; Theorem 8).
	RWUnion
)

// Row is one model's line of the table, in the style of Cerone,
// Gotsman and Yang's algebraic laws: the dependency kinds an execution
// of the model must make visible (VIS ⊇ them), the kinds it must only
// commit in order (CO ⊇ them, VIS need not), and the shape in which
// anti-dependencies join them. The base relation B = VIS ∪ CO must
// embed into every execution's commit order; WR and WW are in every
// row's B. Every layer — the composite of Graph, the Builder's and the
// monitor's maintained closure, core's Figure 3 system — reads a
// model from its row and nowhere else, while the axiom sets of
// package execution judge the rows from outside.
type Row struct {
	Name string
	VIS  Kinds
	// CO holds the edges CO alone must contain. A row with CO edges
	// keeps WW out of VIS: the membership kernels hold no WW union.
	CO Kinds
	RW Shape

	violation error // the condition the row forbids, from formula
}

// table holds the rows, strongest model first; index 0, the invalid
// model, is unused.
var table = [...]Row{
	SER: {Name: "SER", VIS: kinds(EdgeSO, EdgeWR, EdgeWW), RW: RWUnion},
	SI:  {Name: "SI", VIS: kinds(EdgeSO, EdgeWR, EdgeWW), RW: RWOptional},
	PSI: {Name: "PSI", VIS: kinds(EdgeSO, EdgeWR, EdgeWW), RW: RWAfterPath},
	PC:  {Name: "PC", VIS: kinds(EdgeSO, EdgeWR), CO: kinds(EdgeWW), RW: RWOptional},
	GSI: {Name: "GSI", VIS: kinds(EdgeWR, EdgeWW), RW: RWOptional},
}

func init() {
	for i := range table[1:] {
		r := &table[i+1]
		r.violation = errors.New(r.formula())
	}
}

// Models returns the models of the table, strongest first: SER, SI,
// PSI, PC, GSI.
func Models() []Model {
	ms := make([]Model, 0, len(table)-1)
	for m := SER; int(m) < len(table); m++ {
		ms = append(ms, m)
	}
	return ms
}

// Row returns m's row of the table, or nil for an unknown model.
func (m Model) Row() *Row {
	if m <= ModelInvalid || int(m) >= len(table) {
		return nil
	}
	return &table[m]
}

// String returns the model's name: "SER", "SI", "PSI", "PC" or "GSI".
func (m Model) String() string {
	if r := m.Row(); r != nil {
		return r.Name
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// Base is B = VIS ∪ CO, the relation every execution of the model
// commits in order and whose closure the certifiers maintain. A nil
// row (an unknown model) has none.
func (r *Row) Base() Kinds {
	if r == nil {
		return 0
	}
	return r.VIS | r.CO
}

// Dense returns the kinds the membership test over a maintained
// closure (ClosureInModel) reads as dense relations of their own: VIS
// when the row has CO edges, since the closure of B is then not VIS's,
// and none otherwise.
func (r *Row) Dense() Kinds {
	if r == nil || r.CO == 0 {
		return 0
	}
	return r.VIS
}

// Incremental reports whether the row's composite has a test for the
// cycles through one element, ClosureInModelThrough: a search from it
// in two states for (VIS ; RW?) without CO-only kinds (SI, GSI), in one
// for B ∪ RW (SER). PSI's irreflexivity test and PC's union with CO
// keep the whole-carrier test.
func (r *Row) Incremental() bool {
	return r != nil && r.CO == 0 && r.RW != RWAfterPath
}

// Violation returns the error a membership test reports for a graph
// outside the row's model: the forbidden condition, e.g.
// "(SO ∪ WR ∪ WW) ; RW? is cyclic".
func (r *Row) Violation() error { return r.violation }

// formula renders the condition the row forbids.
func (r *Row) formula() string {
	switch r.RW {
	case RWUnion:
		return r.Base().String() + " ∪ RW is cyclic"
	case RWAfterPath:
		return "(" + r.VIS.String() + ")⁺ ; RW? is not irreflexive"
	}
	f := "(" + r.VIS.String() + ") ; RW?"
	if r.CO != 0 {
		f = "(" + f + ") ∪ " + r.CO.String()
	}
	return f + " is cyclic"
}

// Union returns the union of the graph's relations of the given kinds
// (SO, WR and WW; RW is never part of a union).
func (g *Graph) Union(k Kinds) *relation.Rel {
	var out *relation.Rel
	if k.Has(EdgeSO) {
		out = g.History.SessionOrder()
	} else {
		out = relation.New(g.n())
	}
	if k.Has(EdgeWR) {
		for _, e := range g.wr {
			e.AddTo(out)
		}
	}
	if k.Has(EdgeWW) {
		for _, e := range g.ww {
			e.AddTo(out)
		}
	}
	return out
}

// composite returns the relation whose cycles the row forbids:
// B ∪ RW (RWUnion), B⁺ ; RW? (RWAfterPath, where the test is
// irreflexivity), or (VIS ; RW?) ∪ CO.
func (g *Graph) composite(r *Row) *relation.Rel {
	switch r.RW {
	case RWUnion:
		return g.Union(r.Base()).UnionInPlace(g.RW())
	case RWAfterPath:
		return g.Union(r.VIS).TransitiveClosure().Compose(g.RW().Maybe())
	}
	c := g.Union(r.VIS).Compose(g.RW().Maybe())
	if r.CO != 0 {
		c.UnionInPlace(g.Union(r.CO))
	}
	return c
}

// InModel reports whether the graph belongs to the model's graph
// class: GraphSER, GraphSI or GraphPSI of Theorems 8, 9 and 21, or the
// PC and GSI classes of the same shape. A nil error means membership;
// the error otherwise explains the violated condition (an INT
// violation or the row's forbidden cycle).
func (g *Graph) InModel(m Model) error {
	if err := g.History.CheckInt(); err != nil {
		return fmt.Errorf("INT: %w", err)
	}
	r := m.Row()
	if r == nil {
		return fmt.Errorf("unknown model %v", m)
	}
	if g.Witness(m) != nil {
		return r.violation
	}
	return nil
}

// Witness returns one forbidden cycle for the given model as a
// sequence of transaction indices (first repeated last), or nil if the
// graph is in the model. Except under SER the cycle is over the
// composite relation, so consecutive nodes may be connected by a
// dependency followed by an optional anti-dependency (or, for PSI, a
// dependency path).
func (g *Graph) Witness(m Model) []int {
	r := m.Row()
	if r == nil {
		return nil
	}
	c := g.composite(r)
	if r.RW != RWAfterPath {
		return c.FindCycle()
	}
	for i := 0; i < g.n(); i++ {
		if c.Has(i, i) {
			return []int{i, i}
		}
	}
	return nil
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
			w, ok, err := x.VisibleWriter(s, obj)
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

// Equal reports whether two graphs over the same history have
// identical per-object WR and WW relations (and hence identical RW).
func (g *Graph) Equal(o *Graph) bool {
	return g.n() == o.n() && sameEdges(g.wr, o.wr) && sameEdges(g.ww, o.ww)
}

// sameEdges reports whether a and b hold the same per-object relations,
// an absent object counting as empty.
func sameEdges(a, b map[model.Obj]*relation.Edges) bool {
	for x, e := range a {
		if !e.Equal(b[x]) {
			return false
		}
	}
	for x, e := range b {
		if !e.Equal(a[x]) {
			return false
		}
	}
	return true
}
