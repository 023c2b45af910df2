package chopping

import (
	"fmt"

	"sian/internal/depgraph"
	"sian/internal/model"
	"sian/internal/relation"
)

// DCG builds the dynamic chopping graph of a dependency graph (§5)
// over g's transactions: its WR/WW/RW edges between *different*
// sessions become conflict edges, session order yields successor edges
// and its inverse predecessor edges.
func DCG(g *depgraph.Graph) *Graph {
	h := g.History
	labels := make([]string, h.NumTransactions())
	for i := range labels {
		labels[i] = h.Transaction(i).ID
	}
	out := NewGraph(len(labels), labels)
	for _, p := range h.SessionOrder().Pairs() {
		out.AddEdge(p[0], p[1], KindSuccessor)
		out.AddEdge(p[1], p[0], KindPredecessor)
	}
	same := h.SameSession()
	for k, rel := range map[EdgeKind]*relation.Rel{KindWR: g.WR(), KindWW: g.WW(), KindRW: g.RW()} {
		for _, p := range rel.Pairs() {
			if !same.Has(p[0], p[1]) {
				out.AddEdge(p[0], p[1], k)
			}
		}
	}
	return out
}

// Splice implements the splice(G) construction used to prove Theorem
// 16: it builds the dependency graph over splice(H_G) whose read and
// write dependencies are the liftings of G's to spliced transactions,
//
//	⌜T⌝ —WR(x)→ ⌜S⌝  iff  ⌜T⌝ ≠ ⌜S⌝ ∧ ∃T' ≈ T, S' ≈ S. T' —WR(x)→ S',
//
// and similarly for WW; RW is re-derived per Definition 5. The result
// is returned together with any well-formedness violation: when DCG(G)
// has a critical cycle the lifted graph may fail Definition 6 (e.g. a
// read with two sources), which is precisely what Theorem 16 rules
// out. Callers should Validate or check the returned error.
func Splice(g *depgraph.Graph) (*depgraph.Graph, error) {
	h := g.History
	out := depgraph.New(h.Splice())
	for _, x := range h.Objects() {
		for _, lift := range []struct {
			pairs [][2]int
			add   func(model.Obj, int, int)
		}{{g.WRObj(x).Pairs(), out.AddWR}, {g.WWObj(x).Pairs(), out.AddWW}} {
			for _, p := range lift.pairs {
				if t, s := h.SplicedIndex(p[0]), h.SplicedIndex(p[1]); t != s {
					lift.add(x, t, s)
				}
			}
		}
	}
	if err := out.Validate(); err != nil {
		return out, fmt.Errorf("chopping: spliced graph is not a dependency graph: %w", err)
	}
	return out, nil
}

// SpliceResult reports the dynamic chopping check of one dependency
// graph G: the critical cycle of DCG(G), nil if none; DCG(G) itself,
// for diagnostics; and splice(G) when there is no critical cycle.
type SpliceResult struct {
	Critical Cycle
	DCG      *Graph
	Spliced  *depgraph.Graph
}

// CheckDynamic applies Theorem 16 to a dependency graph G ∈ GraphSI:
// if DCG(G) has no SI-critical cycle, the result carries splice(G),
// which the theorem puts in GraphSI; else it carries the cycle, and G
// may or may not splice (the criterion is sound, not complete).
func CheckDynamic(g *depgraph.Graph) (*SpliceResult, error) {
	return CheckDynamicLevel(g, SICritical)
}

// CheckDynamicLevel is CheckDynamic at any criticality level, with its
// model: SERCritical with GraphSER (the dynamic Theorem 29), SICritical
// with GraphSI (Theorem 16), PSICritical with GraphPSI (the dynamic
// Theorem 31). G must be in the model, and so must splice(G) be.
func CheckDynamicLevel(g *depgraph.Graph, level Criticality) (*SpliceResult, error) {
	m, ok := map[Criticality]depgraph.Model{SERCritical: depgraph.SER, SICritical: depgraph.SI, PSICritical: depgraph.PSI}[level]
	if !ok {
		return nil, fmt.Errorf("chopping: unknown criticality level %v", level)
	}
	if err := g.InModel(m); err != nil {
		return nil, fmt.Errorf("chopping: input graph outside Graph%v: %w", m, err)
	}
	dcg := DCG(g)
	cyc, err := dcg.FindCriticalCycle(level)
	if err != nil {
		return nil, err
	}
	if cyc != nil {
		return &SpliceResult{Critical: cyc, DCG: dcg}, nil
	}
	spliced, err := Splice(g)
	if err != nil {
		return nil, fmt.Errorf("chopping: dynamic criterion violated at %v — no critical cycle but %w", level, err)
	}
	if err := spliced.InModel(m); err != nil {
		return nil, fmt.Errorf("chopping: dynamic criterion violated — spliced graph outside Graph%v: %w", m, err)
	}
	return &SpliceResult{DCG: dcg, Spliced: spliced}, nil
}
