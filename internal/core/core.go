// Package core implements the technical heart of the paper: the
// soundness direction of Theorem 10. Given a dependency graph
// G ∈ GraphSI it constructs an abstract execution X ∈ ExecSI with
// graph(X) = G, by solving the system of inequalities of Figure 3
//
//	(S1) SO ∪ WR ∪ WW ⊆ VIS
//	(S2) CO ; VIS ⊆ VIS
//	(S3) VIS ⊆ CO
//	(S4) CO ; CO ⊆ CO
//	(S5) VIS ; RW ⊆ CO
//
// via the closed-form least solution of Lemma 15,
//
//	VIS = (((SO ∪ WR ∪ WW) ; RW?) ∪ R)* ; (SO ∪ WR ∪ WW)
//	CO  = (((SO ∪ WR ∪ WW) ; RW?) ∪ R)⁺
//
// and then extending the commit order CO to a total order by repeatedly
// enforcing an unrelated pair and re-solving (the proof of Theorem
// 10(i)). Because CO_{i+1} = (CO_i ∪ {(T_i, S_i)})⁺ and the pair is
// chosen unrelated, acyclicity is preserved at every step; the package
// provides both the paper-faithful incremental construction (useful
// for inspecting intermediate pre-executions) and a fast direct
// construction that linearises CO₀ with one topological sort.
//
// The system is read off the model's row of the depgraph table: the
// row's VIS kinds stand in (S1) and for SO ∪ WR ∪ WW above, and its CO
// kinds, when it has any, get an inequality of their own and join CO's
// generator — for PC, WW ⊆ CO and CO = (((SO ∪ WR) ; RW?) ∪ WW ∪ R)⁺.
// Rows of the ";RW?" shape (SI, PC, GSI) build executions; SER and PSI
// build none, since Figure 3 captures neither TOTALVIS nor TRANSVIS.
// Verify judges what a row built against the model's axiom set of
// package execution, never against the row.
package core

import (
	"errors"
	"fmt"

	"sian/internal/depgraph"
	"sian/internal/execution"
	"sian/internal/relation"
)

// Solution is a pair of relations (VIS, CO) solving the Figure 3
// system for some dependency graph.
type Solution struct {
	VIS *relation.Rel
	CO  *relation.Rel
}

// LeastSolution computes the Lemma 15 least solution of model m's
// system whose CO contains every pair of R; m must be a model of the
// table. Passing a nil R yields the overall least solution (R = ∅).
// The result solves the system for any dependency graph, but is
// acyclic only when G is in m's graph class and R was chosen to keep
// it so.
func LeastSolution(g *depgraph.Graph, m depgraph.Model, r *relation.Rel) Solution {
	return leastSolution(g, m.Row(), r)
}

func leastSolution(g *depgraph.Graph, row *depgraph.Row, r *relation.Rel) Solution {
	r0 := g.Union(row.VIS)
	b := r0.Compose(g.RW().Maybe())
	if row.CO != 0 {
		b.UnionInPlace(g.Union(row.CO))
	}
	if r != nil {
		b.UnionInPlace(r)
	}
	co := b.TransitiveClosure()
	// VIS = B* ; R₀ = CO? ; R₀ — the closed form of Lemma 15.
	vis := co.Maybe().Compose(r0)
	return Solution{VIS: vis, CO: co}
}

// CheckSystem verifies that (VIS, CO) satisfies model m's system for
// the graph g — five inequalities, or six when the row has CO kinds —
// returning a descriptive error naming the first violated inequality.
func CheckSystem(g *depgraph.Graph, m depgraph.Model, s Solution) error {
	row := m.Row()
	if row == nil {
		return fmt.Errorf("core: unknown model %v", m)
	}
	type inequality struct {
		name string
		ok   bool
	}
	checks := []inequality{{row.VIS.String() + " ⊆ VIS", g.Union(row.VIS).SubsetOf(s.VIS)}}
	if row.CO != 0 {
		checks = append(checks, inequality{row.CO.String() + " ⊆ CO", g.Union(row.CO).SubsetOf(s.CO)})
	}
	checks = append(checks,
		inequality{"CO ; VIS ⊆ VIS", s.CO.Compose(s.VIS).SubsetOf(s.VIS)},
		inequality{"VIS ⊆ CO", s.VIS.SubsetOf(s.CO)},
		inequality{"CO ; CO ⊆ CO", s.CO.Compose(s.CO).SubsetOf(s.CO)},
		inequality{"VIS ; RW ⊆ CO", s.VIS.Compose(g.RW()).SubsetOf(s.CO)})
	for i, c := range checks {
		if !c.ok {
			return fmt.Errorf("inequality (S%d) %s violated", i+1, c.name)
		}
	}
	return nil
}

// ErrNotInModel is returned, wrapped with the row's forbidden
// condition, when the input graph is outside the model's graph class,
// so no execution of the model exists (Theorem 9 for SI).
var ErrNotInModel = errors.New("core: graph is outside the model")

// solve returns the least solution of the row's system for a valid
// graph in the row's class.
func solve(g *depgraph.Graph, row *depgraph.Row) (Solution, error) {
	if row == nil || row.RW != depgraph.RWOptional {
		return Solution{}, errors.New("core: the model has no Figure 3 construction")
	}
	if err := g.Validate(); err != nil {
		return Solution{}, fmt.Errorf("core: invalid dependency graph: %w", err)
	}
	sol := leastSolution(g, row, nil)
	if !sol.CO.IsAcyclic() {
		return Solution{}, fmt.Errorf("%w: Graph%s: %v (witness cycle %v)", ErrNotInModel, row.Name, row.Violation(), sol.CO.FindCycle())
	}
	return sol, nil
}

// BuildExecution implements Theorem 10(i) directly for model m: from G
// in m's graph class it produces an execution satisfying m's axioms
// with graph(X) = G. It returns ErrNotInModel (wrapped) when G is
// outside the class, and an error for a model without a construction.
//
// Construction: compute the least solution (VIS₀, CO₀); linearise CO₀
// with a deterministic topological sort into a total order CO; set
// VIS = CO? ; R₀ with R₀ the row's VIS kinds. This equals the limit of
// the paper's incremental pair-forcing process when pairs are enforced
// consistently with the chosen linearisation, so it inherits the proof
// of Theorem 10(i); Verify (or the tests) re-check every axiom
// independently.
func BuildExecution(g *depgraph.Graph, m depgraph.Model) (*execution.Execution, error) {
	return buildExecution(g, m.Row())
}

func buildExecution(g *depgraph.Graph, row *depgraph.Row) (*execution.Execution, error) {
	base, err := solve(g, row)
	if err != nil {
		return nil, err
	}
	order, err := base.CO.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("core: linearising CO₀: %w", err)
	}
	co := relation.New(len(order))
	for i, a := range order {
		for _, b := range order[i+1:] {
			co.Add(a, b)
		}
	}
	vis := co.Maybe().Compose(g.Union(row.VIS))
	return execution.New(g.History, vis, co), nil
}

// BuildExecutionIncremental is the paper-faithful version of the
// Theorem 10(i) construction for model m: starting from the least
// solution it repeatedly picks the smallest CO-unrelated pair (in
// index order), forces it into CO by re-solving with it added to R
// (Lemma 15; equivalently CO_{i+1} = (CO_i ∪ {(t,s)})⁺ with VIS
// recomputed), and stops when CO is total. When observe is non-nil it
// is called with every intermediate pre-execution, including the final
// one; observers must not retain or mutate the argument.
func BuildExecutionIncremental(g *depgraph.Graph, m depgraph.Model, observe func(step int, pre *execution.Execution)) (*execution.Execution, error) {
	row := m.Row()
	sol, err := solve(g, row)
	if err != nil {
		return nil, err
	}
	n := g.History.NumTransactions()
	forced := relation.New(n)
	for step := 0; ; step++ {
		if observe != nil {
			observe(step, execution.New(g.History, sol.VIS, sol.CO))
		}
		t, s, found := firstUnrelated(sol.CO, n)
		if !found {
			return execution.New(g.History, sol.VIS, sol.CO), nil
		}
		forced.Add(t, s)
		sol = leastSolution(g, row, forced)
	}
}

// firstUnrelated returns the smallest (in lexicographic index order)
// pair of distinct transactions unrelated by co.
func firstUnrelated(co *relation.Rel, n int) (int, int, bool) {
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !co.Has(a, b) && !co.Has(b, a) {
				return a, b, true
			}
		}
	}
	return 0, 0, false
}

// axioms holds each model's axiom set, the independent judge of what
// a row builds.
var axioms = map[depgraph.Model]func() []execution.Axiom{
	depgraph.SER: execution.SERAxioms,
	depgraph.SI:  execution.SIAxioms,
	depgraph.PSI: execution.PSIAxioms,
	depgraph.PC:  execution.PCAxioms,
	depgraph.GSI: execution.GSIAxioms,
}

// satisfies checks that x is a total execution satisfying m's axioms.
func satisfies(x *execution.Execution, m depgraph.Model) error {
	ax, ok := axioms[m]
	if !ok {
		return fmt.Errorf("unknown model %v", m)
	}
	if err := x.ValidateTotal(); err != nil {
		return err
	}
	return x.CheckAll(ax()...)
}

// Verify checks, independently of how x was built, that x satisfies
// model m's axioms (execution.SIAxioms for SI, and so on) and graph(x)
// equals g — the full conclusion of Theorem 10(i). It is used by the
// tests and by callers that want end-to-end certification of the
// construction.
func Verify(g *depgraph.Graph, m depgraph.Model, x *execution.Execution) error {
	if err := satisfies(x, m); err != nil {
		return fmt.Errorf("core: constructed execution violates the %v axioms: %w", m, err)
	}
	gx, err := depgraph.FromExecution(x)
	if err != nil {
		return fmt.Errorf("core: extracting graph(X): %w", err)
	}
	if !gx.Equal(g) {
		return errors.New("core: graph(X) differs from the input dependency graph")
	}
	return nil
}

// Completeness implements Theorem 10(ii) and its analogues (Theorems 8
// and 21, and the PC and GSI classes): for X satisfying m's axioms,
// graph(X) is in m's graph class. It extracts the dependency graph and
// checks membership, returning the graph for further use.
func Completeness(x *execution.Execution, m depgraph.Model) (*depgraph.Graph, error) {
	if err := satisfies(x, m); err != nil {
		return nil, fmt.Errorf("core: execution violates the %v axioms: %w", m, err)
	}
	g, err := depgraph.FromExecution(x)
	if err != nil {
		return nil, err
	}
	if err := g.InModel(m); err != nil {
		return nil, fmt.Errorf("core: %v completeness violated: %w", m, err)
	}
	return g, nil
}
