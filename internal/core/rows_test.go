package core_test

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"sian/internal/check"
	. "sian/internal/core"
	"sian/internal/depgraph"
	"sian/internal/model"
	"sian/internal/relation"
	"sian/internal/workload"
)

// staleSessionGraph is the counterexample separating GSI from SI: a
// session whose second transaction reads a value older than its own
// first transaction's write. Indices: 0 init, 1 T1 (writes x=1),
// 2 T2 (reads x=0 from init).
func staleSessionGraph() *depgraph.Graph {
	h := model.NewHistory(
		model.Session{ID: model.InitTransactionID, Transactions: []model.Transaction{
			model.NewTransaction("init", model.Write("x", 0)),
		}},
		model.Session{ID: "s", Transactions: []model.Transaction{
			model.NewTransaction("T1", model.Write("x", 1)),
			model.NewTransaction("T2", model.Read("x", 0)),
		}},
	)
	g := depgraph.New(h)
	g.AddWW("x", 0, 1)
	g.AddWR("x", 0, 2)
	return g
}

// TestRowConstructions runs every row with a construction — SI, PC
// and GSI — through the same checks: the least solution solves the
// row's system and keeps forced edges, the empty solution does not
// solve it, a non-member is refused, a member round-trips through
// Completeness, and every witness the certifier finds for a random
// history builds into an execution that satisfies the model's axioms.
func TestRowConstructions(t *testing.T) {
	t.Parallel()
	cases := []struct {
		m depgraph.Model
		// member is in the row's graph class (outside GraphSI, except
		// for SI); nonMember is outside it.
		member, nonMember func() *depgraph.Graph
		seed              int64
		trials            int
	}{
		{depgraph.SI, writeSkewGraph, lostUpdateGraph, 42, 120},
		{depgraph.PC, lostUpdateGraph, func() *depgraph.Graph { return workload.LongFork().Graph }, 77, 120},
		{depgraph.GSI, staleSessionGraph, func() *depgraph.Graph { return workload.LostUpdate().Graph }, 31, 100},
	}
	for _, c := range cases {
		m := c.m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			t.Run("SolvesSystem", func(t *testing.T) {
				for _, g := range []*depgraph.Graph{writeSkewGraph(), c.member()} {
					sol := LeastSolution(g, m, nil)
					if err := CheckSystem(g, m, sol); err != nil {
						t.Errorf("least solution violates the system: %v", err)
					}
				}
				if !LeastSolution(c.member(), m, nil).CO.IsAcyclic() {
					t.Error("least CO cyclic on a member")
				}
			})
			t.Run("ForcedEdges", func(t *testing.T) {
				g := writeSkewGraph()
				r := relation.New(3)
				r.Add(2, 1)
				sol := LeastSolution(g, m, r)
				if err := CheckSystem(g, m, sol); err != nil {
					t.Fatal(err)
				}
				if !sol.CO.Has(2, 1) {
					t.Error("forced edge missing")
				}
			})
			t.Run("CheckSystemViolations", func(t *testing.T) {
				empty := relation.New(3)
				err := CheckSystem(writeSkewGraph(), m, Solution{VIS: empty, CO: empty})
				if err == nil || !strings.Contains(err.Error(), "(S1)") {
					t.Errorf("empty solution should violate (S1): %v", err)
				}
			})
			t.Run("RejectsNonMember", func(t *testing.T) {
				if _, err := BuildExecution(c.nonMember(), m); !errors.Is(err, ErrNotInModel) {
					t.Fatalf("err = %v, want ErrNotInModel", err)
				}
			})
			t.Run("Completeness", func(t *testing.T) {
				g := c.member()
				x, err := BuildExecution(g, m)
				if err != nil {
					t.Fatal(err)
				}
				g2, err := Completeness(x, m)
				if err != nil {
					t.Fatalf("Completeness: %v", err)
				}
				if !g2.Equal(g) {
					t.Error("round trip changed the graph")
				}
			})
			t.Run("SoundnessRandomised", func(t *testing.T) {
				rng := rand.New(rand.NewSource(c.seed))
				built := 0
				for trial := 0; trial < c.trials; trial++ {
					h := workload.RandomPlausibleHistory(rng, workload.RandomConfig{
						Sessions: 2, TxPerSession: 2, OpsPerTx: 3, Objects: 2,
					})
					res, err := check.Certify(h, m, check.Options{})
					if err != nil {
						t.Fatal(err)
					}
					if !res.Member {
						continue
					}
					built++
					x, err := BuildExecution(res.Graph, m)
					if err != nil {
						t.Fatalf("trial %d: BuildExecution: %v\n%v", trial, err, res.History)
					}
					if err := Verify(res.Graph, m, x); err != nil {
						t.Fatalf("trial %d: Verify: %v\n%v", trial, err, res.History)
					}
				}
				if built == 0 {
					t.Errorf("no %v-certifiable history generated", m)
				}
			})
		})
	}
}

// TestNoConstructionForSERAndPSI: only rows of the ";RW?" shape have
// a Figure 3 system.
func TestNoConstructionForSERAndPSI(t *testing.T) {
	t.Parallel()
	for _, m := range []depgraph.Model{depgraph.SER, depgraph.PSI} {
		if _, err := BuildExecution(writeSkewGraph(), m); err == nil || errors.Is(err, ErrNotInModel) {
			t.Errorf("%v: err = %v, want no construction", m, err)
		}
	}
}

// TestBuildExecutionPCLostUpdate is the headline PC result: the lost
// update, rejected by SI, admits a verified PC execution.
func TestBuildExecutionPCLostUpdate(t *testing.T) {
	t.Parallel()
	g := lostUpdateGraph()
	if _, err := BuildExecution(g, depgraph.SI); !errors.Is(err, ErrNotInModel) {
		t.Fatalf("lost update should be outside GraphSI: %v", err)
	}
	x, err := BuildExecution(g, depgraph.PC)
	if err != nil {
		t.Fatalf("BuildExecution: %v", err)
	}
	if err := Verify(g, depgraph.PC, x); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// The constructed execution must violate NOCONFLICT — otherwise it
	// would be an SI execution of a non-SI history.
	if err := x.IsSI(); err == nil {
		t.Error("lost-update execution unexpectedly satisfies all SI axioms")
	}
}

// TestGSISeparation: the stale-session-read graph is in GraphGSI (the
// session order carries no composite weight) but outside GraphSI.
func TestGSISeparation(t *testing.T) {
	t.Parallel()
	g := staleSessionGraph()
	if err := g.InModel(depgraph.GSI); err != nil {
		t.Fatalf("stale session read should be GSI-allowed: %v", err)
	}
	if g.InModel(depgraph.SI) == nil {
		t.Fatal("stale session read must violate strong session SI")
	}
	x, err := BuildExecution(g, depgraph.GSI)
	if err != nil {
		t.Fatalf("BuildExecution: %v", err)
	}
	if err := Verify(g, depgraph.GSI, x); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// The constructed execution necessarily violates SESSION.
	if err := x.IsSI(); err == nil {
		t.Error("GSI execution of a non-SI graph satisfies all SI axioms")
	}
}

// TestWrongRowJudgedFromOutside: the table is not its own judge. SI's
// row with WW dropped from the VIS lower bound admits the Figure 2(b)
// lost update and builds an execution for it; Verify, which reads
// SI's axiom set and not the row, rejects that execution on
// NOCONFLICT, and the brute-force axiomatic checker refuses the
// history under SI, so the row disagrees with both independent judges.
func TestWrongRowJudgedFromOutside(t *testing.T) {
	t.Parallel()
	g := lostUpdateGraph()
	wrong := *depgraph.SI.Row()
	wrong.VIS &^= depgraph.Kinds(1) << depgraph.EdgeWW
	if wrong.VIS.Has(depgraph.EdgeWW) || !wrong.VIS.Has(depgraph.EdgeWR) {
		t.Fatalf("wrong row's VIS = %v", wrong.VIS)
	}
	x, err := BuildFromRow(g, &wrong)
	if err != nil {
		t.Fatalf("the wrong row refused the lost update: %v", err)
	}
	err = Verify(g, depgraph.SI, x)
	if err == nil || !strings.Contains(err.Error(), "NOCONFLICT") {
		t.Errorf("Verify against the SI axioms = %v, want a NOCONFLICT violation", err)
	}
	if _, err := BuildExecution(g, depgraph.SI); !errors.Is(err, ErrNotInModel) {
		t.Errorf("SI's own row: err = %v, want ErrNotInModel", err)
	}
	si, err := check.BruteForce(g.History, check.BruteSI, true)
	if err != nil {
		t.Fatal(err)
	}
	if si {
		t.Fatal("brute force admits the lost update under SI")
	}
}
