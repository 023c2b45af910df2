package core_test

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"sian/internal/check"
	. "sian/internal/core"
	"sian/internal/depgraph"
	"sian/internal/execution"
	"sian/internal/model"
	"sian/internal/relation"
	"sian/internal/workload"
)

// writeSkewGraph returns the Figure 2(d) graph (0 init, 1 T1, 2 T2),
// the canonical GraphSI \ GraphSER member.
func writeSkewGraph() *depgraph.Graph {
	h := model.NewHistory(
		model.Session{ID: "init", Transactions: []model.Transaction{
			model.NewTransaction("init", model.Write("a1", 60), model.Write("a2", 60)),
		}},
		model.Session{ID: "a", Transactions: []model.Transaction{
			model.NewTransaction("T1", model.Read("a1", 60), model.Read("a2", 60), model.Write("a1", -40)),
		}},
		model.Session{ID: "b", Transactions: []model.Transaction{
			model.NewTransaction("T2", model.Read("a1", 60), model.Read("a2", 60), model.Write("a2", -40)),
		}},
	)
	g := depgraph.New(h)
	g.AddWW("a1", 0, 1)
	g.AddWW("a2", 0, 2)
	for _, r := range []int{1, 2} {
		g.AddWR("a1", 0, r)
		g.AddWR("a2", 0, r)
	}
	return g
}

// lostUpdateGraph returns the Figure 2(b) graph, outside GraphSI.
func lostUpdateGraph() *depgraph.Graph {
	h := model.NewHistory(
		model.Session{ID: "init", Transactions: []model.Transaction{
			model.NewTransaction("init", model.Write("acct", 0)),
		}},
		model.Session{ID: "a", Transactions: []model.Transaction{
			model.NewTransaction("T1", model.Read("acct", 0), model.Write("acct", 50)),
		}},
		model.Session{ID: "b", Transactions: []model.Transaction{
			model.NewTransaction("T2", model.Read("acct", 0), model.Write("acct", 25)),
		}},
	)
	g := depgraph.New(h)
	g.AddWR("acct", 0, 1)
	g.AddWR("acct", 0, 2)
	g.AddWW("acct", 0, 1)
	g.AddWW("acct", 0, 2)
	g.AddWW("acct", 1, 2)
	return g
}

func TestLeastSolutionSolvesSystem(t *testing.T) {
	t.Parallel()
	for _, g := range []*depgraph.Graph{writeSkewGraph(), lostUpdateGraph()} {
		sol := LeastSolution(g, depgraph.SI, nil)
		if err := CheckSystem(g, depgraph.SI, sol); err != nil {
			t.Errorf("least solution violates the system: %v", err)
		}
	}
}

func TestLeastSolutionWithForcedEdges(t *testing.T) {
	t.Parallel()
	g := writeSkewGraph()
	r := relation.New(3)
	r.Add(1, 2) // force T1 before T2 in CO
	sol := LeastSolution(g, depgraph.SI, r)
	if err := CheckSystem(g, depgraph.SI, sol); err != nil {
		t.Fatalf("solution with R violates the system: %v", err)
	}
	if !sol.CO.Has(1, 2) {
		t.Error("forced edge missing from CO")
	}
	if !r.SubsetOf(sol.CO) {
		t.Error("CO ⊉ R")
	}
}

// TestLeastSolutionMinimality checks the minimality claim of Lemma 15
// against an independent fixed-point computation: starting from the
// inequalities' right-hand sides and iterating to the least fixed
// point must give the same pair.
func TestLeastSolutionMinimality(t *testing.T) {
	t.Parallel()
	g := writeSkewGraph()
	n := g.History.NumTransactions()
	r0 := g.History.SessionOrder().UnionInPlace(g.WR()).UnionInPlace(g.WW())
	rw := g.RW()
	vis := relation.New(n)
	co := relation.New(n)
	for {
		nextVis := vis.Union(r0).UnionInPlace(co.Compose(vis))
		nextCo := co.Union(vis).
			UnionInPlace(co.Compose(co)).
			UnionInPlace(vis.Compose(rw))
		if nextVis.Equal(vis) && nextCo.Equal(co) {
			break
		}
		vis, co = nextVis, nextCo
	}
	sol := LeastSolution(g, depgraph.SI, nil)
	if !sol.VIS.Equal(vis) {
		t.Errorf("VIS: closed form %v vs fixed point %v", sol.VIS, vis)
	}
	if !sol.CO.Equal(co) {
		t.Errorf("CO: closed form %v vs fixed point %v", sol.CO, co)
	}
}

func TestCheckSystemDetectsViolations(t *testing.T) {
	t.Parallel()
	g := writeSkewGraph()
	empty := relation.New(3)
	err := CheckSystem(g, depgraph.SI, Solution{VIS: empty, CO: empty})
	if err == nil || !strings.Contains(err.Error(), "(S1)") {
		t.Errorf("empty solution should violate (S1): %v", err)
	}
}

func TestBuildExecutionWriteSkew(t *testing.T) {
	t.Parallel()
	g := writeSkewGraph()
	x, err := BuildExecution(g, depgraph.SI)
	if err != nil {
		t.Fatalf("BuildExecution: %v", err)
	}
	if err := Verify(g, depgraph.SI, x); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestBuildExecutionRejectsNonSI(t *testing.T) {
	t.Parallel()
	g := lostUpdateGraph()
	_, err := BuildExecution(g, depgraph.SI)
	if !errors.Is(err, ErrNotInModel) {
		t.Fatalf("err = %v, want ErrNotInModel", err)
	}
	if _, err := BuildExecutionIncremental(g, depgraph.SI, nil); !errors.Is(err, ErrNotInModel) {
		t.Fatalf("incremental err = %v, want ErrNotInModel", err)
	}
}

func TestBuildExecutionRejectsInvalidGraph(t *testing.T) {
	t.Parallel()
	g := writeSkewGraph()
	g.AddWR("a1", 1, 2) // second WR source for T2's read of a1
	if _, err := BuildExecution(g, depgraph.SI); err == nil {
		t.Error("invalid graph accepted")
	}
}

func TestBuildExecutionIncrementalMatchesPaper(t *testing.T) {
	t.Parallel()
	g := writeSkewGraph()
	steps := 0
	var lastPre *execution.Execution
	x, err := BuildExecutionIncremental(g, depgraph.SI, func(step int, pre *execution.Execution) {
		steps++
		lastPre = pre
		// Every intermediate stage must be a pre-execution in
		// PreExecSI with graph(P) = G (Lemma 13).
		if err := pre.IsPreSI(); err != nil {
			t.Errorf("step %d: pre-execution outside PreExecSI: %v", step, err)
		}
		gp, err := depgraph.FromExecution(pre)
		if err != nil {
			t.Errorf("step %d: graph(P): %v", step, err)
			return
		}
		if !gp.Equal(g) {
			t.Errorf("step %d: graph(P) ≠ G", step)
		}
	})
	if err != nil {
		t.Fatalf("BuildExecutionIncremental: %v", err)
	}
	if steps == 0 {
		t.Error("observer never called")
	}
	if lastPre == nil || !lastPre.CO.IsTotal() {
		t.Error("final stage should have a total CO")
	}
	if err := Verify(g, depgraph.SI, x); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestBuildExecutionEquivalence(t *testing.T) {
	t.Parallel()
	// Direct and incremental constructions both produce verified
	// executions (they may differ in CO, which is fine).
	for _, gfn := range []func() *depgraph.Graph{writeSkewGraph} {
		g := gfn()
		direct, err := BuildExecution(g, depgraph.SI)
		if err != nil {
			t.Fatal(err)
		}
		incr, err := BuildExecutionIncremental(g, depgraph.SI, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range []*execution.Execution{direct, incr} {
			if err := Verify(g, depgraph.SI, x); err != nil {
				t.Errorf("Verify: %v", err)
			}
		}
	}
}

func TestCompletenessWriteSkew(t *testing.T) {
	t.Parallel()
	g := writeSkewGraph()
	x, err := BuildExecution(g, depgraph.SI)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Completeness(x, depgraph.SI)
	if err != nil {
		t.Fatalf("Completeness: %v", err)
	}
	if !g2.Equal(g) {
		t.Error("round trip changed the graph")
	}
}

func TestCompletenessRejectsNonSIExecution(t *testing.T) {
	t.Parallel()
	// An execution violating NOCONFLICT (lost-update shape).
	g := lostUpdateGraph()
	h := g.History
	vis := relation.New(3)
	vis.Add(0, 1)
	vis.Add(0, 2)
	co := vis.Clone()
	co.Add(1, 2)
	x := execution.New(h, vis, co)
	if _, err := Completeness(x, depgraph.SI); err == nil {
		t.Error("Completeness accepted an execution outside ExecSI")
	}
}

// TestSoundnessOnFigure4 exercises the running example of §4.
func TestSoundnessOnFigure4(t *testing.T) {
	t.Parallel()
	figs := workload.Fig4Graphs()
	for name, g := range map[string]*depgraph.Graph{"G1": figs.G1, "G2": figs.G2} {
		x, err := BuildExecution(g, depgraph.SI)
		if err != nil {
			t.Fatalf("%s: BuildExecution: %v", name, err)
		}
		if err := Verify(g, depgraph.SI, x); err != nil {
			t.Errorf("%s: Verify: %v", name, err)
		}
	}
}

// TestSoundnessRandomised is the executable form of Theorem 10(i):
// every witness graph the certifier finds for a random history can be
// turned into a verified SI execution with the same dependencies.
func TestSoundnessRandomised(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(42))
	built := 0
	for trial := 0; trial < 120; trial++ {
		h := workload.RandomPlausibleHistory(rng, workload.RandomConfig{
			Sessions: 2, TxPerSession: 2, OpsPerTx: 3, Objects: 2,
		})
		res, err := check.Certify(h, depgraph.SI, check.Options{})
		if err != nil {
			t.Fatalf("Certify: %v", err)
		}
		if !res.Member {
			continue
		}
		built++
		x, err := BuildExecution(res.Graph, depgraph.SI)
		if err != nil {
			t.Fatalf("trial %d: BuildExecution on witness: %v\nhistory:\n%v", trial, err, h)
		}
		if err := Verify(res.Graph, depgraph.SI, x); err != nil {
			t.Fatalf("trial %d: Verify: %v\nhistory:\n%v", trial, err, h)
		}
		// Cross-check the incremental construction too, on a sample.
		if trial%10 == 0 {
			xi, err := BuildExecutionIncremental(res.Graph, depgraph.SI, nil)
			if err != nil {
				t.Fatalf("trial %d: incremental: %v", trial, err)
			}
			if err := Verify(res.Graph, depgraph.SI, xi); err != nil {
				t.Fatalf("trial %d: incremental Verify: %v", trial, err)
			}
		}
	}
	if built == 0 {
		t.Error("no random history was SI-certifiable; generator too hostile")
	}
}

// TestBuildExecutionDeterministic: the construction is a pure function
// of the graph (deterministic topological linearisation).
func TestBuildExecutionDeterministic(t *testing.T) {
	t.Parallel()
	g := writeSkewGraph()
	a, err := BuildExecution(g, depgraph.SI)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildExecution(writeSkewGraph(), depgraph.SI)
	if err != nil {
		t.Fatal(err)
	}
	if !a.CO.Equal(b.CO) || !a.VIS.Equal(b.VIS) {
		t.Error("BuildExecution is not deterministic")
	}
}
