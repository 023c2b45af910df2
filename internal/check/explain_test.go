package check

import (
	"strings"
	"testing"

	"sian/internal/depgraph"
	"sian/internal/model"
	"sian/internal/workload"
)

// explainOpts matches the options the Figure 2 example histories are
// built for: they carry their own init transaction, pinned first.
var explainOpts = Options{NoInit: true, PinInit: true, Budget: 1_000_000}

// assertCycleWellFormed checks the witness is a genuine cycle: each
// edge starts where the previous one ended and the last edge returns to
// the start of the first.
func assertCycleWellFormed(t *testing.T, cycle []depgraph.Edge) {
	t.Helper()
	if len(cycle) == 0 {
		t.Fatal("empty witness cycle")
	}
	for i := 1; i < len(cycle); i++ {
		if cycle[i].From != cycle[i-1].To {
			t.Errorf("edge %d starts at %d but edge %d ended at %d", i, cycle[i].From, i-1, cycle[i-1].To)
		}
	}
	if last := cycle[len(cycle)-1]; last.To != cycle[0].From {
		t.Errorf("cycle does not close: last edge ends at %d, first starts at %d", last.To, cycle[0].From)
	}
}

func countKind(cycle []depgraph.Edge, k depgraph.EdgeKind) int {
	n := 0
	for _, e := range cycle {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// TestExplainWriteSkew asserts the Figure 2(d) write-skew history is
// rejected under SER with a TOTALVIS explanation whose witness is the
// pure anti-dependency cycle T1 -RW-> T2 -RW-> T1 (Theorem 8).
func TestExplainWriteSkew(t *testing.T) {
	ws := workload.WriteSkew()
	res, err := Certify(ws.History, depgraph.SER, explainOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Member {
		t.Fatal("write skew must be rejected under SER")
	}
	e := res.Explain
	if e == nil {
		t.Fatal("negative verdict without Explain")
	}
	if !strings.Contains(e.Axiom, "TOTALVIS") {
		t.Errorf("axiom = %q, want TOTALVIS (write-skew shape)", e.Axiom)
	}
	if !e.Definitive || res.Examined != 1 {
		t.Errorf("definitive = %v, examined = %d; write skew has a unique extension", e.Definitive, res.Examined)
	}
	assertCycleWellFormed(t, e.Cycle)
	if got := countKind(e.Cycle, depgraph.EdgeRW); got != 2 {
		t.Errorf("witness has %d RW edges, want 2 (both anti-dependencies)", got)
	}
	if len(e.Cycle) != 2 {
		t.Errorf("witness has %d edges, want the 2-edge RW cycle, got %s", len(e.Cycle), e.Graph.FormatCycle(e.Cycle))
	}
	if s := e.String(); !strings.Contains(s, "TOTALVIS") || !strings.Contains(s, "RW") {
		t.Errorf("String() = %q, want axiom and cycle rendered", s)
	}
}

// TestExplainLongFork asserts the Figure 2(c) long-fork history is
// rejected under SI with a PREFIX explanation: a 4-edge cycle with two
// non-adjacent anti-dependencies (Theorem 9).
func TestExplainLongFork(t *testing.T) {
	lf := workload.LongFork()
	res, err := Certify(lf.History, depgraph.SI, explainOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Member {
		t.Fatal("long fork must be rejected under SI")
	}
	e := res.Explain
	if e == nil {
		t.Fatal("negative verdict without Explain")
	}
	if !strings.Contains(e.Axiom, "PREFIX") {
		t.Errorf("axiom = %q, want PREFIX (long-fork shape)", e.Axiom)
	}
	if !e.Definitive {
		t.Error("long fork has a unique extension; explanation must be definitive")
	}
	assertCycleWellFormed(t, e.Cycle)
	if got := countKind(e.Cycle, depgraph.EdgeRW); got != 2 {
		t.Errorf("witness has %d RW edges, want 2", got)
	}
	if got := countKind(e.Cycle, depgraph.EdgeWR); got != 2 {
		t.Errorf("witness has %d WR edges, want 2", got)
	}
	// The paper's witness alternates WR and RW through T3 and T4: no
	// two anti-dependencies are adjacent, so NOCONFLICT alone cannot
	// explain it — that is what makes it a PREFIX violation.
	for i, edge := range e.Cycle {
		next := e.Cycle[(i+1)%len(e.Cycle)]
		if edge.Kind == depgraph.EdgeRW && next.Kind == depgraph.EdgeRW {
			t.Errorf("adjacent RW edges at %d in %s; long fork's are non-adjacent", i, e.Graph.FormatCycle(e.Cycle))
		}
	}
}

// TestExplainLostUpdate asserts the Figure 2(b) lost-update history is
// rejected under SI with a NOCONFLICT explanation: a WW edge followed
// by a single anti-dependency. The WW order branches (T1 before T2 or
// the reverse), so the explanation is per-candidate, not definitive.
func TestExplainLostUpdate(t *testing.T) {
	lu := workload.LostUpdate()
	res, err := Certify(lu.History, depgraph.SI, explainOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Member {
		t.Fatal("lost update must be rejected under SI")
	}
	e := res.Explain
	if e == nil {
		t.Fatal("negative verdict without Explain")
	}
	if !strings.Contains(e.Axiom, "NOCONFLICT") {
		t.Errorf("axiom = %q, want NOCONFLICT (lost-update shape)", e.Axiom)
	}
	if res.Examined != 2 || e.Definitive {
		t.Errorf("examined = %d, definitive = %v; both WW orders must be tried and rejected", res.Examined, e.Definitive)
	}
	if e.Detail == "" {
		t.Error("non-definitive explanation must say which candidate the cycle comes from")
	}
	assertCycleWellFormed(t, e.Cycle)
	if got := countKind(e.Cycle, depgraph.EdgeRW); got != 1 {
		t.Errorf("witness has %d RW edges, want exactly 1 (lost-update shape)", got)
	}
	if got := countKind(e.Cycle, depgraph.EdgeWW); got != 1 {
		t.Errorf("witness has %d WW edges, want 1", got)
	}
}

// TestExplainInt asserts INT violations explain themselves without a
// cycle: the axiom constrains single transactions, not dependencies.
func TestExplainInt(t *testing.T) {
	h := model.NewHistory(
		model.Session{ID: "s1", Transactions: []model.Transaction{
			model.NewTransaction("T1",
				model.Write("x", 1),
				model.Read("x", 2), // contradicts the transaction's own write
			),
		}},
	)
	res, err := Certify(h, depgraph.SI, Options{PinInit: true, Budget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Member {
		t.Fatal("INT-violating history must be rejected")
	}
	e := res.Explain
	if e == nil || e.Axiom != "INT" {
		t.Fatalf("explain = %v, want axiom INT", e)
	}
	if len(e.Cycle) != 0 {
		t.Errorf("INT violations are not cycle-shaped, got %d edges", len(e.Cycle))
	}
	if !e.Definitive || e.Detail == "" {
		t.Errorf("INT explanation must be definitive with detail, got %+v", e)
	}
}

// TestExplainNilForMembers asserts positive verdicts carry no
// explanation.
func TestExplainNilForMembers(t *testing.T) {
	ws := workload.WriteSkew() // allowed under SI
	res, err := Certify(ws.History, depgraph.SI, explainOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Member {
		t.Fatal("write skew must be allowed under SI")
	}
	if res.Explain != nil {
		t.Errorf("members must not carry an Explain, got %s", res.Explain)
	}
}

// TestGSIBaseCycleLeavesSessionsOut: when every branch of a GSI
// search dies on a dependency cycle, the explanation is a cycle of
// GSI's base WR ∪ WW. GSI does not require session order to embed
// into the commit order, so a cycle through SO would not explain the
// rejection. Here session s1's first transaction reads its own k1
// write back in the second, and the third writes the k0 value the
// first read.
func TestGSIBaseCycleLeavesSessionsOut(t *testing.T) {
	t.Parallel()
	h := model.NewHistory(
		model.Session{ID: "s0", Transactions: []model.Transaction{
			model.NewTransaction("s0/t0", model.Write("k0", 2)),
		}},
		model.Session{ID: "s1", Transactions: []model.Transaction{
			model.NewTransaction("s1/t0", model.Read("k1", 0), model.Write("k1", 1), model.Read("k0", 1)),
			model.NewTransaction("s1/t1", model.Read("k1", 1), model.Read("k0", 1)),
			model.NewTransaction("s1/t2", model.Read("k1", 1), model.Write("k0", 1)),
		}},
	)
	res, err := Certify(h, depgraph.GSI, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Member || res.Explain == nil {
		t.Fatalf("member = %v, explanation %v; want a rejection", res.Member, res.Explain)
	}
	assertCycleWellFormed(t, res.Explain.Cycle)
	for _, e := range res.Explain.Cycle {
		if e.Kind == depgraph.EdgeSO {
			t.Fatalf("GSI explanation cites session order: %s", res.Explain)
		}
	}
}
