package depgraph

import (
	"strings"
	"testing"

	"sian/internal/execution"
	"sian/internal/model"
	"sian/internal/relation"
)

func tx(id string, ops ...model.Op) model.Transaction { return model.NewTransaction(id, ops...) }

func sess(id string, txs ...model.Transaction) model.Session {
	return model.Session{ID: id, Transactions: txs}
}

// lostUpdate: 0 init, 1 T1, 2 T2 — Figure 2(b).
func lostUpdate() *Graph {
	h := model.NewHistory(
		sess("init", tx("init", model.Write("acct", 0))),
		sess("a", tx("T1", model.Read("acct", 0), model.Write("acct", 50))),
		sess("b", tx("T2", model.Read("acct", 0), model.Write("acct", 25))),
	)
	g := New(h)
	g.AddWR("acct", 0, 1)
	g.AddWR("acct", 0, 2)
	g.AddWW("acct", 0, 1)
	g.AddWW("acct", 0, 2)
	g.AddWW("acct", 1, 2)
	return g
}

// writeSkew: 0 init, 1 T1, 2 T2 — Figure 2(d).
func writeSkew() *Graph {
	h := model.NewHistory(
		sess("init", tx("init", model.Write("a1", 60), model.Write("a2", 60))),
		sess("a", tx("T1", model.Read("a1", 60), model.Read("a2", 60), model.Write("a1", -40))),
		sess("b", tx("T2", model.Read("a1", 60), model.Read("a2", 60), model.Write("a2", -40))),
	)
	g := New(h)
	g.AddWW("a1", 0, 1)
	g.AddWW("a2", 0, 2)
	for _, reader := range []int{1, 2} {
		g.AddWR("a1", 0, reader)
		g.AddWR("a2", 0, reader)
	}
	return g
}

// longFork: 0 init, 1 T1 (writes x), 2 T2 (writes y), 3 T3, 4 T4 —
// Figure 2(c).
func longFork() *Graph {
	h := model.NewHistory(
		sess("init", tx("init", model.Write("x", 0), model.Write("y", 0))),
		sess("a", tx("T1", model.Write("x", 1))),
		sess("b", tx("T2", model.Write("y", 1))),
		sess("c", tx("T3", model.Read("x", 1), model.Read("y", 0))),
		sess("d", tx("T4", model.Read("y", 1), model.Read("x", 0))),
	)
	g := New(h)
	g.AddWW("x", 0, 1)
	g.AddWW("y", 0, 2)
	g.AddWR("x", 1, 3)
	g.AddWR("y", 0, 3)
	g.AddWR("y", 2, 4)
	g.AddWR("x", 0, 4)
	return g
}

func TestRWDerivation(t *testing.T) {
	t.Parallel()
	g := lostUpdate()
	rw := g.RWObj("acct")
	// T1 reads init's write, overwritten by T2 ⇒ T1 —RW→ T2;
	// T2 reads init's write, overwritten by T1 ⇒ T2 —RW→ T1;
	// the diagonal candidates (T1 overwritten by T1) are excluded.
	for _, want := range [][2]int{{1, 2}, {2, 1}} {
		if !rw.Has(want[0], want[1]) {
			t.Errorf("missing RW %v", want)
		}
	}
	if rw.Size() != 2 {
		t.Errorf("RW = %v, want exactly 2 edges", rw)
	}
	dense := relation.New(g.History.NumTransactions())
	rw.AddTo(dense)
	if !g.RW().Equal(dense) {
		t.Error("union RW differs from per-object RW")
	}
}

func TestRWEmptyWithoutWRorWW(t *testing.T) {
	t.Parallel()
	h := model.NewHistory(sess("a", tx("T0", model.Write("x", 1))))
	g := New(h)
	if !g.RWObj("x").IsEmpty() || !g.RW().IsEmpty() {
		t.Error("RW should be empty with no WR/WW edges")
	}
}

func TestValidateAcceptsFigures(t *testing.T) {
	t.Parallel()
	for _, g := range []*Graph{lostUpdate(), writeSkew(), longFork()} {
		if err := g.Validate(); err != nil {
			t.Errorf("Validate: %v", err)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	t.Parallel()
	h := model.NewHistory(
		sess("init", tx("init", model.Write("x", 0))),
		sess("a", tx("T1", model.Read("x", 0), model.Write("x", 1))),
		sess("b", tx("T2", model.Read("x", 0))),
	)
	tests := []struct {
		name  string
		build func() *Graph
		want  string
	}{
		{
			name: "self WR edge",
			build: func() *Graph {
				g := New(h)
				g.AddWR("x", 1, 1)
				return g
			},
			want: "self edge",
		},
		{
			name: "value mismatch",
			build: func() *Graph {
				g := New(h)
				g.AddWR("x", 1, 2) // T1 wrote 1 but T2 read 0
				g.AddWR("x", 0, 1)
				g.AddWW("x", 0, 1)
				return g
			},
			want: "read",
		},
		{
			name: "missing WR source",
			build: func() *Graph {
				g := New(h)
				g.AddWR("x", 0, 1) // T2's read unsourced
				g.AddWW("x", 0, 1)
				return g
			},
			want: "sources",
		},
		{
			name: "two WR sources",
			build: func() *Graph {
				// T2 reads 0, written finally by init only; fake a
				// second source by targeting T1's read instead.
				g := New(h)
				g.AddWR("x", 0, 1)
				g.AddWR("x", 0, 2)
				g.AddWR("x", 0, 2) // duplicate is idempotent, so use ww trick below
				g.AddWW("x", 0, 1)
				return g
			},
			want: "", // this graph is actually valid; see distinct test below
		},
		{
			name: "WW not total",
			build: func() *Graph {
				g := New(h)
				g.AddWR("x", 0, 1)
				g.AddWR("x", 0, 2)
				return g // two writers of x (init, T1) but no WW order
			},
			want: "total order",
		},
		{
			name: "WW involves non-writer",
			build: func() *Graph {
				g := New(h)
				g.AddWR("x", 0, 1)
				g.AddWR("x", 0, 2)
				g.AddWW("x", 0, 1)
				g.AddWW("x", 0, 2) // T2 does not write x
				return g
			},
			want: "non-writer",
		},
		{
			name: "WR source does not write",
			build: func() *Graph {
				g := New(h)
				g.AddWR("x", 2, 1) // T2 writes nothing
				g.AddWR("x", 0, 2)
				g.AddWW("x", 0, 1)
				return g
			},
			want: "does not write",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.build().Validate()
			if tc.want == "" {
				if err != nil {
					t.Errorf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("Validate accepted an ill-formed graph")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateRejectsTwoSources(t *testing.T) {
	t.Parallel()
	// Two transactions both finally write 0 to x; a third reads 0 with
	// two WR sources.
	h := model.NewHistory(
		sess("a", tx("W1", model.Write("x", 0))),
		sess("b", tx("W2", model.Write("x", 0))),
		sess("c", tx("R", model.Read("x", 0))),
	)
	g := New(h)
	g.AddWR("x", 0, 2)
	g.AddWR("x", 1, 2)
	g.AddWW("x", 0, 1)
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "2 sources") {
		t.Errorf("two WR sources not rejected: %v", err)
	}
}

func TestModelMembershipOfFigures(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name         string
		g            *Graph
		ser, si, psi bool
	}{
		{"lost update (2b)", lostUpdate(), false, false, false},
		{"write skew (2d)", writeSkew(), false, true, true},
		{"long fork (2c)", longFork(), false, false, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.g.InModel(SER) == nil; got != tc.ser {
				t.Errorf("InSER = %v, want %v (%v)", got, tc.ser, tc.g.InModel(SER))
			}
			if got := tc.g.InModel(SI) == nil; got != tc.si {
				t.Errorf("InSI = %v, want %v (%v)", got, tc.si, tc.g.InModel(SI))
			}
			if got := tc.g.InModel(PSI) == nil; got != tc.psi {
				t.Errorf("InPSI = %v, want %v (%v)", got, tc.psi, tc.g.InModel(PSI))
			}
		})
	}
}

func TestWitness(t *testing.T) {
	t.Parallel()
	g := lostUpdate()
	for _, m := range []Model{SER, SI, PSI} {
		w := g.Witness(m)
		if w == nil {
			t.Errorf("no %v witness for lost update", m)
		}
	}
	ws := writeSkew()
	if w := ws.Witness(SER); w == nil {
		t.Error("write skew should have a SER witness cycle")
	}
	if w := ws.Witness(SI); w != nil {
		t.Errorf("write skew is in GraphSI; unexpected witness %v", w)
	}
	if w := New(model.NewHistory()).Witness(Model(99)); w != nil {
		t.Error("unknown model should have nil witness")
	}
}

func TestInModelRejectsINTViolation(t *testing.T) {
	t.Parallel()
	h := model.NewHistory(sess("a", tx("T0", model.Write("x", 1), model.Read("x", 2))))
	g := New(h)
	for _, m := range []Model{SER, SI, PSI} {
		err := g.InModel(m)
		if err == nil || !strings.Contains(err.Error(), "INT") {
			t.Errorf("%v: INT violation not reported: %v", m, err)
		}
	}
	if err := g.InModel(Model(99)); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestSERSubsetOfSISubsetOfPSI(t *testing.T) {
	t.Parallel()
	// On the figures: SER membership implies SI implies PSI.
	for _, g := range []*Graph{lostUpdate(), writeSkew(), longFork()} {
		if g.InModel(SER) == nil && g.InModel(SI) != nil {
			t.Error("GraphSER ⊄ GraphSI")
		}
		if g.InModel(SI) == nil && g.InModel(PSI) != nil {
			t.Error("GraphSI ⊄ GraphPSI")
		}
	}
}

func TestFromExecution(t *testing.T) {
	t.Parallel()
	// Serial execution: init < T1 < T2 with full visibility.
	h := model.NewHistory(
		sess("init", tx("init", model.Write("x", 0))),
		sess("a", tx("T1", model.Read("x", 0), model.Write("x", 1))),
		sess("b", tx("T2", model.Read("x", 1))),
	)
	co := relation.New(3)
	co.Add(0, 1)
	co.Add(0, 2)
	co.Add(1, 2)
	x := execution.New(h, co.Clone(), co)
	g, err := FromExecution(x)
	if err != nil {
		t.Fatalf("FromExecution: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("extracted graph invalid: %v", err)
	}
	if !g.WRObj("x").Has(0, 1) || !g.WRObj("x").Has(1, 2) {
		t.Errorf("WR = %v", g.WRObj("x"))
	}
	if !g.WWObj("x").Has(0, 1) || g.WWObj("x").Size() != 1 {
		t.Errorf("WW = %v", g.WWObj("x"))
	}
	if g.InModel(SER) != nil {
		t.Error("serial execution's graph should be in GraphSER")
	}
}

func TestFromExecutionWriteSkew(t *testing.T) {
	t.Parallel()
	gWant := writeSkew()
	h := gWant.History
	vis := relation.New(3)
	vis.Add(0, 1)
	vis.Add(0, 2)
	co := vis.Clone()
	co.Add(1, 2)
	x := execution.New(h, vis, co)
	g, err := FromExecution(x)
	if err != nil {
		t.Fatalf("FromExecution: %v", err)
	}
	if !g.Equal(gWant) {
		t.Error("extracted graph differs from the Figure 2(d) graph")
	}
}

func TestFromExecutionUnorderedWriters(t *testing.T) {
	t.Parallel()
	// Two writers unrelated by CO and a reader seeing both: the
	// CO-max is undefined and extraction must fail.
	h := model.NewHistory(
		sess("a", tx("W1", model.Write("x", 1))),
		sess("b", tx("W2", model.Write("x", 2))),
		sess("c", tx("R", model.Read("x", 2))),
	)
	vis := relation.New(3)
	vis.Add(0, 2)
	vis.Add(1, 2)
	x := execution.New(h, vis, vis.Clone())
	if _, err := FromExecution(x); err == nil {
		t.Error("expected error for CO-unordered visible writers")
	}
}

func TestEqual(t *testing.T) {
	t.Parallel()
	a, b := writeSkew(), writeSkew()
	if !a.Equal(b) {
		t.Error("identical graphs not Equal")
	}
	b.AddWW("a1", 1, 2) // extra edge (ill-formed, but Equal is structural)
	if a.Equal(b) {
		t.Error("graphs with different WW reported Equal")
	}
	if a.Equal(lostUpdate()) {
		t.Error("different-history graphs reported Equal")
	}
}

func TestObjects(t *testing.T) {
	t.Parallel()
	g := longFork()
	objs := g.Objects()
	if len(objs) != 2 || objs[0] != "x" || objs[1] != "y" {
		t.Errorf("Objects = %v", objs)
	}
}

func TestModelString(t *testing.T) {
	t.Parallel()
	if SER.String() != "SER" || SI.String() != "SI" || PSI.String() != "PSI" {
		t.Error("Model.String broken")
	}
	if !strings.Contains(Model(42).String(), "42") {
		t.Error("unknown model String should include the number")
	}
}
