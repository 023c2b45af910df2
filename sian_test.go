package sian_test

import (
	"bytes"
	"strings"

	"testing"

	"sian"
)

// TestFacadeEndToEnd drives the paper's headline results through the
// public API only: write skew separates SER from SI, the long fork
// separates SI from PSI, the Figure 5/6 choppings are classified, and
// the robustness analyses accept/reject the §6 applications.
func TestFacadeEndToEnd(t *testing.T) {
	t.Parallel()

	// Write skew (Figure 2(d)).
	ws := sian.NewHistory(
		sian.Session{ID: "a", Transactions: []sian.Transaction{
			sian.NewTransaction("T1",
				sian.Read("acct1", 60), sian.Read("acct2", 60), sian.Write("acct1", -40)),
		}},
		sian.Session{ID: "b", Transactions: []sian.Transaction{
			sian.NewTransaction("T2",
				sian.Read("acct1", 60), sian.Read("acct2", 60), sian.Write("acct2", -40)),
		}},
	)
	opts := sian.CertifyOptions{PinInit: true, InitValue: 60, Budget: 100000}
	wantWS := map[sian.Model]bool{sian.SER: false, sian.SI: true, sian.PSI: true}
	for m, want := range wantWS {
		res, err := sian.Certify(ws, m, opts)
		if err != nil {
			t.Fatalf("certify %v: %v", m, err)
		}
		if res.Member != want {
			t.Errorf("write skew under %v = %v, want %v", m, res.Member, want)
		}
	}

	// Theorem 10(i) through the facade.
	res, err := sian.Certify(ws, sian.SI, sian.CertifyOptions{
		PinInit: true, InitValue: 60, Budget: 100000, BuildExecution: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Execution == nil {
		t.Fatal("no execution certificate")
	}
	if err := sian.VerifyExecution(res.Graph, sian.SI, res.Execution); err != nil {
		t.Errorf("VerifyExecution: %v", err)
	}
	x, err := sian.BuildExecution(res.Graph, sian.SI)
	if err != nil {
		t.Fatal(err)
	}
	if err := sian.VerifyExecution(res.Graph, sian.SI, x); err != nil {
		t.Errorf("BuildExecution output: %v", err)
	}

	// Chopping (Figures 5 and 6).
	acct1, acct2 := []sian.Obj{"acct1"}, []sian.Obj{"acct2"}
	transfer := sian.NewProgram("transfer",
		sian.NewPiece("p1", acct1, acct1),
		sian.NewPiece("p2", acct2, acct2),
	)
	lookupAll := sian.NewProgram("lookupAll", sian.NewPiece("all", []sian.Obj{"acct1", "acct2"}, nil))
	v, err := sian.CheckChopping([]sian.Program{transfer, lookupAll}, sian.SICritical)
	if err != nil {
		t.Fatal(err)
	}
	if v.OK {
		t.Error("Figure 5 chopping accepted")
	}
	lookup1 := sian.NewProgram("lookup1", sian.NewPiece("l1", acct1, nil))
	lookup2 := sian.NewProgram("lookup2", sian.NewPiece("l2", acct2, nil))
	v, err = sian.CheckChopping([]sian.Program{transfer, lookup1, lookup2}, sian.SICritical)
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK {
		t.Errorf("Figure 6 chopping rejected: %s", v.Describe())
	}

	// Robustness (§6.1).
	both := []sian.Obj{"acct1", "acct2"}
	brokenApp := sian.SingleTxApp(
		sian.NewTxSpec("w1", both, acct1),
		sian.NewTxSpec("w2", both, acct2),
	)
	if w, err := sian.CheckSIRobust(brokenApp); err != nil || w == nil {
		t.Errorf("write-skew app reported robust (%v)", err)
	}
	if w, err := sian.CheckPSIRobust(brokenApp); err != nil || w != nil {
		// The broken app has adjacent RWs only; adjacent pairs are not
		// the PSI-dangerous shape.
		t.Errorf("write-skew app should be PSI-robust: %v", w)
	}
}

// TestFacadeEngine drives a small SI engine workload through the
// facade types.
func TestFacadeEngine(t *testing.T) {
	t.Parallel()
	db, err := sian.NewDB(sian.EngineSI, sian.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Initialize(map[sian.Obj]sian.Value{"x": 0}); err != nil {
		t.Fatal(err)
	}
	s := db.Session("client")
	if err := s.Transact(func(tx *sian.EngineTx) error {
		v, err := tx.Read("x")
		if err != nil {
			return err
		}
		return tx.Write("x", v+1)
	}); err != nil {
		t.Fatal(err)
	}
	h := db.History()
	res, err := sian.Certify(h, sian.SI, sian.CertifyOptions{NoInit: true, PinInit: true, Budget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Member {
		t.Error("engine history not certified")
	}
}

// TestFacadeWrappers exercises the remaining facade surface: graph
// construction, the extension-model builders, dynamic chopping,
// classification and DOT rendering.
func TestFacadeWrappers(t *testing.T) {
	t.Parallel()
	// Build the lost-update graph by hand through the facade.
	h := sian.NewHistory(
		sian.Session{ID: "init", Transactions: []sian.Transaction{
			sian.NewTransaction("init", sian.Write("acct", 0)),
		}},
		sian.Session{ID: "a", Transactions: []sian.Transaction{
			sian.NewTransaction("T1", sian.Read("acct", 0), sian.Write("acct", 50)),
		}},
		sian.Session{ID: "b", Transactions: []sian.Transaction{
			sian.NewTransaction("T2", sian.Read("acct", 0), sian.Write("acct", 25)),
		}},
	)
	g := sian.NewGraph(h)
	g.AddWR("acct", 0, 1)
	g.AddWR("acct", 0, 2)
	g.AddWW("acct", 0, 1)
	g.AddWW("acct", 0, 2)
	g.AddWW("acct", 1, 2)

	// Classification: lost update is PC-only.
	c := sian.ClassifyGraph(g)
	if c.SER || c.SI || c.PSI {
		t.Errorf("lost update classification = %+v", c)
	}

	// PC construction through the facade.
	x, err := sian.BuildExecution(g, sian.PC)
	if err != nil {
		t.Fatal(err)
	}
	if err := sian.VerifyExecution(g, sian.PC, x); err != nil {
		t.Fatal(err)
	}
	if _, err := sian.BuildExecution(g, sian.GSI); err == nil {
		t.Error("lost update should be outside GraphGSI")
	}

	// DOT rendering.
	var buf bytes.Buffer
	if err := sian.WriteGraphDOT(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph dependencies") {
		t.Error("graph DOT missing header")
	}
	buf.Reset()
	if err := sian.WriteExecutionDOT(&buf, x); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph execution") {
		t.Error("execution DOT missing header")
	}

	// Dynamic chopping via the facade on a spliceable SI graph.
	res, err := sian.Certify(h, sian.SI, sian.CertifyOptions{NoInit: true, PinInit: true, Budget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Member {
		t.Fatal("lost update certified SI")
	}
	ws := sian.NewHistory(
		sian.Session{ID: "s", Transactions: []sian.Transaction{
			sian.NewTransaction("T1", sian.Write("x", 1)),
			sian.NewTransaction("T2", sian.Read("x", 1)),
		}},
	)
	wsRes, err := sian.Certify(ws, sian.SI, sian.CertifyOptions{})
	if err != nil || !wsRes.Member {
		t.Fatalf("session history rejected: %v %v", err, wsRes)
	}
	dyn, err := sian.CheckDynamicChopping(wsRes.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Critical != nil {
		t.Errorf("unexpected critical cycle")
	}
	if dyn.Spliced == nil {
		t.Error("expected spliced graph")
	}
	if _, err := sian.Splice(wsRes.Graph); err != nil {
		t.Errorf("Splice: %v", err)
	}

	// GSI round trip on a GSI member.
	gsiRes, err := sian.Certify(ws, sian.GSI, sian.CertifyOptions{})
	if err != nil || !gsiRes.Member {
		t.Fatalf("GSI certify: %v", err)
	}
	gx, err := sian.BuildExecution(gsiRes.Graph, sian.GSI)
	if err != nil {
		t.Fatal(err)
	}
	if err := sian.VerifyExecution(gsiRes.Graph, sian.GSI, gx); err != nil {
		t.Fatal(err)
	}
}
