package check

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sian/internal/depgraph"
	"sian/internal/model"
	"sian/internal/workload"
)

func certify(t *testing.T, h *model.History, m depgraph.Model) *Result {
	t.Helper()
	res, err := Certify(h, m, Options{})
	if err != nil {
		t.Fatalf("Certify(%v): %v", m, err)
	}
	return res
}

// certifyNoInit certifies a history that already contains its own
// initialising writes; the init transaction (when present at index 0)
// is pinned first, matching the paper's convention.
func certifyNoInit(t *testing.T, h *model.History, m depgraph.Model) *Result {
	t.Helper()
	pin := h.NumTransactions() > 0 && h.Transaction(0).ID == model.InitTransactionID
	res, err := Certify(h, m, Options{NoInit: true, PinInit: pin, Budget: 1_000_000})
	if err != nil {
		t.Fatalf("Certify(%v): %v", m, err)
	}
	return res
}

// brutePin mirrors certifyNoInit's pinning choice for BruteForce.
func brutePin(h *model.History) bool {
	return h.NumTransactions() > 0 && h.Transaction(0).ID == model.InitTransactionID
}

func TestCertifyFigure2Examples(t *testing.T) {
	t.Parallel()
	for _, ex := range workload.Examples() {
		ex := ex
		t.Run(ex.Name, func(t *testing.T) {
			t.Parallel()
			got := map[depgraph.Model]bool{
				depgraph.SER: certifyNoInit(t, ex.History, depgraph.SER).Member,
				depgraph.SI:  certifyNoInit(t, ex.History, depgraph.SI).Member,
				depgraph.PSI: certifyNoInit(t, ex.History, depgraph.PSI).Member,
				depgraph.PC:  certifyNoInit(t, ex.History, depgraph.PC).Member,
				depgraph.GSI: certifyNoInit(t, ex.History, depgraph.GSI).Member,
			}
			want := map[depgraph.Model]bool{
				depgraph.SER: ex.InSER,
				depgraph.SI:  ex.InSI,
				depgraph.PSI: ex.InPSI,
				depgraph.PC:  ex.InPC,
				depgraph.GSI: ex.InGSI,
			}
			for m, w := range want {
				if got[m] != w {
					t.Errorf("%v membership = %v, want %v", m, got[m], w)
				}
			}
		})
	}
}

func TestCertifyReturnsWitnessInModel(t *testing.T) {
	t.Parallel()
	ws := workload.WriteSkew()
	res := certifyNoInit(t, ws.History, depgraph.SI)
	if !res.Member {
		t.Fatal("write skew should be SI-certifiable")
	}
	if res.Graph == nil {
		t.Fatal("member without witness graph")
	}
	if err := res.Graph.Validate(); err != nil {
		t.Errorf("witness graph invalid: %v", err)
	}
	if err := res.Graph.InModel(depgraph.SI); err != nil {
		t.Errorf("witness graph outside GraphSI: %v", err)
	}
}

func TestCertifyBuildsExecutionCertificate(t *testing.T) {
	t.Parallel()
	ws := workload.WriteSkew()
	res, err := Certify(ws.History, depgraph.SI, Options{NoInit: true, Budget: 100000, BuildExecution: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Execution == nil {
		t.Fatal("no execution certificate")
	}
	if err := res.Execution.IsSI(); err != nil {
		t.Errorf("certificate outside ExecSI: %v", err)
	}
}

func TestCertifyAddsInit(t *testing.T) {
	t.Parallel()
	// A single read of value 0 from nowhere: member only with init.
	h := model.NewHistory(model.Session{ID: "s", Transactions: []model.Transaction{
		model.NewTransaction("T", model.Read("x", 0)),
	}})
	with := certify(t, h, depgraph.SER)
	if !with.Member {
		t.Error("read of initial value should be serializable with init")
	}
	without := certifyNoInit(t, h, depgraph.SER)
	if without.Member {
		t.Error("read of unwritten value certified without init")
	}
	// Reading a value nobody writes is never certifiable.
	h9 := model.NewHistory(model.Session{ID: "s", Transactions: []model.Transaction{
		model.NewTransaction("T", model.Read("x", 9)),
	}})
	if certify(t, h9, depgraph.SER).Member {
		t.Error("read of value 9 certified with init writing 0")
	}
}

func TestCertifyINTViolation(t *testing.T) {
	t.Parallel()
	h := model.NewHistory(model.Session{ID: "s", Transactions: []model.Transaction{
		model.NewTransaction("T", model.Write("x", 1), model.Read("x", 2)),
	}})
	for _, m := range []depgraph.Model{depgraph.SER, depgraph.SI, depgraph.PSI} {
		if certify(t, h, m).Member {
			t.Errorf("%v accepted an INT-violating history", m)
		}
	}
}

func TestCertifyInvalidHistory(t *testing.T) {
	t.Parallel()
	h := model.NewHistory(model.Session{ID: "s", Transactions: []model.Transaction{
		model.NewTransaction("T"),
	}})
	if _, err := Certify(h, depgraph.SI, Options{NoInit: true, Budget: 10}); err == nil {
		t.Error("empty transaction accepted")
	}
}

func TestCertifyBudget(t *testing.T) {
	t.Parallel()
	// Many writers of one object with identical final values force WR
	// branching and WW permutations: exhaust a tiny budget.
	var sessions []model.Session
	for i := 0; i < 6; i++ {
		sessions = append(sessions, model.Session{
			ID: string(rune('a' + i)),
			Transactions: []model.Transaction{
				model.NewTransaction("w", model.Write("x", 1), model.Write("x", model.Value(i))),
			},
		})
	}
	sessions = append(sessions, model.Session{ID: "r", Transactions: []model.Transaction{
		model.NewTransaction("r", model.Read("x", 3)),
	}})
	h := model.NewHistory(sessions...)
	_, err := Certify(h, depgraph.SER, Options{Budget: 1})
	if !errors.Is(err, ErrBudgetExceeded) {
		// The first candidate may already be a member; only fail on
		// unexpected errors.
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
}

func TestCertifyWRBranching(t *testing.T) {
	t.Parallel()
	// Two writers write the same value 7; a reader reads 7. Exactly
	// one WR assignment is consistent with serializability given the
	// extra ordering constraints; the certifier must find it.
	h := model.NewHistory(
		model.Session{ID: "a", Transactions: []model.Transaction{
			model.NewTransaction("W1", model.Write("x", 7)),
			model.NewTransaction("R1", model.Read("x", 7), model.Read("y", 5)),
		}},
		model.Session{ID: "b", Transactions: []model.Transaction{
			model.NewTransaction("W2", model.Write("x", 7), model.Write("y", 5)),
		}},
	)
	res := certify(t, h, depgraph.SER)
	if !res.Member {
		t.Fatal("history should be serializable")
	}
	if res.Examined < 1 {
		t.Error("no candidates examined")
	}
}

func TestMonotonicityAcrossModels(t *testing.T) {
	t.Parallel()
	// HistSER ⊆ HistSI ⊆ HistPSI on random histories.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		h := workload.RandomPlausibleHistory(rng, workload.RandomConfig{
			Sessions: 2, TxPerSession: 2, OpsPerTx: 2, Objects: 2,
		})
		ser := certify(t, h, depgraph.SER).Member
		si := certify(t, h, depgraph.SI).Member
		psi := certify(t, h, depgraph.PSI).Member
		if ser && !si {
			t.Fatalf("HistSER ⊄ HistSI:\n%v", h)
		}
		if si && !psi {
			t.Fatalf("HistSI ⊄ HistPSI:\n%v", h)
		}
	}
}

// TestCharacterisationsAgainstBruteForce is the executable form of
// Theorems 8, 9 and 21: on random small histories, the graph-search
// certifier (dependency-graph characterisations) agrees exactly with
// brute-force enumeration of abstract executions (axiomatic
// definitions), in both directions.
func TestCharacterisationsAgainstBruteForce(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(99))
	trials := 0
	agreeSI, agreePSI, agreeSER := 0, 0, 0
	for trials < 140 {
		var h *model.History
		if trials%2 == 0 {
			h = workload.RandomPlausibleHistory(rng, workload.RandomConfig{
				Sessions: 2, TxPerSession: 2, OpsPerTx: 2, Objects: 2,
			})
		} else {
			h = workload.RandomHistory(rng, workload.RandomConfig{
				Sessions: 2, TxPerSession: 1, OpsPerTx: 2, Objects: 2, Values: 2,
			})
		}
		hi := h.WithInit(0)
		if hi.NumTransactions() > 4 { // keep PSI brute force feasible
			continue
		}
		trials++

		serGraph := certifyNoInit(t, hi, depgraph.SER).Member
		serBrute, err := BruteForce(hi, BruteSER, true)
		if err != nil {
			t.Fatal(err)
		}
		if serGraph != serBrute {
			t.Fatalf("Theorem 8 violated: graph=%v brute=%v\n%v", serGraph, serBrute, hi)
		}
		agreeSER++

		siGraph := certifyNoInit(t, hi, depgraph.SI).Member
		siBrute, err := BruteForce(hi, BruteSI, true)
		if err != nil {
			t.Fatal(err)
		}
		if siGraph != siBrute {
			t.Fatalf("Theorem 9 violated: graph=%v brute=%v\n%v", siGraph, siBrute, hi)
		}
		agreeSI++

		psiGraph := certifyNoInit(t, hi, depgraph.PSI).Member
		psiBrute, err := BruteForce(hi, BrutePSI, true)
		if err != nil {
			t.Fatal(err)
		}
		if psiGraph != psiBrute {
			t.Fatalf("Theorem 21 violated: graph=%v brute=%v\n%v", psiGraph, psiBrute, hi)
		}
		agreePSI++
	}
	if agreeSER == 0 || agreeSI == 0 || agreePSI == 0 {
		t.Error("no comparisons performed")
	}
}

// TestBruteForceOnFigures cross-checks the brute-force checker itself
// on the paper's examples.
func TestBruteForceOnFigures(t *testing.T) {
	t.Parallel()
	for _, ex := range workload.Examples() {
		ex := ex
		if ex.History.NumTransactions() > maxBrutePSI {
			continue
		}
		t.Run(ex.Name, func(t *testing.T) {
			t.Parallel()
			ser, err := BruteForce(ex.History, BruteSER, brutePin(ex.History))
			if err != nil {
				t.Fatal(err)
			}
			si, err := BruteForce(ex.History, BruteSI, brutePin(ex.History))
			if err != nil {
				t.Fatal(err)
			}
			psi, err := BruteForce(ex.History, BrutePSI, brutePin(ex.History))
			if err != nil {
				t.Fatal(err)
			}
			if ser != ex.InSER || si != ex.InSI || psi != ex.InPSI {
				t.Errorf("brute force = SER %v / SI %v / PSI %v, want %v/%v/%v",
					ser, si, psi, ex.InSER, ex.InSI, ex.InPSI)
			}
		})
	}
}

func TestBruteForceSizeLimits(t *testing.T) {
	t.Parallel()
	var sessions []model.Session
	for i := 0; i < maxBruteSER+1; i++ {
		sessions = append(sessions, model.Session{ID: string(rune('a' + i)), Transactions: []model.Transaction{
			model.NewTransaction("w", model.Write("x", model.Value(i))),
		}})
	}
	h := model.NewHistory(sessions...)
	if _, err := BruteForce(h, BruteSER, false); err == nil {
		t.Error("oversized history accepted for brute-force SER")
	}
	if _, err := BruteForce(h, BruteSI, false); err == nil {
		t.Error("oversized history accepted for brute-force SI")
	}
	if _, err := BruteForce(h, BrutePSI, false); err == nil {
		t.Error("oversized history accepted for brute-force PSI")
	}
	if _, err := BruteForce(h, BruteInvalid, false); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestBruteForceModelString(t *testing.T) {
	t.Parallel()
	if BruteSER.String() != "SER" || BruteSI.String() != "SI" || BrutePSI.String() != "PSI" {
		t.Error("Model strings broken")
	}
}

func TestCertifySessionOrderMatters(t *testing.T) {
	t.Parallel()
	// A session reading stale data after writing: T1 writes x=1; then
	// T2 (same session) reads x=0. SESSION forces T2 to see T1, so no
	// model admits it.
	h := model.NewHistory(
		model.Session{ID: "init", Transactions: []model.Transaction{
			model.NewTransaction("init", model.Write("x", 0)),
		}},
		model.Session{ID: "s", Transactions: []model.Transaction{
			model.NewTransaction("T1", model.Write("x", 1)),
			model.NewTransaction("T2", model.Read("x", 0)),
		}},
	)
	for _, m := range []depgraph.Model{depgraph.SER, depgraph.SI, depgraph.PSI} {
		if certifyNoInit(t, h, m).Member {
			t.Errorf("%v accepted a session-order violation", m)
		}
	}
	// The same two transactions in different sessions are fine under
	// every model (T2 just has an older snapshot).
	h2 := model.NewHistory(
		model.Session{ID: "init", Transactions: []model.Transaction{
			model.NewTransaction("init", model.Write("x", 0)),
		}},
		model.Session{ID: "a", Transactions: []model.Transaction{
			model.NewTransaction("T1", model.Write("x", 1)),
		}},
		model.Session{ID: "b", Transactions: []model.Transaction{
			model.NewTransaction("T2", model.Read("x", 0)),
		}},
	)
	for _, m := range []depgraph.Model{depgraph.SER, depgraph.SI, depgraph.PSI} {
		if !certifyNoInit(t, h2, m).Member {
			t.Errorf("%v rejected a stale-but-legal read", m)
		}
	}
}

// TestRejectionExplanation: when the dependency extension is fully
// determined (no branching), a negative verdict's explanation is
// definitive and carries the candidate graph, whose Witness pinpoints
// the forbidden cycle.
func TestRejectionExplanation(t *testing.T) {
	t.Parallel()
	lf := workload.LongFork()
	res := certifyNoInit(t, lf.History, depgraph.SI)
	if res.Member {
		t.Fatal("long fork certified SI")
	}
	if res.Examined != 1 {
		t.Fatalf("expected a fully determined search, examined = %d", res.Examined)
	}
	if res.Explain == nil || !res.Explain.Definitive || res.Explain.Graph == nil {
		t.Fatalf("no definitive rejection graph: %v", res.Explain)
	}
	cyc := res.Explain.Graph.Witness(depgraph.SI)
	if len(cyc) < 2 {
		t.Errorf("witness cycle = %v", cyc)
	}
	// Members carry no explanation.
	psi := certifyNoInit(t, lf.History, depgraph.PSI)
	if !psi.Member || psi.Explain != nil {
		t.Error("member result should have nil Explain")
	}
}

// TestCertifyAll runs the multi-model certification.
func TestCertifyAll(t *testing.T) {
	t.Parallel()
	ws := workload.WriteSkew()
	models := []depgraph.Model{depgraph.SER, depgraph.SI, depgraph.PSI, depgraph.PC, depgraph.GSI}
	out, err := CertifyAll(ws.History, models, Options{NoInit: true, PinInit: true, Budget: 100000})
	if err != nil {
		t.Fatal(err)
	}
	want := map[depgraph.Model]bool{
		depgraph.SER: false, depgraph.SI: true, depgraph.PSI: true,
		depgraph.PC: true, depgraph.GSI: true,
	}
	for m, w := range want {
		res, ok := out[m]
		if !ok || res == nil {
			t.Fatalf("missing result for %v", m)
		}
		if res.Member != w {
			t.Errorf("%v = %v, want %v", m, res.Member, w)
		}
	}
	// An invalid model propagates an error but keeps other results.
	if _, err := CertifyAll(ws.History, []depgraph.Model{depgraph.Model(99)}, Options{}); err == nil {
		t.Error("invalid model accepted")
	}
}

// TestCertifyTooManyWriters: the WW search is capped at 64 writers per
// object; beyond that the certifier reports an error instead of
// silently failing.
func TestCertifyTooManyWriters(t *testing.T) {
	t.Parallel()
	var sessions []model.Session
	for i := 0; i < 65; i++ {
		sessions = append(sessions, model.Session{
			ID: fmt.Sprintf("s%d", i),
			Transactions: []model.Transaction{
				model.NewTransaction(fmt.Sprintf("w%d", i), model.Write("x", model.Value(i))),
			},
		})
	}
	h := model.NewHistory(sessions...)
	if _, err := Certify(h, depgraph.SI, Options{NoInit: true, Budget: 10}); err == nil {
		t.Error("65 writers accepted")
	}
}

// TestClassify names the anomaly class of each canonical history.
func TestClassify(t *testing.T) {
	t.Parallel()
	staleSession := model.NewHistory(
		model.Session{ID: model.InitTransactionID, Transactions: []model.Transaction{
			model.NewTransaction("init", model.Write("x", 0)),
		}},
		model.Session{ID: "s", Transactions: []model.Transaction{
			model.NewTransaction("T1", model.Write("x", 1)),
			model.NewTransaction("T2", model.Read("x", 0)),
		}},
	)
	unreadable := model.NewHistory(model.Session{ID: "s", Transactions: []model.Transaction{
		model.NewTransaction("T", model.Read("x", 99)),
	}})
	tests := []struct {
		name string
		h    *model.History
		want Anomaly
	}{
		{"serializable", workload.SessionGuarantees().History, Serializable},
		{"write skew", workload.WriteSkew().History, WriteSkew},
		{"long fork", workload.LongFork().History, LongFork},
		{"lost update", workload.LostUpdate().History, LostUpdate},
		{"stale session", staleSession, StaleSessionRead},
		{"inconsistent", unreadable, Inconsistent},
	}
	for _, tc := range tests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			pin := brutePin(tc.h)
			rep, err := Classify(tc.h, Options{NoInit: true, PinInit: pin, Budget: 1_000_000})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Anomaly != tc.want {
				t.Errorf("Anomaly = %v, want %v (membership %v)", rep.Anomaly, tc.want, rep.Membership)
			}
			if len(rep.Results) != 5 {
				t.Errorf("results for %d models", len(rep.Results))
			}
		})
	}
}
