package robustness_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sian/internal/check"
	"sian/internal/chopping"
	"sian/internal/depgraph"
	"sian/internal/model"
	. "sian/internal/robustness"
	"sian/internal/workload"
)

// siRobust and psiRobust run the two static checks, failing the test
// on an inconclusive answer.
func siRobust(t *testing.T, app App) (*chopping.Witness, bool) {
	t.Helper()
	w, err := CheckSIRobust(app)
	if err != nil {
		t.Fatal(err)
	}
	return w, w == nil
}

func psiRobust(t *testing.T, app App) (*chopping.Witness, bool) {
	t.Helper()
	w, err := CheckPSIRobust(app)
	if err != nil {
		t.Fatal(err)
	}
	return w, w == nil
}

func TestBuildStatic(t *testing.T) {
	t.Parallel()
	app := NewApp(
		SessionSpec{Name: "s1", Txs: []TxSpec{
			NewTxSpec("t1", []model.Obj{"x"}, []model.Obj{"y"}),
			NewTxSpec("t2", []model.Obj{"y"}, nil),
		}},
		SessionSpec{Name: "s2", Txs: []TxSpec{
			NewTxSpec("t3", nil, []model.Obj{"x", "y"}),
		}},
	)
	g := BuildStatic(app)
	if g.N() != 3 || g.Label(0) != "t1" || g.Label(2) != "t3" {
		t.Fatalf("labels = %v %v %v", g.Label(0), g.Label(1), g.Label(2))
	}
	if !g.HasEdge(0, 1, chopping.KindSuccessor) || g.HasEdge(1, 0, chopping.KindSuccessor) || g.HasEdge(0, 2, chopping.KindSuccessor) {
		t.Error("SO edges wrong")
	}
	// t3 writes y which t2 reads: WR t3→t2; t1 writes y too: WW both
	// directions between t1 and t3; t1 reads x which t3 writes: RW
	// t1→t3, which is not vulnerable since both write y.
	if !g.HasEdge(2, 1, chopping.KindWR) {
		t.Error("missing WR t3→t2")
	}
	if !g.HasEdge(0, 2, chopping.KindWW) || !g.HasEdge(2, 0, chopping.KindWW) {
		t.Error("missing symmetric WW t1↔t3")
	}
	if g.HasEdge(0, 2, chopping.KindRW) {
		t.Error("RW t1→t3 between write-conflicting transactions kept")
	}
	// Same-session pairs never get conflict edges.
	if g.HasEdge(0, 1, chopping.KindWR) || g.HasEdge(1, 0, chopping.KindRW) {
		t.Error("same-session conflict edges present")
	}
	if w := (&chopping.Witness{Cycle: chopping.Cycle{{From: 0, To: 2, Kind: chopping.KindWW}, {From: 2, To: 0, Kind: chopping.KindRW}}, Graph: g}); w.String() != "t1 -WW-> t3 -RW*-> t1" {
		t.Errorf("witness renders as %q", w)
	}
}

func TestWriteSkewAppNotRobust(t *testing.T) {
	t.Parallel()
	w, robust := siRobust(t, workload.WriteSkewApp())
	if robust {
		t.Fatal("write-skew app reported robust against SI")
	}
	if w == nil {
		t.Fatal("no witness")
	}
	s := w.String()
	if !strings.Contains(s, "RW") {
		t.Errorf("witness = %q", s)
	}
}

func TestWriteSkewAppFixedRobust(t *testing.T) {
	t.Parallel()
	if w, robust := siRobust(t, workload.WriteSkewAppFixed()); !robust {
		t.Fatalf("materialised-conflict fix not robust: %v", w)
	}
}

func TestTransferAppRobust(t *testing.T) {
	t.Parallel()
	if w, robust := siRobust(t, workload.TransferApp()); !robust {
		t.Fatalf("transfer app not robust against SI: %v", w)
	}
	if w, robust := psiRobust(t, workload.TransferApp()); !robust {
		t.Fatalf("transfer app not robust against PSI: %v", w)
	}
}

func TestLongForkAppPSIRobustness(t *testing.T) {
	t.Parallel()
	app := workload.LongForkApp()
	// Robust against SI (no adjacent anti-dependencies possible)…
	if w, robust := siRobust(t, app); !robust {
		t.Errorf("long-fork app not robust against SI: %v", w)
	}
	// …but not against parallel SI towards SI.
	w, robust := psiRobust(t, app)
	if robust {
		t.Fatal("long-fork app reported robust against PSI")
	}
	if w == nil || w.String() == "" {
		t.Error("missing witness")
	}
}

func TestClassifyFigures(t *testing.T) {
	t.Parallel()
	tests := []struct {
		ex   *workload.Example
		want Classification
	}{
		{workload.SessionGuarantees(), Classification{SER: true, SI: true, PSI: true}},
		{workload.LostUpdate(), Classification{}},
		{workload.WriteSkew(), Classification{SI: true, PSI: true}},
		{workload.LongFork(), Classification{PSI: true}},
	}
	for _, tc := range tests {
		t.Run(tc.ex.Name, func(t *testing.T) {
			if got := Classify(tc.ex.Graph); got != tc.want {
				t.Errorf("Classify = %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestClassificationString(t *testing.T) {
	t.Parallel()
	if s := (Classification{}).String(); s != "none" {
		t.Errorf("empty classification = %q", s)
	}
	s := Classification{SER: true, SI: true, PSI: true}.String()
	for _, want := range []string{"SER", "SI", "PSI"} {
		if !strings.Contains(s, want) {
			t.Errorf("classification %q missing %q", s, want)
		}
	}
}

// TestTheorem19 identifies write skew as GraphSI \ GraphSER with a
// witness, and rejects lost update and serializable graphs.
func TestTheorem19(t *testing.T) {
	t.Parallel()
	ws := workload.WriteSkew()
	in, witness := Theorem19(ws.Graph)
	if !in {
		t.Fatal("write skew not in GraphSI \\ GraphSER")
	}
	if len(witness) == 0 {
		t.Error("no witness cycle")
	}
	if in, _ := Theorem19(workload.LostUpdate().Graph); in {
		t.Error("lost update misclassified")
	}
	if in, _ := Theorem19(workload.SessionGuarantees().Graph); in {
		t.Error("serializable example misclassified")
	}
}

// TestTheorem22 identifies the long fork as GraphPSI \ GraphSI.
func TestTheorem22(t *testing.T) {
	t.Parallel()
	lf := workload.LongFork()
	in, witness := Theorem22(lf.Graph)
	if !in {
		t.Fatal("long fork not in GraphPSI \\ GraphSI")
	}
	if len(witness) == 0 {
		t.Error("no witness cycle")
	}
	if in, _ := Theorem22(workload.WriteSkew().Graph); in {
		t.Error("write skew misclassified (it is in GraphSI)")
	}
	if in, _ := Theorem22(workload.LostUpdate().Graph); in {
		t.Error("lost update misclassified (outside GraphPSI)")
	}
}

// TestSIRobustSoundnessRandomised: when the static analysis reports an
// application robust against SI, every SI-certifiable history it can
// produce must also be SER-certifiable. We generate histories
// syntactically conforming to the app's read/write sets and check the
// implication.
func TestSIRobustSoundnessRandomised(t *testing.T) {
	t.Parallel()
	app := workload.TransferApp() // robust
	if _, robust := siRobust(t, app); !robust {
		t.Skip("app unexpectedly not robust")
	}
	rng := rand.New(rand.NewSource(5))
	var specs []TxSpec
	for _, s := range app.Sessions {
		specs = append(specs, s.Txs...)
	}
	checked := 0
	for trial := 0; trial < 60; trial++ {
		h := randomAppHistory(rng, specs)
		res, err := check.Certify(h, depgraph.SI, check.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Member {
			continue
		}
		checked++
		ser, err := check.Certify(h, depgraph.SER, check.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !ser.Member {
			t.Fatalf("robust app produced SI-only history:\n%v", h)
		}
	}
	if checked == 0 {
		t.Error("no SI-certifiable app histories generated")
	}
}

// randomAppHistory builds a history whose transactions conform to the
// given specs (reads/writes within the declared sets), with unique
// write values and arbitrary read values drawn from plausible writes.
func randomAppHistory(rng *rand.Rand, specs []TxSpec) *model.History {
	var sessions []model.Session
	next := model.Value(1)
	written := map[model.Obj][]model.Value{}
	for i, spec := range specs {
		var ops []model.Op
		for _, x := range spec.Reads {
			vals := written[x]
			v := model.Value(0)
			if len(vals) > 0 && rng.Intn(2) == 0 {
				v = vals[rng.Intn(len(vals))]
			}
			ops = append(ops, model.Read(x, v))
		}
		for _, x := range spec.Writes {
			ops = append(ops, model.Write(x, next))
			written[x] = append(written[x], next)
			next++
		}
		if len(ops) == 0 {
			continue
		}
		sessions = append(sessions, model.Session{
			ID:           spec.Name,
			Transactions: []model.Transaction{model.NewTransaction(spec.Name, ops...)},
		})
		_ = i
	}
	return model.NewHistory(sessions...)
}

func TestSingleTxApp(t *testing.T) {
	t.Parallel()
	app := SingleTxApp(
		NewTxSpec("a", nil, []model.Obj{"x"}),
		NewTxSpec("b", []model.Obj{"x"}, nil),
	)
	if len(app.Sessions) != 2 || len(app.Sessions[0].Txs) != 1 {
		t.Fatalf("app = %+v", app)
	}
	g := BuildStatic(app)
	if g.HasEdge(0, 1, chopping.KindSuccessor) || g.HasEdge(1, 0, chopping.KindSuccessor) {
		t.Error("single-tx sessions should have no SO edge")
	}
	if !g.HasEdge(0, 1, chopping.KindWR) || !g.HasEdge(1, 0, chopping.KindRW) {
		t.Error("conflict edges missing")
	}
}

func TestNewTxSpecCopies(t *testing.T) {
	t.Parallel()
	reads := []model.Obj{"x"}
	spec := NewTxSpec("t", reads, nil)
	reads[0] = "mutated"
	if spec.Reads[0] != "x" {
		t.Error("NewTxSpec aliases caller slice")
	}
}

// TestSmallBank reproduces the classical SI-robustness case study
// (Alomari et al., ICDE 2008): the SmallBank application is not robust
// against SI — the witness is the textbook dangerous structure
// Balance -RW-> WriteCheck -RW-> TransactSavings -WR-> Balance — and
// the materialised-conflict fix restores robustness.
func TestSmallBank(t *testing.T) {
	t.Parallel()
	for _, customers := range []int{1, 2, 3} {
		customers := customers
		t.Run(fmt.Sprintf("customers=%d", customers), func(t *testing.T) {
			t.Parallel()
			w, robust := siRobust(t, workload.SmallBankApp(customers, false))
			if robust {
				t.Fatal("SmallBank reported robust against SI")
			}
			s := w.String()
			for _, want := range []string{"WriteCheck", "TransactSavings"} {
				if !strings.Contains(s, want) {
					t.Errorf("witness %q misses the %s race", s, want)
				}
			}
			if _, robust := siRobust(t, workload.SmallBankApp(customers, true)); !robust {
				t.Error("materialised-conflict fix did not restore robustness")
			}
		})
	}
}

// TestSmallBankPSI: the same app under the PSI→SI analysis. With
// multiple customers the read-only Balance transactions can observe
// independent writers in different orders (long-fork shapes), so the
// unfixed app is not robust there either.
func TestSmallBankPSI(t *testing.T) {
	t.Parallel()
	w, robust := psiRobust(t, workload.SmallBankApp(2, false))
	if robust {
		t.Skip("PSI analysis found no dangerous cycle; nothing to assert")
	}
	if w == nil {
		t.Fatal("not robust but no witness")
	}
}
