package workload_test

import (
	"fmt"
	"math/rand"
	"testing"

	"sian/internal/check"
	"sian/internal/chopping"
	"sian/internal/depgraph"
	"sian/internal/engine"
	"sian/internal/model"
	. "sian/internal/workload"
)

func TestExamplesWellFormed(t *testing.T) {
	t.Parallel()
	for _, ex := range Examples() {
		ex := ex
		t.Run(ex.Name, func(t *testing.T) {
			t.Parallel()
			if err := ex.History.Validate(); err != nil {
				t.Errorf("history: %v", err)
			}
			if err := ex.History.CheckInt(); err != nil {
				t.Errorf("INT: %v", err)
			}
			if err := ex.Graph.Validate(); err != nil {
				t.Errorf("graph: %v", err)
			}
			// The attached graph's membership must match the declared
			// expectations except for SER/SI upgrades: a graph is one
			// witness; the declared flags are about the history. For
			// the examples the graph is the canonical witness, so they
			// agree on SI and PSI.
			if got := ex.Graph.InModel(depgraph.SI) == nil; got != ex.InSI {
				t.Errorf("graph InSI = %v, want %v", got, ex.InSI)
			}
			if got := ex.Graph.InModel(depgraph.PSI) == nil; got != ex.InPSI {
				t.Errorf("graph InPSI = %v, want %v", got, ex.InPSI)
			}
		})
	}
}

func TestFig4GraphsValid(t *testing.T) {
	t.Parallel()
	figs := Fig4Graphs()
	for name, g := range map[string]*depgraph.Graph{"G1": figs.G1, "G2": figs.G2} {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if g.InModel(depgraph.SI) != nil {
			t.Errorf("%s should be in GraphSI", name)
		}
	}
}

func TestRandomHistoryShape(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		h := RandomHistory(rng, RandomConfig{Sessions: 3, TxPerSession: 3, OpsPerTx: 4, Objects: 3, Values: 5})
		if h.NumSessions() != 3 {
			t.Fatalf("sessions = %d", h.NumSessions())
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("invalid random history: %v", err)
		}
		for _, tr := range h.Transactions() {
			if len(tr.Ops) == 0 || len(tr.Ops) > 4 {
				t.Fatalf("ops out of range: %v", tr)
			}
		}
	}
}

func TestRandomHistoryDefaults(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(2))
	h := RandomHistory(rng, RandomConfig{})
	if h.NumSessions() == 0 {
		t.Error("defaults produced empty history")
	}
}

func TestRandomPlausibleHistoryInt(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		h := RandomPlausibleHistory(rng, RandomConfig{Sessions: 3, TxPerSession: 2, OpsPerTx: 4, Objects: 2})
		if err := h.CheckInt(); err != nil {
			t.Fatalf("plausible history violates INT: %v\n%v", err, h)
		}
	}
}

func TestRandomPlausibleHistoryUniqueWrites(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(4))
	h := RandomPlausibleHistory(rng, RandomConfig{Sessions: 4, TxPerSession: 3, OpsPerTx: 4, Objects: 2})
	seen := map[model.Value]bool{}
	for _, tr := range h.Transactions() {
		for _, op := range tr.Ops {
			if op.Kind != model.OpWrite {
				continue
			}
			if seen[op.Val] {
				t.Fatalf("duplicate written value %d", op.Val)
			}
			seen[op.Val] = true
		}
	}
}

func TestRunRegistersCertifiable(t *testing.T) {
	t.Parallel()
	for _, kind := range []engine.Kind{engine.SI, engine.SER, engine.PSI} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			db, err := engine.New(kind, engine.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			h, err := RunRegisters(db, RegistersConfig{Sessions: 3, TxPerSession: 4, OpsPerTx: 2, Objects: 3, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			var m depgraph.Model
			switch kind {
			case engine.SI:
				m = depgraph.SI
			case engine.SER:
				m = depgraph.SER
			case engine.PSI:
				m = depgraph.PSI
			}
			res, err := check.Certify(h, m, check.Options{NoInit: true, PinInit: true, Budget: 5_000_000})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Member {
				t.Errorf("%v registers history not certified", kind)
			}
		})
	}
}

func TestRunWriteSkewSERNeverAnomalous(t *testing.T) {
	t.Parallel()
	db, err := engine.New(engine.SER, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	out, err := RunWriteSkew(db, 20)
	if err != nil {
		t.Fatal(err)
	}
	if out.Anomalies != 0 {
		t.Errorf("SER engine produced %d write-skew anomalies", out.Anomalies)
	}
	if out.Rounds != 20 {
		t.Errorf("rounds = %d", out.Rounds)
	}
}

func TestRunWriteSkewSIRuns(t *testing.T) {
	t.Parallel()
	db, err := engine.New(engine.SI, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	out, err := RunWriteSkew(db, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Anomalies are timing-dependent; just check accounting. The
	// deterministic write-skew reproduction lives in the engine tests
	// via ManualTx.
	if out.Anomalies < 0 || out.Anomalies > 20 {
		t.Errorf("anomalies = %d", out.Anomalies)
	}
}

func TestStageLongFork(t *testing.T) {
	t.Parallel()
	db, err := engine.New(engine.PSI, engine.Config{ManualPropagation: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	h, err := StageLongFork(db)
	if err != nil {
		t.Fatal(err)
	}
	// The staged history is PSI but not SI (Figure 2(c)).
	psi, err := check.Certify(h, depgraph.PSI, check.Options{NoInit: true, PinInit: true, Budget: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if !psi.Member {
		t.Errorf("staged long fork not PSI-certifiable:\n%v", h)
	}
	si, err := check.Certify(h, depgraph.SI, check.Options{NoInit: true, PinInit: true, Budget: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if si.Member {
		t.Errorf("staged long fork certified SI — fork not realised:\n%v", h)
	}
}

func TestStageLongForkRequiresPSI(t *testing.T) {
	t.Parallel()
	db, err := engine.New(engine.SI, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := StageLongFork(db); err == nil {
		t.Error("non-PSI database accepted")
	}
}

func TestRunTransfersBothModes(t *testing.T) {
	t.Parallel()
	for _, chopped := range []bool{false, true} {
		chopped := chopped
		name := "monolithic"
		if chopped {
			name = "chopped"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			db, err := engine.New(engine.SI, engine.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			out, err := RunTransfers(db, TransferConfig{
				Sessions: 3, Transfers: 5, Accounts: 4, Hops: 3, Chopped: chopped, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			wantCommits := int64(3 * 5) // sessions × transfers…
			if chopped {
				wantCommits = 3 * 5 * 3 // …× hops when chopped
			}
			if out.Commits != wantCommits {
				t.Errorf("commits = %d, want %d", out.Commits, wantCommits)
			}
		})
	}
}

func TestProgramsShape(t *testing.T) {
	t.Parallel()
	if got := len(Fig5Programs()); got != 2 {
		t.Errorf("Fig5Programs = %d programs", got)
	}
	if got := len(Fig6Programs()); got != 3 {
		t.Errorf("Fig6Programs = %d programs", got)
	}
	if got := len(Fig11Programs()); got != 2 {
		t.Errorf("Fig11Programs = %d programs", got)
	}
	if got := len(Fig12Programs()); got != 4 {
		t.Errorf("Fig12Programs = %d programs", got)
	}
	tr := TransferChopped()
	if len(tr.Pieces) != 2 {
		t.Errorf("transfer pieces = %d", len(tr.Pieces))
	}
	if len(WriteSkewApp().Sessions) != 2 || len(LongForkApp().Sessions) != 4 {
		t.Error("app shapes wrong")
	}
}

// TestStageBankingChopped is the operational Figure 4: the recorded
// chopped histories are always SI, but splicing keeps SI membership
// only for per-account lookups (Figure 6), not for the atomic
// balance-sum lookup (Figure 5).
func TestStageBankingChopped(t *testing.T) {
	t.Parallel()
	for _, atomic := range []bool{true, false} {
		atomic := atomic
		name := "lookupAll"
		if !atomic {
			name = "perAccount"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			db, err := engine.New(engine.SI, engine.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			h, err := StageBankingChopped(db, atomic)
			if err != nil {
				t.Fatal(err)
			}
			opts := check.Options{NoInit: true, PinInit: true, Budget: 1_000_000}
			res, err := check.Certify(h, depgraph.SI, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Member {
				t.Fatal("chopped history itself must be SI")
			}
			spliced, err := check.Certify(h.Splice(), depgraph.SI, opts)
			if err != nil {
				t.Fatal(err)
			}
			wantSpliced := !atomic
			if spliced.Member != wantSpliced {
				t.Errorf("spliced SI membership = %v, want %v", spliced.Member, wantSpliced)
			}
			// The dynamic chopping criterion agrees: the witness graph
			// of the chopped history has a critical cycle exactly in
			// the atomic case.
			dyn, err := chopping.CheckDynamic(res.Graph)
			if err != nil {
				t.Fatal(err)
			}
			if atomic && dyn.Critical == nil {
				t.Error("no critical cycle for the Figure 5 staging")
			}
			if !atomic && dyn.Critical != nil {
				t.Errorf("unexpected critical cycle: %v", dyn.DCG.DescribeCycle(dyn.Critical))
			}
		})
	}
}

// TestChoppedProgramsCorollary18 is the end-to-end form of Corollary
// 18: for random program sets whose static chopping graph has no
// SI-critical cycle, every history the chopped application produces on
// the SI engine splices into an SI-certifiable history. (The recorded
// chopped history itself is always SI — it ran under SI.)
func TestChoppedProgramsCorollary18(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(271))
	objs := []model.Obj{"x", "y"}
	randomSets := func() []model.Obj {
		var out []model.Obj
		for _, x := range objs {
			if rng.Intn(3) == 0 {
				out = append(out, x)
			}
		}
		return out
	}
	correct, flagged := 0, 0
	for trial := 0; trial < 40; trial++ {
		nprog := 2
		var programs []chopping.Program
		for pi := 0; pi < nprog; pi++ {
			npieces := 1 + rng.Intn(2)
			var pieces []chopping.Piece
			for j := 0; j < npieces; j++ {
				reads, writes := randomSets(), randomSets()
				if len(reads) == 0 && len(writes) == 0 {
					writes = []model.Obj{objs[rng.Intn(len(objs))]}
				}
				pieces = append(pieces, chopping.NewPiece(fmt.Sprintf("p%d", j), reads, writes))
			}
			programs = append(programs, chopping.NewProgram(fmt.Sprintf("prog%d", pi), pieces...))
		}
		// Each program runs twice (in separate sessions), so the static
		// over-approximation needs two copies of every program.
		var doubled []chopping.Program
		for _, p := range programs {
			doubled = append(doubled, chopping.Replicate(p, 2)...)
		}
		verdict, err := chopping.CheckStatic(doubled, chopping.SICritical)
		if err != nil {
			t.Fatal(err)
		}
		db, err := engine.New(engine.SI, engine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		h, err := RunChoppedPrograms(db, programs, ChoppedRunConfig{Rounds: 2, Seed: int64(trial)})
		db.Close()
		if err != nil {
			t.Fatal(err)
		}
		opts := check.Options{NoInit: true, PinInit: true, Budget: 5_000_000}
		res, err := check.Certify(h, depgraph.SI, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Member {
			t.Fatalf("trial %d: chopped SI-engine history not SI:\n%v", trial, h)
		}
		if !verdict.OK {
			flagged++
			continue
		}
		correct++
		sres, err := check.Certify(h.Splice(), depgraph.SI, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !sres.Member {
			t.Fatalf("trial %d: Corollary 18 violated — SCG-correct chopping produced a non-spliceable history\nprograms: %v\nhistory:\n%v",
				trial, programs, h)
		}
	}
	if correct == 0 {
		t.Error("no SCG-correct program sets generated")
	}
	t.Logf("correct=%d flagged=%d", correct, flagged)
}

// TestStageSmallBankOverdraft: the SmallBank write skew is realisable
// under SI (combined balance goes negative) and prevented by SER and
// SSI.
func TestStageSmallBankOverdraft(t *testing.T) {
	t.Parallel()
	tests := []struct {
		kind engine.Kind
		both bool
	}{
		{engine.SI, true},
		{engine.SER, false},
		{engine.SSI, false},
	}
	for _, tc := range tests {
		tc := tc
		t.Run(tc.kind.String(), func(t *testing.T) {
			t.Parallel()
			db, err := engine.New(tc.kind, engine.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			both, total, err := StageSmallBankOverdraft(db)
			if err != nil {
				t.Fatal(err)
			}
			if both != tc.both {
				t.Errorf("both committed = %v, want %v", both, tc.both)
			}
			if tc.both && total >= 0 {
				t.Errorf("SI overdraft not realised: total = %d", total)
			}
			if !tc.both && total < 0 {
				t.Errorf("%v overdrew: total = %d", tc.kind, total)
			}
		})
	}
}

// TestRunSmallBankInvariants: the randomized SmallBank run never
// overdraws under SER or SSI; under SI overdrafts may occur (not
// asserted — timing-dependent) but accounting must hold.
func TestRunSmallBankInvariants(t *testing.T) {
	t.Parallel()
	for _, kind := range []engine.Kind{engine.SER, engine.SSI, engine.SI} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			db, err := engine.New(kind, engine.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			out, err := RunSmallBank(db, SmallBankConfig{
				Customers: 2, Sessions: 3, TxPerSession: 15, Seed: 77,
			})
			if err != nil {
				t.Fatal(err)
			}
			if kind != engine.SI && out.Overdrafts != 0 {
				t.Errorf("%v overdrafts = %d", kind, out.Overdrafts)
			}
			if out.Operations != 45 {
				t.Errorf("operations = %d", out.Operations)
			}
		})
	}
}
