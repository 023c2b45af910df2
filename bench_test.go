// Benchmarks regenerating the paper's experiments (see EXPERIMENTS.md
// for the experiment index E1–E19 and the paper-vs-measured records).
// Run with:
//
//	go test -bench=. -benchmem .
package sian_test

import (
	"fmt"
	"testing"
	"time"

	"sian/internal/check"
	"sian/internal/chopping"
	"sian/internal/core"
	"sian/internal/depgraph"
	"sian/internal/engine"
	"sian/internal/model"
	"sian/internal/robustness"
	"sian/internal/workload"
)

// certOpts are the standard options for certifying figure histories
// (they carry their own init transaction).
var certOpts = check.Options{NoInit: true, PinInit: true, Budget: 1_000_000}

// BenchmarkFig2aSessionGuarantees (E1): certification of the Figure
// 2(a) history under all three models.
func BenchmarkFig2aSessionGuarantees(b *testing.B) {
	benchCertifyExample(b, workload.SessionGuarantees())
}

// BenchmarkFig2bLostUpdate (E2): the lost-update anomaly is rejected
// by every model.
func BenchmarkFig2bLostUpdate(b *testing.B) {
	benchCertifyExample(b, workload.LostUpdate())
}

// BenchmarkFig2cLongFork (E3): the long fork separates PSI from SI.
func BenchmarkFig2cLongFork(b *testing.B) {
	benchCertifyExample(b, workload.LongFork())
}

// BenchmarkFig2dWriteSkew (E4): write skew separates SI from SER.
func BenchmarkFig2dWriteSkew(b *testing.B) {
	benchCertifyExample(b, workload.WriteSkew())
}

func benchCertifyExample(b *testing.B, ex *workload.Example) {
	b.Helper()
	models := []depgraph.Model{depgraph.SER, depgraph.SI, depgraph.PSI, depgraph.PC, depgraph.GSI}
	want := []bool{ex.InSER, ex.InSI, ex.InPSI, ex.InPC, ex.InGSI}
	for i, m := range models {
		m, want := m, want[i]
		b.Run(m.String(), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				res, err := check.Certify(ex.History, m, certOpts)
				if err != nil {
					b.Fatal(err)
				}
				if res.Member != want {
					b.Fatalf("%s under %v = %v, want %v", ex.Name, m, res.Member, want)
				}
			}
		})
	}
}

// serialHistory builds a history of n serial read-modify-write
// transactions over k objects (a fully chained workload: one witness
// graph, no search branching). Used for scaling benchmarks.
func serialHistory(n, k int) *model.History {
	sessions := make([]model.Session, 0, n+1)
	initOps := make([]model.Op, 0, k)
	last := make([]model.Value, k)
	for i := 0; i < k; i++ {
		initOps = append(initOps, model.Write(obj(i), 0))
	}
	sessions = append(sessions, model.Session{
		ID:           model.InitTransactionID,
		Transactions: []model.Transaction{model.NewTransaction(model.InitTransactionID, initOps...)},
	})
	for t := 0; t < n; t++ {
		x := t % k
		ops := []model.Op{
			model.Read(obj(x), last[x]),
			model.Write(obj(x), model.Value(t+1)),
		}
		last[x] = model.Value(t + 1)
		sessions = append(sessions, model.Session{
			ID:           fmt.Sprintf("s%d", t),
			Transactions: []model.Transaction{model.NewTransaction(fmt.Sprintf("t%d", t), ops...)},
		})
	}
	return model.NewHistory(sessions...)
}

func obj(i int) model.Obj { return model.Obj(fmt.Sprintf("k%d", i)) }

// BenchmarkCheckScaling (E19): certifier cost as the history grows.
func BenchmarkCheckScaling(b *testing.B) {
	for _, n := range []int{10, 25, 50, 100} {
		h := serialHistory(n, 4)
		b.Run(fmt.Sprintf("txns=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := check.Certify(h, depgraph.SI, certOpts)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Member {
					b.Fatal("serial history rejected")
				}
			}
		})
	}
}

// BenchmarkBuildExecution (E6): the Theorem 10(i) soundness
// construction on witness graphs of growing size.
func BenchmarkBuildExecution(b *testing.B) {
	for _, n := range []int{10, 25, 50, 100} {
		h := serialHistory(n, 4)
		res, err := check.Certify(h, depgraph.SI, certOpts)
		if err != nil || !res.Member {
			b.Fatalf("setup: %v member=%v", err, res != nil && res.Member)
		}
		g := res.Graph
		b.Run(fmt.Sprintf("txns=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildExecution(g, depgraph.SI); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLeastSolution (E7): the Lemma 15 closed-form solution.
func BenchmarkLeastSolution(b *testing.B) {
	for _, n := range []int{25, 100} {
		h := serialHistory(n, 4)
		res, err := check.Certify(h, depgraph.SI, certOpts)
		if err != nil || !res.Member {
			b.Fatal("setup failed")
		}
		g := res.Graph
		b.Run(fmt.Sprintf("txns=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sol := core.LeastSolution(g, depgraph.SI, nil)
				if sol.CO.IsEmpty() {
					b.Fatal("empty solution")
				}
			}
		})
	}
}

// BenchmarkSCGFig5 (E9) and BenchmarkSCGFig6 (E10): the static
// chopping analysis on the paper's program sets.
func BenchmarkSCGFig5(b *testing.B) {
	programs := workload.Fig5Programs()
	for i := 0; i < b.N; i++ {
		v, err := chopping.CheckStatic(programs, chopping.SICritical)
		if err != nil {
			b.Fatal(err)
		}
		if v.OK {
			b.Fatal("Figure 5 chopping accepted")
		}
	}
}

func BenchmarkSCGFig6(b *testing.B) {
	programs := workload.Fig6Programs()
	for i := 0; i < b.N; i++ {
		v, err := chopping.CheckStatic(programs, chopping.SICritical)
		if err != nil {
			b.Fatal(err)
		}
		if !v.OK {
			b.Fatal("Figure 6 chopping rejected")
		}
	}
}

// BenchmarkSCGScaling (E19): static chopping analysis cost as the
// number of concurrent transfer programs grows, and on 40 one-piece
// shared-counter programs, which the walk pre-pass answers.
func BenchmarkSCGScaling(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		programs := append(chopping.Replicate(workload.TransferChopped(), k),
			workload.Lookup1(), workload.Lookup2())
		b.Run(fmt.Sprintf("programs=%d", k+2), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := chopping.CheckStatic(programs, chopping.SICritical); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("counter-40", func(b *testing.B) {
		programs := workload.CounterPrograms(40)
		for i := 0; i < b.N; i++ {
			if v, err := chopping.CheckStatic(programs, chopping.SICritical); err != nil || !v.OK {
				b.Fatalf("counter-40 chopping: %v", err)
			}
		}
	})
}

// BenchmarkDCGFig4 (E8): the dynamic chopping check of Theorem 16 on
// the Figure 4 graphs.
func BenchmarkDCGFig4(b *testing.B) {
	figs := workload.Fig4Graphs()
	b.Run("G1-critical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := chopping.CheckDynamic(figs.G1)
			if err != nil {
				b.Fatal(err)
			}
			if res.Critical == nil {
				b.Fatal("G1 should have a critical cycle")
			}
		}
	})
	b.Run("G2-spliceable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := chopping.CheckDynamic(figs.G2)
			if err != nil {
				b.Fatal(err)
			}
			if res.Spliced == nil {
				b.Fatal("G2 should splice")
			}
		}
	})
}

// BenchmarkRobustnessSER (E12): the §6.1 static analysis.
func BenchmarkRobustnessSER(b *testing.B) {
	apps := map[string]struct {
		app    robustness.App
		robust bool
	}{
		"writeSkew":  {workload.WriteSkewApp(), false},
		"fixed":      {workload.WriteSkewAppFixed(), true},
		"transfer":   {workload.TransferApp(), true},
		"counter-40": {workload.CounterApp(40), true},
	}
	for name, tc := range apps {
		tc := tc
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if w, err := robustness.CheckSIRobust(tc.app); err != nil || (w == nil) != tc.robust {
					b.Fatalf("robust = %v (%v), want %v", w == nil, err, tc.robust)
				}
			}
		})
	}
}

// BenchmarkRobustnessPSI (E13): the §6.2 static analysis.
func BenchmarkRobustnessPSI(b *testing.B) {
	apps := map[string]struct {
		app    robustness.App
		robust bool
	}{
		"longFork": {workload.LongForkApp(), false},
		"transfer": {workload.TransferApp(), true},
	}
	for name, tc := range apps {
		tc := tc
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if w, err := robustness.CheckPSIRobust(tc.app); err != nil || (w == nil) != tc.robust {
					b.Fatalf("robust = %v (%v), want %v", w == nil, err, tc.robust)
				}
			}
		})
	}
}

// BenchmarkEngineCommit (E18): raw single-session commit throughput of
// the three engines.
func BenchmarkEngineCommit(b *testing.B) {
	for _, kind := range []engine.Kind{engine.SI, engine.SER, engine.PSI, engine.SSI} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			db, err := engine.New(kind, engine.Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			if err := db.Initialize(map[model.Obj]model.Value{"x": 0}); err != nil {
				b.Fatal(err)
			}
			s := db.Session("bench")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := s.Transact(func(tx *engine.Tx) error {
					v, err := tx.Read("x")
					if err != nil {
						return err
					}
					return tx.Write("x", v+1)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChoppingSpeedup (E17): the §1/§5 motivation — chopping a
// multi-account transfer into per-account pieces reduces conflict
// aborts under SI. The bench reports conflicts-per-commit for the
// monolithic and chopped variants.
func BenchmarkChoppingSpeedup(b *testing.B) {
	for _, kind := range []engine.Kind{engine.SI, engine.SER} {
		for _, chopped := range []bool{false, true} {
			kind, chopped := kind, chopped
			name := fmt.Sprintf("%v/monolithic", kind)
			if chopped {
				name = fmt.Sprintf("%v/chopped", kind)
			}
			b.Run(name, func(b *testing.B) {
				var commits, conflicts int64
				for i := 0; i < b.N; i++ {
					db, err := engine.New(kind, engine.Config{})
					if err != nil {
						b.Fatal(err)
					}
					out, err := workload.RunTransfers(db, workload.TransferConfig{
						Sessions: 4, Transfers: 5, Accounts: 4, Hops: 4,
						Chopped: chopped, Seed: int64(i),
						Think: 200 * time.Microsecond,
					})
					db.Close()
					if err != nil {
						b.Fatal(err)
					}
					commits += out.Commits
					conflicts += out.Conflicts
				}
				if commits > 0 {
					b.ReportMetric(float64(conflicts)/float64(commits), "conflicts/commit")
				}
			})
		}
	}
}

// BenchmarkEngineCertifyPipeline (E18): the full loop — run a
// register workload, record the history, certify it against the
// engine's model.
func BenchmarkEngineCertifyPipeline(b *testing.B) {
	kinds := []struct {
		kind engine.Kind
		m    depgraph.Model
	}{{engine.SI, depgraph.SI}, {engine.SER, depgraph.SER}, {engine.PSI, depgraph.PSI}, {engine.SSI, depgraph.SER}}
	for _, k := range kinds {
		k := k
		b.Run(k.kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db, err := engine.New(k.kind, engine.Config{})
				if err != nil {
					b.Fatal(err)
				}
				h, err := workload.RunRegisters(db, workload.RegistersConfig{
					Sessions: 3, TxPerSession: 5, OpsPerTx: 2, Objects: 3, Seed: int64(i),
				})
				db.Close()
				if err != nil {
					b.Fatal(err)
				}
				res, err := check.Certify(h, k.m, check.Options{NoInit: true, PinInit: true, Budget: 5_000_000})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Member {
					b.Fatalf("%v history rejected", k.kind)
				}
			}
		})
	}
}

// BenchmarkWriteSkewEngines (E25): the cost of preventing write skew —
// stage the Figure 2(d) interleaving (two overlapping withdrawals)
// per round on every engine and report the anomaly rate: SI commits
// both (1 anomaly/round, no aborts); SER and SSI abort one withdrawal
// instead.
func BenchmarkWriteSkewEngines(b *testing.B) {
	stage := func(db *engine.DB, round int) (bothCommitted bool, err error) {
		a1 := model.Obj(fmt.Sprintf("a1_%d", round))
		a2 := model.Obj(fmt.Sprintf("a2_%d", round))
		if err := db.Initialize(map[model.Obj]model.Value{a1: 60, a2: 60}); err != nil {
			return false, err
		}
		t1, err := db.Session("s1").Begin("w1")
		if err != nil {
			return false, err
		}
		t2, err := db.Session("s2").Begin("w2")
		if err != nil {
			return false, err
		}
		for _, m := range []*engine.ManualTx{t1, t2} {
			if _, err := m.Read(a1); err != nil {
				m.Abort()
				return false, nil
			}
			if _, err := m.Read(a2); err != nil {
				m.Abort()
				return false, nil
			}
		}
		if err := t1.Write(a1, -40); err != nil {
			return false, err
		}
		if err := t2.Write(a2, -40); err != nil {
			return false, err
		}
		err1 := t1.Commit()
		err2 := t2.Commit()
		return err1 == nil && err2 == nil, nil
	}
	for _, kind := range []engine.Kind{engine.SI, engine.SER, engine.SSI} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			var anomalies int64
			for i := 0; i < b.N; i++ {
				db, err := engine.New(kind, engine.Config{})
				if err != nil {
					b.Fatal(err)
				}
				both, err := stage(db, i)
				db.Close()
				if err != nil {
					b.Fatal(err)
				}
				if both {
					anomalies++
				}
			}
			b.ReportMetric(float64(anomalies)/float64(b.N), "anomalies/round")
			if kind != engine.SI && anomalies > 0 {
				b.Fatalf("%v realised %d write skews", kind, anomalies)
			}
			if kind == engine.SI && anomalies != int64(b.N) {
				b.Fatalf("SI realised only %d/%d write skews", anomalies, b.N)
			}
		})
	}
}
