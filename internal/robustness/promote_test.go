package robustness_test

import (
	"strings"
	"testing"

	"sian/internal/chopping"
	"sian/internal/model"
	. "sian/internal/robustness"
	"sian/internal/workload"
)

// mustRepairs checks app and runs the repair search from its witness,
// failing the test on an inconclusive check of app.
func mustRepairs(t *testing.T, app App, crit chopping.Criticality) []Repair {
	t.Helper()
	w, err := Check(app, crit)
	if err != nil {
		t.Fatal(err)
	}
	return Repairs(app, crit, w)
}

// TestRepairWriteSkew: the Figure 2(d) write skew is repaired by a
// single promotion — promoting either withdrawal's read of the other
// account materialises the conflict on that account and defuses both
// anti-dependencies of the cycle.
func TestRepairWriteSkew(t *testing.T) {
	t.Parallel()
	app := workload.WriteSkewApp()
	repairs := mustRepairs(t, app, chopping.SIDangerous)
	if len(repairs) == 0 {
		t.Fatal("no repair found for the write-skew app")
	}
	for _, r := range repairs {
		if len(r.Promotions) != 1 {
			t.Errorf("repair %s: %d promotions, want 1 (minimal)", r, len(r.Promotions))
		}
	}
	// Re-verify the top suggestion from scratch: apply it manually and
	// re-run the check.
	top := repairs[0].Promotions[0]
	fixed := App{}
	for _, s := range app.Sessions {
		cp := SessionSpec{Name: s.Name}
		for _, tx := range s.Txs {
			if tx.Name == top.Txs[0] {
				tx = NewTxSpec(tx.Name,
					append(append([]model.Obj(nil), tx.Reads...), top.Obj),
					append(append([]model.Obj(nil), tx.Writes...), top.Obj))
			}
			cp.Txs = append(cp.Txs, tx)
		}
		fixed.Sessions = append(fixed.Sessions, cp)
	}
	if w, ok := siRobust(t, fixed); !ok {
		t.Errorf("suggested repair %s does not pass Theorem 19: %s", repairs[0], w)
	}
}

// TestRepairRobustAppIsNil: a robust application needs no repair.
func TestRepairRobustAppIsNil(t *testing.T) {
	t.Parallel()
	if r := mustRepairs(t, workload.WriteSkewAppFixed(), chopping.SIDangerous); r != nil {
		t.Errorf("repair on robust app = %v, want nil", r)
	}
	if r := mustRepairs(t, workload.TransferApp(), chopping.SIDangerous); r != nil {
		t.Errorf("repair on transfer app = %v, want nil", r)
	}
}

// TestRepairSmallBank: the classical SmallBank fix is found
// automatically. The advisor's promotions, applied, must pass Theorem
// 19 — the search re-verifies internally, so finding any repair is the
// assertion; the test additionally pins that the racing WriteCheck /
// TransactSavings pair is what gets promoted.
func TestRepairSmallBank(t *testing.T) {
	t.Parallel()
	repairs := mustRepairs(t, workload.SmallBankApp(1, false), chopping.SIDangerous)
	if len(repairs) == 0 {
		t.Fatal("no repair found for SmallBank")
	}
	s := repairs[0].String()
	if !strings.Contains(s, "WriteCheck") && !strings.Contains(s, "TransactSavings") &&
		!strings.Contains(s, "Balance") {
		t.Errorf("repair %q does not touch the racing programs", s)
	}
}

// TestRepairLongForkPSI: the §6.2 long fork is repaired for the PSI
// criterion by promoting reads so the forked writers conflict.
func TestRepairLongForkPSI(t *testing.T) {
	t.Parallel()
	repairs := mustRepairs(t, workload.LongForkApp(), chopping.PSIDangerous)
	if len(repairs) == 0 {
		t.Fatal("no repair found for the long-fork app")
	}
}

// TestRepairGrouped: promotion groups tie instances together — with
// both copies of a looped transaction in one group, a repair promotes
// them jointly and reports both labels.
func TestRepairGrouped(t *testing.T) {
	t.Parallel()
	mk := func(name, group string, reads, writes []model.Obj) TxSpec {
		ts := NewTxSpec(name, reads, writes)
		ts.PromoteGroup = group
		return ts
	}
	app := NewApp(
		SessionSpec{Name: "s1", Txs: []TxSpec{
			mk("w1", "g1", []model.Obj{"a", "b"}, []model.Obj{"a"}),
			mk("w1@it2", "g1", []model.Obj{"a", "b"}, []model.Obj{"a"}),
		}},
		SessionSpec{Name: "s2", Txs: []TxSpec{
			mk("w2", "g2", []model.Obj{"a", "b"}, []model.Obj{"b"}),
		}},
	)
	repairs := mustRepairs(t, app, chopping.SIDangerous)
	if len(repairs) == 0 {
		t.Fatal("no repair found")
	}
	for _, r := range repairs {
		for _, p := range r.Promotions {
			if p.Group == "g1" && len(p.Txs) != 2 {
				t.Errorf("group g1 promotion lists %v, want both instances", p.Txs)
			}
		}
	}
}

// TestRepairWidenedWriterUnfixable: an anti-dependency into a widened
// writer can never be defused by promotion, so no repair exists.
func TestRepairWidenedWriterUnfixable(t *testing.T) {
	t.Parallel()
	sweep := NewTxSpec("sweep", []model.Obj{"x", "y"}, []model.Obj{"x", "y"})
	sweep.WritesWidened = true
	put := NewTxSpec("put", []model.Obj{"x", "y"}, []model.Obj{"y"})
	app := SingleTxApp(sweep, put)
	if w, ok := siRobust(t, app); ok {
		t.Fatalf("widened app unexpectedly robust (witness %v)", w)
	}
	if r := mustRepairs(t, app, chopping.SIDangerous); r != nil {
		t.Errorf("repair against a widened writer = %v, want nil", r)
	}
}
