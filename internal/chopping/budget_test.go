package chopping_test

// These tests lower the witness search budget through the package's
// test hook (SetBudget), so they live here even where they exercise
// the robustness package, and they do not run in parallel.

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	. "sian/internal/chopping"
	"sian/internal/histio"
	"sian/internal/model"
	"sian/internal/robustness"
	"sian/internal/workload"
)

// TestSharedCounterPrePass: forty sessions that each increment one
// shared counter are robust at both robustness levels and a correct
// chopping at all three criticality levels. Their graphs are complete,
// so enumerating simple cycles could never finish; with a budget of 1
// every answer must come from the walk pre-pass. The committed specs
// under testdata are the same application.
func TestSharedCounterPrePass(t *testing.T) {
	defer SetBudget(1)()
	app, programs := workload.CounterApp(40), workload.CounterPrograms(40)
	for _, check := range []func(robustness.App) (*Witness, error){robustness.CheckSIRobust, robustness.CheckPSIRobust} {
		if w, err := check(app); w != nil || err != nil {
			t.Errorf("counter app: witness %v, error %v", w, err)
		}
	}
	for _, level := range []Criticality{SERCritical, SICritical, PSICritical} {
		if v, err := CheckStatic(programs, level); err != nil || !v.OK {
			t.Errorf("%v: counter programs rejected (%v)", level, err)
		}
	}

	data, err := os.ReadFile("../../testdata/counter40_app.json")
	if err != nil {
		t.Fatal(err)
	}
	if spec, err := histio.DecodeApp(bytes.NewReader(data)); err != nil || !reflect.DeepEqual(spec, app) {
		t.Errorf("testdata/counter40_app.json is not CounterApp(40) (%v)", err)
	}
	if data, err = os.ReadFile("../../testdata/counter40_programs.json"); err != nil {
		t.Fatal(err)
	}
	if spec, err := histio.DecodePrograms(bytes.NewReader(data)); err != nil || !reflect.DeepEqual(spec, programs) {
		t.Errorf("testdata/counter40_programs.json is not CounterPrograms(40) (%v)", err)
	}
}

// TestRepairSkipsInconclusiveCandidates: a repair is only reported
// when its re-check proves the promoted application robust. Beside a
// write-skew pair sits a component with a dangerous closed walk but no
// dangerous simple cycle (a -RW-> hub -RW-> c, back through the hub),
// whose hub shares a counter with six more transactions. The pair's
// witness is found within a small budget; after either promotion only
// the other component has a matching walk, and enumerating its simple
// cycles overflows the budget. Neither candidate may then be reported.
func TestRepairSkipsInconclusiveCandidates(t *testing.T) {
	objs := func(xs ...model.Obj) []model.Obj { return xs }
	txs := []robustness.TxSpec{
		robustness.NewTxSpec("withdraw1", objs("acct1", "acct2"), objs("acct1")),
		robustness.NewTxSpec("withdraw2", objs("acct1", "acct2"), objs("acct2")),
		robustness.NewTxSpec("a", objs("q"), nil),
		robustness.NewTxSpec("hub", objs("p", "x"), objs("q", "x")),
		robustness.NewTxSpec("c", nil, objs("p")),
	}
	for i := 0; i < 6; i++ {
		txs = append(txs, robustness.NewTxSpec("incr", objs("x"), objs("x")))
	}
	app := robustness.SingleTxApp(txs...)

	w, err := robustness.CheckSIRobust(app)
	if w == nil || err != nil {
		t.Fatalf("with the default budget: witness %v, error %v; want a write skew", w, err)
	}
	if full := robustness.Repairs(app, SIDangerous, w); len(full) != 2 {
		t.Fatalf("with the default budget: repairs %v; want both single promotions", full)
	}
	defer SetBudget(100)()
	if w, err = robustness.CheckSIRobust(app); w == nil || err != nil {
		t.Fatalf("write-skew witness not found within the budget: %v, %v", w, err)
	}
	if r := robustness.Repairs(app, SIDangerous, w); r != nil {
		t.Errorf("inconclusive re-checks reported as repairs: %v", r)
	}
}
