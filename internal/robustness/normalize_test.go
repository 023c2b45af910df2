package robustness

import (
	"reflect"
	"testing"

	"sian/internal/chopping"
	"sian/internal/model"
)

// siRobust runs CheckSIRobust, failing the test on an inconclusive
// answer.
func siRobust(t *testing.T, app App) (*chopping.Witness, bool) {
	t.Helper()
	w, err := CheckSIRobust(app)
	if err != nil {
		t.Fatal(err)
	}
	return w, w == nil
}

// NewTxSpec must canonicalise its sets: silint feeds it map-ordered,
// possibly duplicated extraction results, and witnesses must not depend
// on that order.
func TestNewTxSpecNormalizes(t *testing.T) {
	t.Parallel()
	s := NewTxSpec("t",
		[]model.Obj{"b", "a", "b"},
		[]model.Obj{"z", "z", "y"})
	if !reflect.DeepEqual(s.Reads, []model.Obj{"a", "b"}) {
		t.Errorf("Reads = %v, want [a b]", s.Reads)
	}
	if !reflect.DeepEqual(s.Writes, []model.Obj{"y", "z"}) {
		t.Errorf("Writes = %v, want [y z]", s.Writes)
	}
}

// The same application declared with shuffled, duplicated sets must
// produce the identical witness cycle.
func TestWitnessDeterministicUnderInputOrder(t *testing.T) {
	t.Parallel()
	mk := func(reads1, reads2 []model.Obj) App {
		return SingleTxApp(
			NewTxSpec("withdraw1", reads1, []model.Obj{"acct1"}),
			NewTxSpec("withdraw2", reads2, []model.Obj{"acct2"}),
		)
	}
	a := mk([]model.Obj{"acct1", "acct2"}, []model.Obj{"acct1", "acct2"})
	b := mk([]model.Obj{"acct2", "acct1", "acct1"}, []model.Obj{"acct2", "acct2", "acct1"})
	wa, ra := siRobust(t, a)
	wb, rb := siRobust(t, b)
	if ra || rb {
		t.Fatalf("write-skew app reported robust (%v, %v)", ra, rb)
	}
	if wa.String() != wb.String() {
		t.Errorf("witness depends on input order: %q vs %q", wa, wb)
	}
}

// A widened write set must not defuse the vulnerability refinement:
// with exact sets the materialised conflict below is robust, but when
// one write set is only a may-write over-approximation the analysis
// has to keep its anti-dependencies vulnerable.
func TestWritesWidenedDisablesVulnerabilityRefinement(t *testing.T) {
	t.Parallel()
	withTotal := []model.Obj{"acct1", "acct2", "total"}
	mk := func(widened bool) App {
		t1 := NewTxSpec("withdraw1", withTotal, []model.Obj{"acct1", "total"})
		t2 := NewTxSpec("withdraw2", withTotal, []model.Obj{"acct2", "total"})
		t1.WritesWidened = widened
		return SingleTxApp(t1, t2)
	}
	if _, robust := siRobust(t, mk(false)); !robust {
		t.Fatalf("materialised conflict with exact sets must be robust")
	}
	if w, robust := siRobust(t, mk(true)); robust {
		t.Fatalf("widened write set must keep the app non-robust")
	} else if w == nil {
		t.Fatalf("missing witness")
	}
}
