package check

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"sian/internal/depgraph"
	"sian/internal/model"
	"sian/internal/obs"
)

// writeSkewNoInit is the classic write-skew history with its own
// initialising transaction: t0 writes a=1, b=1; tA reads a and writes
// b; tB reads b and writes a. SI admits it, SER does not.
func writeSkewNoInit() *model.History {
	return model.NewHistory(
		model.Session{ID: "s0", Transactions: []model.Transaction{
			model.NewTransaction("t0", model.Write("a", 1), model.Write("b", 1)),
		}},
		model.Session{ID: "sA", Transactions: []model.Transaction{
			model.NewTransaction("tA", model.Read("a", 1), model.Write("b", 2)),
		}},
		model.Session{ID: "sB", Transactions: []model.Transaction{
			model.NewTransaction("tB", model.Read("b", 1), model.Write("a", 2)),
		}},
	)
}

// manyWriters builds a history of n single-write transactions, each in
// its own session, all writing distinct values to object x.
func manyWriters(n int) *model.History {
	sessions := make([]model.Session, n)
	for i := range sessions {
		sessions[i] = model.Session{
			ID: fmt.Sprintf("s%d", i),
			Transactions: []model.Transaction{
				model.NewTransaction(fmt.Sprintf("t%d", i), model.Write("x", model.Value(i))),
			},
		}
	}
	return model.NewHistory(sessions...)
}

// TestOptionsPerFieldDefaults guards against the old zero-value trap:
// Options used to be compared against Options{} wholesale, so setting
// any single field (a metrics registry, a tracer) silently disabled
// the init transaction and zeroed the budget. Defaults must now apply
// per field.
func TestOptionsPerFieldDefaults(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	res, err := Certify(writeSkewNoInit(), depgraph.SI, Options{Metrics: reg})
	if err != nil {
		t.Fatalf("Certify with only Metrics set: %v", err)
	}
	if !res.Member {
		t.Fatalf("write skew must be in SI; a non-member verdict means defaults were dropped")
	}

	n := (Options{Metrics: reg}).normalized()
	if n.Budget != DefaultOptions().Budget {
		t.Errorf("Budget not defaulted alongside Metrics: got %d", n.Budget)
	}
	if n.NoInit || !n.PinInit {
		t.Errorf("init defaults not applied alongside Metrics: NoInit=%v PinInit=%v", n.NoInit, n.PinInit)
	}
	// The explicit escape hatch must survive normalisation.
	n2 := (Options{NoInit: true}).normalized()
	if !n2.NoInit || n2.PinInit {
		t.Errorf("NoInit escape hatch broken: NoInit=%v PinInit=%v", n2.NoInit, n2.PinInit)
	}
}

// TestCertifyAllFirstErrorInArgumentOrder pins CertifyAll's error to
// the first failing model in the models argument order.
func TestCertifyAllFirstErrorInArgumentOrder(t *testing.T) {
	t.Parallel()
	h := manyWriters(65) // every model fails with the >64-writer error
	for i := 0; i < 10; i++ {
		_, err := CertifyAll(h, []depgraph.Model{depgraph.PSI, depgraph.SER}, Options{NoInit: true})
		if err == nil {
			t.Fatal("CertifyAll on 65 writers: want error, got nil")
		}
		if !strings.HasPrefix(err.Error(), "PSI:") {
			t.Fatalf("error not attributed to first model in argument order: %v", err)
		}
		_, err = CertifyAll(h, []depgraph.Model{depgraph.SER, depgraph.PSI}, Options{NoInit: true})
		if err == nil || !strings.HasPrefix(err.Error(), "SER:") {
			t.Fatalf("reversed model order: want SER-attributed error, got %v", err)
		}
	}
}

// TestTooManyWriters exercises the >64 writers-per-object error path
// and checks 64 writers still certify.
func TestTooManyWriters(t *testing.T) {
	t.Parallel()
	_, err := Certify(manyWriters(65), depgraph.SER, Options{NoInit: true})
	if err == nil {
		t.Fatal("65 writers must be rejected with an error")
	}
	if !strings.Contains(err.Error(), "65 writers") || !strings.Contains(err.Error(), "limited to 64") {
		t.Fatalf("unexpected error text: %v", err)
	}
	if errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("writer-limit error must not be a budget error: %v", err)
	}

	res, err := Certify(manyWriters(64), depgraph.SER, Options{NoInit: true})
	if err != nil {
		t.Fatalf("64 blind writers: %v", err)
	}
	if !res.Member || res.Examined != 1 {
		t.Fatalf("64 blind writers: want member on first candidate, got member=%v examined=%d", res.Member, res.Examined)
	}
}

// budgetHistory builds a guaranteed non-member of SER with a large
// candidate space: four same-value writers of x feed one reader (four
// top-level branches), five distinct writers of y contribute 120
// write orders per branch, and a write-skew gadget on a and b makes
// every candidate fail the SER check — so the search must exhaust the
// budget rather than stop at a member.
func budgetHistory() *model.History {
	var sessions []model.Session
	one := func(id string, ops ...model.Op) model.Session {
		return model.Session{ID: "s-" + id, Transactions: []model.Transaction{model.NewTransaction(id, ops...)}}
	}
	for i := 0; i < 4; i++ {
		sessions = append(sessions, one(fmt.Sprintf("wx%d", i), model.Write("x", 1)))
	}
	sessions = append(sessions, one("rx", model.Read("x", 1)))
	for i := 0; i < 5; i++ {
		sessions = append(sessions, one(fmt.Sprintf("wy%d", i), model.Write("y", model.Value(10+i))))
	}
	sessions = append(sessions,
		one("g0", model.Write("a", 1), model.Write("b", 1)),
		one("gA", model.Read("a", 1), model.Write("b", 2)),
		one("gB", model.Read("b", 1), model.Write("a", 2)),
	)
	return model.NewHistory(sessions...)
}

// TestBudgetExceeded checks ErrBudgetExceeded fires on a search that
// would examine more candidates than its budget, and that the search
// stops on the first candidate past it: exactly budget+1 examined.
func TestBudgetExceeded(t *testing.T) {
	t.Parallel()
	const budget = 50
	res, err := Certify(budgetHistory(), depgraph.SER, Options{NoInit: true, Budget: budget})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if res.Examined != budget+1 {
		t.Fatalf("budget stop must examine exactly budget+1, got %d", res.Examined)
	}
}
