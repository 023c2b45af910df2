package core_test

import (
	"math/rand"
	"testing"

	"sian/internal/check"
	. "sian/internal/core"
	"sian/internal/depgraph"
	"sian/internal/execution"
	"sian/internal/workload"
)

// collectSIExecutions builds a pool of verified SI executions from
// random histories.
func collectSIExecutions(t *testing.T, trials int, seed int64) []*execution.Execution {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var out []*execution.Execution
	for trial := 0; trial < trials; trial++ {
		h := workload.RandomPlausibleHistory(rng, workload.RandomConfig{
			Sessions: 2, TxPerSession: 2, OpsPerTx: 3, Objects: 2,
		})
		res, err := check.Certify(h, depgraph.SI, check.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Member {
			continue
		}
		x, err := BuildExecution(res.Graph, depgraph.SI)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, x)
	}
	if len(out) == 0 {
		t.Fatal("no SI executions collected")
	}
	return out
}

// TestProposition14 checks the paper's characterisation of
// anti-dependencies on SI executions: S —RW(x)→ T iff S ≠ T, S reads
// x, T finally writes x, and T is not visible to S.
func TestProposition14(t *testing.T) {
	t.Parallel()
	for _, x := range collectSIExecutions(t, 60, 11) {
		g, err := depgraph.FromExecution(x)
		if err != nil {
			t.Fatal(err)
		}
		h := x.History
		n := h.NumTransactions()
		for _, obj := range h.Objects() {
			rw := g.RWObj(obj)
			for s := 0; s < n; s++ {
				for tt := 0; tt < n; tt++ {
					want := s != tt &&
						h.Transaction(s).Reads(obj) &&
						h.Transaction(tt).Writes(obj) &&
						!x.VIS.Has(tt, s)
					if got := rw.Has(s, tt); got != want {
						t.Fatalf("Proposition 14 violated on %q: RW(%d,%d) = %v, want %v\n%v",
							obj, s, tt, got, want, h)
					}
				}
			}
		}
	}
}

// TestLemma12 checks VIS ; RW ⊆ CO on SI executions.
func TestLemma12(t *testing.T) {
	t.Parallel()
	for _, x := range collectSIExecutions(t, 60, 13) {
		g, err := depgraph.FromExecution(x)
		if err != nil {
			t.Fatal(err)
		}
		comp := x.VIS.Compose(g.RW())
		if !comp.SubsetOf(x.CO) {
			t.Fatalf("Lemma 12 violated: VIS ; RW ⊄ CO\n%v", x.History)
		}
	}
}

// TestProposition7 checks that graph extraction from any EXT-satisfying
// execution yields a well-formed dependency graph (Proposition 7 via
// Proposition 23).
func TestProposition7(t *testing.T) {
	t.Parallel()
	for _, x := range collectSIExecutions(t, 40, 17) {
		g, err := depgraph.FromExecution(x)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("Proposition 7 violated: %v\n%v", err, x.History)
		}
	}
}
