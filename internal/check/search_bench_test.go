package check

import (
	"math/rand"
	"sync"
	"testing"

	"sian/internal/depgraph"
	"sian/internal/model"
	"sian/internal/workload"
)

// The benchmarks below compare the seed clone-based search
// (refCertify, the faithful port in differential_test.go) against the
// incremental mutate-and-undo core, on multi-writer random histories
// of at least eight transactions whose certification genuinely
// branches. They are bare loops, not the repository's benchmark
// (benchmark/, whose certify workload never branches).

const searchBenchBudget = 20_000

var searchBench struct {
	once sync.Once
	hs   []*model.History
}

// searchBenchCorpus deterministically selects random histories that
// are (a) at least eight transactions, (b) have at least eight WR
// assignments (the product of the read sites' candidate counts), (c)
// non-members of SI within the budget, so the seed and the incremental
// searches both exhaust the same candidate space.
func searchBenchCorpus(tb testing.TB) []*model.History {
	searchBench.once.Do(func() {
		rng := rand.New(rand.NewSource(7))
		cfg := workload.RandomConfig{
			Sessions: 4, TxPerSession: 2, OpsPerTx: 3,
			Objects: 2, Values: 2, ReadFraction: 400,
		}
		for attempts := 0; len(searchBench.hs) < 10 && attempts < 20_000; attempts++ {
			h := workload.RandomHistory(rng, cfg)
			if h.NumTransactions() < 8 {
				continue
			}
			target := h.WithInit(0)
			if target.Validate() != nil || target.CheckInt() != nil {
				continue
			}
			s, err := newSearch(target, depgraph.SI, searchBenchBudget, 0)
			if err != nil {
				continue
			}
			assignments := 1
			for _, site := range s.reads {
				if assignments *= len(site.candidates); assignments >= 8 {
					break
				}
			}
			if assignments < 8 {
				continue
			}
			res, err := Certify(h, depgraph.SI, Options{Budget: searchBenchBudget})
			if err != nil || res.Member || res.Examined < 100 {
				continue
			}
			searchBench.hs = append(searchBench.hs, h)
		}
	})
	if len(searchBench.hs) < 4 {
		tb.Fatalf("search bench corpus too small: %d histories", len(searchBench.hs))
	}
	return searchBench.hs
}

// BenchmarkSearchSeedClone measures the pre-refactor clone-based
// search (one graph clone per WR branch and write-order leaf, a full
// transitive closure per orderWrites node) over the corpus. One op =
// one full certification sweep of the corpus under SI.
func BenchmarkSearchSeedClone(b *testing.B) {
	hs := searchBenchCorpus(b)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, h := range hs {
			out, err := refCertify(h, depgraph.SI, false, true, searchBenchBudget)
			if err != nil {
				b.Fatal(err)
			}
			if out.member {
				b.Fatal("corpus history unexpectedly member")
			}
		}
	}
}

// BenchmarkSearchIncremental measures the incremental mutate-and-undo
// core over the same corpus and budget. Its exploration order is
// exactly the seed's, so its speedup over BenchmarkSearchSeedClone is
// purely algorithmic.
func BenchmarkSearchIncremental(b *testing.B) {
	hs := searchBenchCorpus(b)
	for n := 0; n < b.N; n++ {
		for _, h := range hs {
			res, err := Certify(h, depgraph.SI, Options{Budget: searchBenchBudget})
			if err != nil {
				b.Fatal(err)
			}
			if res.Member {
				b.Fatal("corpus history unexpectedly member")
			}
		}
	}
}
