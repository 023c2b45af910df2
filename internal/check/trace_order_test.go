package check

import (
	"slices"
	"testing"

	"sian/internal/depgraph"
	"sian/internal/model"
	"sian/internal/obs/txtrace"
)

// branchingWriteSkew is a write-skew history with a duplicated write
// of a=1, so WR enumeration branches and the search explores several
// candidates.
func branchingWriteSkew() *model.History {
	return model.NewHistory(
		model.Session{ID: "s0", Transactions: []model.Transaction{
			model.NewTransaction("t0", model.Write("a", 1), model.Write("b", 1)),
		}},
		model.Session{ID: "s1", Transactions: []model.Transaction{
			model.NewTransaction("t1", model.Write("a", 1)),
		}},
		model.Session{ID: "sA", Transactions: []model.Transaction{
			model.NewTransaction("tA", model.Read("a", 1), model.Write("b", 2)),
		}},
		model.Session{ID: "sB", Transactions: []model.Transaction{
			model.NewTransaction("tB", model.Read("b", 1), model.Write("a", 2)),
		}},
	)
}

// TestTracePhaseOrderDeterministic pins the certifier's stages on a
// branching search: every run marks the same stage list, the summed
// cycle-check time arrives as an attr of check_extension_search, and
// its candidates attr equals Result.Examined.
func TestTracePhaseOrderDeterministic(t *testing.T) {
	t.Parallel()
	h := branchingWriteSkew()
	want := []txtrace.Stage{txtrace.StageCheckValidate, txtrace.StageCheckWREnumeration,
		txtrace.StageCheckExtensionSearch}
	tt := txtrace.New(txtrace.Options{})
	for i := 0; i < 20; i++ {
		tr := tt.Begin("check")
		res, err := Certify(h, depgraph.SER, Options{NoInit: true, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		tr.Finish("ok", 0)
		if !res.Member {
			t.Fatal("the branching write skew is serializable once tA reads t1's a=1")
		}
		var got []txtrace.Stage
		for _, sp := range tr.Data().Spans {
			got = append(got, sp.Stage)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("run %d stages %v, want %v", i, got, want)
		}
		attrs := tr.Data().Spans[2].Attrs
		if attrs["candidates"] != int64(res.Examined) || res.Examined < 2 {
			t.Fatalf("run %d: candidates attr %d, Result.Examined %d (want equal, ≥ 2)", i, attrs["candidates"], res.Examined)
		}
		if attrs["cycle_ns"] <= 0 {
			t.Fatalf("run %d: cycle_ns %d, want > 0", i, attrs["cycle_ns"])
		}
	}
}
