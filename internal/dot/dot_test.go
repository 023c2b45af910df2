package dot

import (
	"bytes"
	"strings"
	"testing"

	"sian/internal/chopping"
	"sian/internal/core"
	"sian/internal/depgraph"
	"sian/internal/workload"
)

// render runs fn into a buffer and returns the output, failing on
// error.
func render(t *testing.T, fn func(b *bytes.Buffer) error) string {
	t.Helper()
	var b bytes.Buffer
	if err := fn(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// checkDOT performs structural sanity checks on a DOT document.
func checkDOT(t *testing.T, s string, wants ...string) {
	t.Helper()
	if !strings.HasPrefix(s, "digraph ") || !strings.HasSuffix(s, "}\n") {
		t.Fatalf("not a DOT document:\n%s", s)
	}
	if strings.Count(s, "{") != strings.Count(s, "}") {
		t.Errorf("unbalanced braces:\n%s", s)
	}
	for _, w := range wants {
		if !strings.Contains(s, w) {
			t.Errorf("output missing %q:\n%s", w, s)
		}
	}
}

func TestGraph(t *testing.T) {
	t.Parallel()
	ws := workload.WriteSkew()
	s := render(t, func(b *bytes.Buffer) error { return Graph(b, ws.Graph) })
	checkDOT(t, s,
		"WR(acct1)", "WW(acct2)", "RW(", "style=dashed, color=red",
		"T1", "T2", "write(acct1, -40)")
}

func TestExecution(t *testing.T) {
	t.Parallel()
	ws := workload.WriteSkew()
	x, err := core.BuildExecution(ws.Graph, depgraph.SI)
	if err != nil {
		t.Fatal(err)
	}
	s := render(t, func(b *bytes.Buffer) error { return Execution(b, x) })
	checkDOT(t, s, `label="VIS"`, `label="CO"`)
}

func TestChopGraph(t *testing.T) {
	t.Parallel()
	verdict, err := chopping.CheckStatic(workload.Fig5Programs(), chopping.SICritical)
	if err != nil {
		t.Fatal(err)
	}
	if verdict.OK {
		t.Fatal("expected critical cycle")
	}
	s := render(t, func(b *bytes.Buffer) error {
		return ChopGraph(b, verdict.Graph, verdict.Witness)
	})
	checkDOT(t, s, "color=red, penwidth=2", `label="P"`, `label="S"`, "lookupAll")
	// Without a highlight nothing is red-bold.
	s2 := render(t, func(b *bytes.Buffer) error { return ChopGraph(b, verdict.Graph, nil) })
	if strings.Contains(s2, "penwidth=2") {
		t.Error("unexpected highlight without a cycle")
	}
}

func TestQuoting(t *testing.T) {
	t.Parallel()
	if got := quote(`a"b\c`); got != `"a\"b\\c"` {
		t.Errorf("quote = %s", got)
	}
}
