// Package dot renders the analyser's graph structures — dependency
// graphs, abstract executions and chopping graphs (static dependency
// graphs included) — as Graphviz DOT documents, for visual inspection of
// anomalies, witness cycles and analysis inputs.
package dot

import (
	"fmt"
	"io"
	"strings"

	"sian/internal/chopping"
	"sian/internal/depgraph"
	"sian/internal/execution"
)

// quote escapes a label for DOT.
func quote(s string) string {
	return `"` + strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(s) + `"`
}

// txLabel renders a transaction label: its ID when present, else #i.
func txLabel(id string, i int) string {
	if id != "" {
		return id
	}
	return fmt.Sprintf("#%d", i)
}

// Graph writes a dependency graph: transactions as nodes; SO edges
// dotted, WR solid, WW bold, derived RW dashed red, each labelled with
// its object.
func Graph(w io.Writer, g *depgraph.Graph) error {
	var b strings.Builder
	b.WriteString("digraph dependencies {\n  rankdir=LR;\n  node [shape=box];\n")
	h := g.History
	for i := 0; i < h.NumTransactions(); i++ {
		t := h.Transaction(i)
		var ops []string
		for _, op := range t.Ops {
			ops = append(ops, op.String())
		}
		label := txLabel(t.ID, i)
		if len(ops) > 0 {
			label += "\n" + strings.Join(ops, "\n")
		}
		fmt.Fprintf(&b, "  n%d [label=%s];\n", i, quote(label))
	}
	for _, p := range h.SessionOrder().Pairs() {
		fmt.Fprintf(&b, "  n%d -> n%d [style=dotted, label=\"SO\"];\n", p[0], p[1])
	}
	for _, x := range g.Objects() {
		for _, p := range g.WRObj(x).Pairs() {
			fmt.Fprintf(&b, "  n%d -> n%d [label=%s];\n", p[0], p[1], quote("WR("+string(x)+")"))
		}
		for _, p := range g.WWObj(x).Pairs() {
			fmt.Fprintf(&b, "  n%d -> n%d [style=bold, label=%s];\n", p[0], p[1], quote("WW("+string(x)+")"))
		}
		for _, p := range g.RWObj(x).Pairs() {
			fmt.Fprintf(&b, "  n%d -> n%d [style=dashed, color=red, label=%s];\n",
				p[0], p[1], quote("RW("+string(x)+")"))
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Execution writes an abstract execution: VIS edges solid, CO-only
// edges (commit order not implied by visibility) grey dashed.
func Execution(w io.Writer, x *execution.Execution) error {
	var b strings.Builder
	b.WriteString("digraph execution {\n  rankdir=LR;\n  node [shape=box];\n")
	h := x.History
	for i := 0; i < h.NumTransactions(); i++ {
		fmt.Fprintf(&b, "  n%d [label=%s];\n", i, quote(txLabel(h.Transaction(i).ID, i)))
	}
	for _, p := range x.VIS.Pairs() {
		fmt.Fprintf(&b, "  n%d -> n%d [label=\"VIS\"];\n", p[0], p[1])
	}
	for _, p := range x.CO.Minus(x.VIS).Pairs() {
		fmt.Fprintf(&b, "  n%d -> n%d [style=dashed, color=grey, label=\"CO\"];\n", p[0], p[1])
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// ChopGraph writes a (static or dynamic) chopping graph: successor
// edges dotted, predecessor edges dotted grey, conflict edges styled
// by kind. A non-nil highlight cycle is drawn in red with penwidth 2.
func ChopGraph(w io.Writer, g *chopping.Graph, highlight chopping.Cycle) error {
	inCycle := make(map[chopping.Step]bool, len(highlight))
	for _, s := range highlight {
		inCycle[s] = true
	}
	var b strings.Builder
	b.WriteString("digraph chopping {\n  rankdir=LR;\n  node [shape=box];\n")
	for i := 0; i < g.N(); i++ {
		fmt.Fprintf(&b, "  n%d [label=%s];\n", i, quote(g.Label(i)))
	}
	for _, e := range g.Edges() {
		attrs := append(edgeStyle(e.Kind), fmt.Sprintf("label=%q", g.KindName(e.Kind)))
		if inCycle[e] {
			attrs = append(attrs, "color=red", "penwidth=2")
		}
		fmt.Fprintf(&b, "  n%d -> n%d [%s];\n", e.From, e.To, strings.Join(attrs, ", "))
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// edgeStyle is an edge kind's line style, before its label.
func edgeStyle(k chopping.EdgeKind) []string {
	switch k {
	case chopping.KindSuccessor:
		return []string{"style=dotted"}
	case chopping.KindPredecessor:
		return []string{"style=dotted", "color=grey"}
	case chopping.KindWW:
		return []string{"style=bold"}
	case chopping.KindRW:
		return []string{"style=dashed"}
	}
	return nil
}
