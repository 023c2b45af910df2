// Package chopping implements the transaction-chopping analyses of §5
// and Appendix B of the paper: dynamic chopping graphs DCG(G) and
// splice (Theorem 16), static chopping graphs SCG(P) (Corollary 18),
// and SER-, SI- and PSI-critical cycles (Definitions 28 and 30, §5).
// Its graph and cycle engine (walk.go) also decide §6's dangerous
// cycles for package robustness: all five criteria are conditions on
// the edge labels of one simple cycle.
package chopping

import (
	"fmt"
	"strconv"
	"strings"
)

// EdgeKind classifies the edges of a chopping graph. Successor and
// predecessor edges connect pieces of the same session/program; the
// three conflict kinds connect pieces of different sessions/programs.
type EdgeKind int

const (
	KindInvalid EdgeKind = iota
	KindSuccessor
	KindPredecessor
	KindWR
	KindWW
	KindRW
	numKinds
)

// The kinds' names in a chopping graph and in a dependency graph.
var (
	kindNames = [numKinds]string{"", "S", "P", "WR", "WW", "RW"}
	depNames  = [numKinds]string{"", "SO", "P", "WR", "WW", "RW*"}
)

// String returns a short name: "S", "P", "WR", "WW" or "RW".
func (k EdgeKind) String() string {
	if k > KindInvalid && k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("EdgeKind(%d)", int(k))
}

// IsConflict reports whether the kind is WR, WW or RW.
func (k EdgeKind) IsConflict() bool { return k == KindWR || k == KindWW || k == KindRW }

// IsDependency reports whether the kind is WR or WW, the separators
// SI-criticality condition (iii) requires between anti-dependencies.
func (k EdgeKind) IsDependency() bool { return k == KindWR || k == KindWW }

// Criticality selects the cycle shape a search looks for: one of the
// critical cycles of §5, from laxest to strictest (PSI-critical implies
// SI-critical implies SER-critical), or one of the dangerous cycles of
// §6, read on a static dependency graph (vulnerable RW edges only).
type Criticality int

// The five shapes.
const (
	CriticalityInvalid Criticality = iota
	SERCritical                    // a "conflict, predecessor, conflict" fragment (Definition 28)
	SICritical                     // SER-critical, and a dependency between any two anti-dependencies (§5)
	PSICritical                    // SER-critical, and at most one anti-dependency (Definition 30)
	SIDangerous                    // two adjacent anti-dependencies: not robust against SI (Theorem 19, §6.1)
	PSIDangerous                   // two or more anti-dependencies, none adjacent: not robust against PSI (Theorem 22, §6.2)
	numCriticalities
)

// String returns "SER-critical", "SI-critical", "PSI-critical",
// "SI-dangerous" or "PSI-dangerous".
func (c Criticality) String() string {
	if c > CriticalityInvalid && c < numCriticalities {
		return [...]string{"", "SER-critical", "SI-critical", "PSI-critical", "SI-dangerous", "PSI-dangerous"}[c]
	}
	return fmt.Sprintf("Criticality(%d)", int(c))
}

// Step is one edge of a cycle in a chopping graph.
type Step struct {
	From, To int
	Kind     EdgeKind
}

// Cycle is a directed cycle: each step's To is the next step's From,
// and the last step returns to the first step's From.
type Cycle []Step

// String renders the cycle as "0 -RW-> 1 -P-> 0".
func (c Cycle) String() string { return c.describe(strconv.Itoa, EdgeKind.String) }

func (c Cycle) describe(label func(int) string, name func(EdgeKind) string) string {
	if len(c) == 0 {
		return "<empty>"
	}
	var sb strings.Builder
	sb.WriteString(label(c[0].From))
	for _, s := range c {
		fmt.Fprintf(&sb, " -%s-> %s", name(s.Kind), label(s.To))
	}
	return sb.String()
}

// Kinds returns the edge kinds of the cycle in order.
func (c Cycle) Kinds() []EdgeKind {
	out := make([]EdgeKind, len(c))
	for i, s := range c {
		out[i] = s.Kind
	}
	return out
}

// IsCriticalKinds decides whether the cyclic word of edge kinds of a
// vertex-simple cycle has the shape level selects: whether the level's
// automaton (walk.go) accepts one of its rotations. Vertex-simplicity,
// criticality condition (i), is the caller's responsibility.
func IsCriticalKinds(kinds []EdgeKind, level Criticality) bool {
	a := automata[level]
	if a == nil || len(kinds) < 2 { // a self-loop has no shape without a repeated vertex
		return false
	}
	for r := range kinds {
		s := 0
		for i := 0; i < len(kinds) && s >= 0; i++ {
			k := kinds[(r+i)%len(kinds)]
			if k < KindInvalid || k >= numKinds {
				k = KindInvalid
			}
			s = a.next[s][k]
		}
		if s >= 0 && a.accept[s] {
			return true
		}
	}
	return false
}

// IsCritical reports whether the cycle is critical at the given level,
// checking vertex-simplicity (condition (i)) as well as the kind
// conditions.
func (c Cycle) IsCritical(level Criticality) bool {
	seen := make(map[int]bool, len(c))
	for i, s := range c {
		if seen[s.From] || s.To != c[(i+1)%len(c)].From {
			return false
		}
		seen[s.From] = true
	}
	return IsCriticalKinds(c.Kinds(), level)
}

// Graph is a chopping graph: a directed multigraph whose parallel
// edges differ by kind. It serves as DCG(G) and SCG(P) (§5) and as the
// static dependency graph of an application (§6).
type Graph struct {
	labels []string
	adj    []uint8 // adj[u*n+v] is a bitmask over EdgeKind values
	n      int
	names  *[numKinds]string
}

// NewGraph returns a chopping graph with n vertices labelled by the
// given names; labels may be nil, in which case indices are used.
func NewGraph(n int, labels []string) *Graph {
	l := make([]string, n)
	for i := range l {
		if l[i] = strconv.Itoa(i); i < len(labels) && labels[i] != "" {
			l[i] = labels[i]
		}
	}
	return &Graph{labels: l, adj: make([]uint8, n*n), n: n, names: &kindNames}
}

// NewDependencyGraph returns a static dependency graph (§6): a Graph
// whose successor edges are session order and whose anti-dependencies
// are the vulnerable ones, so that they render as "SO" and "RW*".
func NewDependencyGraph(n int, labels []string) *Graph {
	g := NewGraph(n, labels)
	g.names = &depNames
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// Label returns the display label of a vertex.
func (g *Graph) Label(v int) string { return g.labels[v] }

// KindName returns the name the graph renders an edge kind with.
func (g *Graph) KindName(k EdgeKind) string {
	if k > KindInvalid && k < numKinds {
		return g.names[k]
	}
	return k.String()
}

// AddEdge inserts a directed edge of the given kind.
func (g *Graph) AddEdge(u, v int, k EdgeKind) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("chopping: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if k <= KindInvalid || k >= numKinds {
		panic(fmt.Sprintf("chopping: invalid edge kind %d", int(k)))
	}
	g.adj[u*g.n+v] |= 1 << k
}

// HasEdge reports whether an edge of the given kind exists.
func (g *Graph) HasEdge(u, v int, k EdgeKind) bool { return g.adj[u*g.n+v]&(1<<uint(k)) != 0 }

// Edges returns every edge of the graph, by source, target and kind.
func (g *Graph) Edges() []Step {
	var out []Step
	for x, mask := range g.adj {
		for k := KindSuccessor; mask != 0 && k < numKinds; k++ {
			if mask&(1<<k) != 0 {
				out = append(out, Step{From: x / g.n, To: x % g.n, Kind: k})
			}
		}
	}
	return out
}

// DescribeCycle renders a cycle using vertex labels.
func (g *Graph) DescribeCycle(c Cycle) string { return c.describe(g.Label, g.KindName) }

// Witness is a cycle a search matched, with the graph it lies in.
type Witness struct {
	Cycle Cycle
	Graph *Graph
}

// String renders the witness with vertex labels, e.g.
// "withdraw1 -RW*-> withdraw2 -RW*-> withdraw1".
func (w *Witness) String() string {
	if w == nil || len(w.Cycle) == 0 {
		return "<none>"
	}
	return w.Graph.DescribeCycle(w.Cycle)
}
