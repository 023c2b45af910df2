package chopping

import (
	"errors"
	"slices"
)

// Each criterion is a small automaton over one rotation of a cycle's
// edge-label word; a cycle matches when some rotation is accepted.
// scan is an automaton state: what a criterion remembers of a prefix
// of the rotated word. The criticalities read the word from the
// predecessor edge of a "conflict, predecessor, conflict" fragment, so
// its second and last letters must be conflicts; the dangerous shapes
// read it from an anti-dependency.
type scan struct {
	n        uint8 // letters read, capped at 2
	conflict bool  // the last letter is a conflict
	anti     bool  // the last letter is an anti-dependency
	rws      uint8 // anti-dependencies read, capped at 2
	depPre   bool  // a dependency before the first anti-dependency
	depSince bool  // a dependency since the last anti-dependency
}

// step reads one more letter; ok is false when no word with the
// prefix matches. It drops what the criterion never consults, which
// keeps the automaton small.
func (c Criticality) step(s scan, k EdgeKind) (t scan, ok bool) {
	critical := c == SERCritical || c == SICritical || c == PSICritical
	switch {
	case critical && (s.n == 0 && k != KindPredecessor || s.n == 1 && !k.IsConflict()):
		return s, false
	case c == SIDangerous && s.n == 2:
		return s, true
	case c == SIDangerous && k != KindRW,
		c == PSIDangerous && (s.n == 0 && k != KindRW || s.anti && k == KindRW),
		k == KindRW && s.rws > 0 && (c == PSICritical || c == SICritical && !s.depSince):
		return s, false
	case k == KindRW:
		s.rws, s.depSince = min(s.rws+1, 2), false
	case k.IsDependency():
		s.depPre, s.depSince = s.depPre || s.rws == 0, s.rws > 0
	}
	s.n, s.conflict, s.anti = min(s.n+1, 2), k.IsConflict(), k == KindRW
	switch c {
	case SERCritical:
		return scan{n: s.n, conflict: s.conflict}, true
	case PSICritical:
		return scan{n: s.n, conflict: s.conflict, rws: s.rws}, true
	case SIDangerous:
		return scan{n: s.n}, true
	case PSIDangerous:
		return scan{n: s.n, anti: s.anti, rws: s.rws}, true
	}
	s.anti = false
	return s, true
}

// accepts reports whether a word read to s matches, the wrap from its
// last letter back to its first included.
func (c Criticality) accepts(s scan) bool {
	switch c {
	case SERCritical, SICritical, PSICritical: // only SI-critical states keep a second anti-dependency
		return s.n == 2 && s.conflict && (s.rws < 2 || s.depPre || s.depSince)
	case SIDangerous:
		return s.n == 2
	case PSIDangerous:
		return s.rws == 2 && !s.anti
	}
	return false
}

// automaton is a criterion compiled to a table over its reachable
// states: next[q][k] is the state after kind k, -1 when no match
// remains; state 0 is the empty prefix.
type automaton struct {
	next   [][numKinds]int
	accept []bool
}

// automata holds the five criteria's automata; unknown levels map to nil.
var automata = func() map[Criticality]*automaton {
	out := make(map[Criticality]*automaton)
	for c := SERCritical; c < numCriticalities; c++ {
		a, ids, states := &automaton{}, map[scan]int{{}: 0}, []scan{{}}
		for q := 0; q < len(states); q++ {
			a.next = append(a.next, [numKinds]int{})
			a.accept = append(a.accept, c.accepts(states[q]))
			for k := KindInvalid; k < numKinds; k++ {
				t, ok := c.step(states[q], k)
				if _, seen := ids[t]; ok && !seen {
					ids[t] = len(states)
					states = append(states, t)
				}
				if a.next[q][k] = -1; ok {
					a.next[q][k] = ids[t]
				}
			}
		}
		out[c] = a
	}
	return out
}()

// liveEdges returns, per vertex pair, the kinds of the edges that lie
// on some closed walk whose word a accepts, and whether any does. For
// each anchor vertex it searches forward from (anchor, empty prefix)
// and, when that reaches an accepting state at the anchor, backward
// from there; an edge is live when the backward search crosses it into
// a forward-reached state. O(n·E·|Q|) for n vertices, E edges and |Q|
// automaton states.
func (g *Graph) liveEdges(a *automaton) (live []uint8, any bool) {
	n, nq := g.n, len(a.accept)
	out, in := make([][]Step, n), make([][]Step, n)
	for _, e := range g.Edges() {
		out[e.From] = append(out[e.From], e)
		in[e.To] = append(in[e.To], e)
	}
	prev := make([][numKinds][]int, nq) // prev[t][k]: the states k leads to t from
	for q, row := range a.next {
		for k, t := range row {
			if t >= 0 {
				prev[t][k] = append(prev[t][k], q)
			}
		}
	}
	live = make([]uint8, n*n)
	fwd, bwd := make([]bool, n*nq), make([]bool, n*nq)
	var stack []int
	visit := func(seen []bool, v, q int) {
		if !seen[v*nq+q] {
			seen[v*nq+q] = true
			stack = append(stack, v*nq+q)
		}
	}
	pop := func() (v, q int) {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return x / nq, x % nq
	}
	for anchor := 0; anchor < n; anchor++ {
		clear(fwd)
		for visit(fwd, anchor, 0); len(stack) > 0; {
			u, q := pop()
			for _, e := range out[u] {
				if t := a.next[q][e.Kind]; t >= 0 {
					visit(fwd, e.To, t)
				}
			}
		}
		clear(bwd)
		for q := range nq {
			if a.accept[q] && fwd[anchor*nq+q] {
				visit(bwd, anchor, q)
				any = true
			}
		}
		for len(stack) > 0 {
			v, t := pop()
			for _, e := range in[v] {
				for _, q := range prev[t][e.Kind] {
					if fwd[e.From*nq+q] {
						live[e.From*n+v] |= 1 << e.Kind
						visit(bwd, e.From, q)
					}
				}
			}
		}
	}
	return live, any
}

// ErrBudgetExceeded reports a witness search out of budget: the analysis
// is inconclusive, so the chopping may be incorrect (the application
// not robust).
var ErrBudgetExceeded = errors.New("chopping: cycle enumeration budget exceeded; analysis inconclusive")

// budget bounds the DFS extensions of one witness search; tests lower it.
var budget = 50_000_000

// FindCriticalCycle searches for a vertex-simple directed cycle of the
// shape level selects. It returns (cycle, nil) when one is found,
// (nil, nil) when provably none exists, and (nil, ErrBudgetExceeded)
// when the witness search ran out of budget.
//
// It first asks whether any closed *walk* matches (liveEdges). Every
// simple cycle is a closed walk, so "no walk" proves "no cycle" in
// polynomial time, with no budget. Otherwise it enumerates simple
// cycles in canonical form (the smallest vertex first) over the live
// edges, next vertices in index order and parallel kinds in kind
// order, judging each with IsCriticalKinds: worst-case exponential,
// and dropping edges on no matching walk never changes which cycle is
// found first.
func (g *Graph) FindCriticalCycle(level Criticality) (Cycle, error) {
	a := automata[level]
	if a == nil {
		return nil, nil
	}
	live, any := g.liveEdges(a)
	if !any {
		return nil, nil
	}
	left, onStack := budget, make([]bool, g.n)
	var path Cycle
	var dfs func(start, v int) (Cycle, error)
	dfs = func(start, v int) (Cycle, error) {
		for next := 0; next < g.n; next++ {
			mask := live[v*g.n+next]
			closing := next == start && len(path) >= 1
			if mask == 0 || !closing && (next <= start || onStack[next]) {
				continue
			}
			for k := KindSuccessor; k < numKinds; k++ {
				// Read and write dependencies are alike to every
				// criterion, so of a WR/WW pair only WR is tried.
				if mask&(1<<k) == 0 || k == KindWW && mask&(1<<KindWR) != 0 {
					continue
				}
				if left--; left < 0 {
					return nil, ErrBudgetExceeded
				}
				path = append(path, Step{From: v, To: next, Kind: k})
				if closing && IsCriticalKinds(path.Kinds(), level) {
					return slices.Clone(path), nil
				}
				if !closing {
					onStack[next] = true
					found, err := dfs(start, next)
					if onStack[next] = false; found != nil || err != nil {
						return found, err
					}
				}
				path = path[:len(path)-1]
			}
		}
		return nil, nil
	}
	for start := 0; start < g.n; start++ {
		if found, err := dfs(start, start); found != nil || err != nil {
			return found, err
		}
	}
	return nil, nil
}
