package chopping

import (
	"math/rand"
	"testing"
)

// refIsCriticalKinds is the direct statement of the three criticality
// conditions on a cyclic kind word, kept as the reference the
// automata are tested against.
func refIsCriticalKinds(kinds []EdgeKind, level Criticality) bool {
	n := len(kinds)
	if n < 2 {
		return false
	}
	fragment := false
	for i := 0; i < n; i++ {
		if kinds[i].IsConflict() && kinds[(i+1)%n] == KindPredecessor && kinds[(i+2)%n].IsConflict() {
			fragment = true
		}
	}
	if !fragment {
		return false
	}
	anti, first := 0, -1
	for i, k := range kinds {
		if k == KindRW {
			if first < 0 {
				first = i
			}
			anti++
		}
	}
	switch level {
	case SERCritical:
		return true
	case PSICritical:
		return anti <= 1
	case SICritical:
		if anti < 2 {
			return true
		}
		sep := false
		for off := 1; off <= n; off++ {
			switch k := kinds[(first+off)%n]; {
			case k == KindRW && !sep:
				return false
			case k == KindRW:
				sep = false
			case k.IsDependency():
				sep = true
			}
		}
		return true
	}
	return false
}

// refSIDangerous and refPSIDangerous are the dangerous-cycle
// predicates of §6.1 and §6.2 as the robustness package stated them
// before it shared this engine, over the static dependency graph's
// kinds (KindRW is a vulnerable anti-dependency).
func refSIDangerous(kinds []EdgeKind) bool {
	n := len(kinds)
	if n < 2 {
		return false
	}
	for i := 0; i < n; i++ {
		if kinds[i] == KindRW && kinds[(i+1)%n] == KindRW {
			return true
		}
	}
	return false
}

func refPSIDangerous(kinds []EdgeKind) bool {
	n := len(kinds)
	count := 0
	for _, k := range kinds {
		if k == KindRW {
			count++
		}
	}
	if count < 2 {
		return false
	}
	for i := 0; i < n; i++ {
		if kinds[i] == KindRW && kinds[(i+1)%n] == KindRW {
			return false
		}
	}
	return true
}

// refMatches is the reference verdict of a level on a cyclic word.
func refMatches(kinds []EdgeKind, level Criticality) bool {
	switch level {
	case SIDangerous:
		return refSIDangerous(kinds)
	case PSIDangerous:
		return refPSIDangerous(kinds)
	}
	return refIsCriticalKinds(kinds, level)
}

var allLevels = []Criticality{SERCritical, SICritical, PSICritical, SIDangerous, PSIDangerous}

// TestIsCriticalKindsMatchesReference runs the rotation automata
// against the direct statements on every word of up to six kinds.
func TestIsCriticalKindsMatchesReference(t *testing.T) {
	t.Parallel()
	letters := []EdgeKind{KindSuccessor, KindPredecessor, KindWR, KindWW, KindRW}
	var rec func(word []EdgeKind)
	rec = func(word []EdgeKind) {
		for _, level := range allLevels {
			if got, want := IsCriticalKinds(word, level), refMatches(word, level); got != want {
				t.Fatalf("%v on %v = %v, reference %v", level, word, got, want)
			}
		}
		if len(word) == 6 {
			return
		}
		for _, k := range letters {
			rec(append(word, k))
		}
	}
	rec(nil)
}

// refFind is the enumerator without the walk pre-pass and without the
// WR/WW collapse: every simple cycle in canonical form, next vertices
// in index order and parallel kinds in kind order, judged by the
// reference predicates. It is exhaustive; nil means no cycle matches.
func refFind(g *Graph, level Criticality) Cycle {
	onStack := make([]bool, g.n)
	var path Cycle
	var dfs func(start, v int) Cycle
	dfs = func(start, v int) Cycle {
		for next := 0; next < g.n; next++ {
			for k := KindSuccessor; k < numKinds; k++ {
				if !g.HasEdge(v, next, k) {
					continue
				}
				switch {
				case next == start && len(path) >= 1:
					cand := append(append(Cycle(nil), path...), Step{From: v, To: next, Kind: k})
					if refMatches(cand.Kinds(), level) {
						return cand
					}
				case next > start && !onStack[next]:
					onStack[next] = true
					path = append(path, Step{From: v, To: next, Kind: k})
					if c := dfs(start, next); c != nil {
						return c
					}
					path = path[:len(path)-1]
					onStack[next] = false
				}
			}
		}
		return nil
	}
	for start := 0; start < g.n; start++ {
		if c := dfs(start, start); c != nil {
			return c
		}
	}
	return nil
}

// TestFindCriticalCycleDifferential checks the engine on random
// labelled graphs of up to seven vertices, self-loops included, for
// all five levels: its verdict and its first witness equal the
// exhaustive reference enumeration; a "no walk" answer of the pre-pass
// never coexists with a matching simple cycle; every witness passes
// Cycle.IsCritical and uses edges of the graph.
func TestFindCriticalCycleDifferential(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(43))
	matched, walkOnly := make(map[Criticality]int), make(map[Criticality]int)
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(7)
		g := NewGraph(n, nil)
		density := 0.1 + 0.4*rng.Float64()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				for k := KindSuccessor; k < numKinds; k++ {
					if rng.Float64() < density/2 && (u != v || rng.Intn(4) == 0) {
						g.AddEdge(u, v, k)
					}
				}
			}
		}
		for _, level := range allLevels {
			want := refFind(g, level)
			got, err := g.FindCriticalCycle(level)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, level, err)
			}
			if got.String() != want.String() {
				t.Fatalf("trial %d %v: witness %v, reference %v\nedges %v", trial, level, got, want, g.Edges())
			}
			_, walk := g.liveEdges(automata[level])
			if !walk && want != nil {
				t.Fatalf("trial %d %v: no matching walk, but cycle %v", trial, level, want)
			}
			if walk && want == nil {
				walkOnly[level]++
			}
			if got == nil {
				continue
			}
			matched[level]++
			if !got.IsCritical(level) {
				t.Fatalf("trial %d %v: witness %v fails IsCritical", trial, level, got)
			}
			for _, s := range got {
				if !g.HasEdge(s.From, s.To, s.Kind) {
					t.Fatalf("trial %d %v: witness %v uses a missing edge", trial, level, got)
				}
			}
		}
	}
	for _, level := range allLevels {
		t.Logf("%v: %d graphs with a matching cycle, %d with only a matching walk", level, matched[level], walkOnly[level])
		if matched[level] < 50 || walkOnly[level] < 10 {
			t.Errorf("%v: too few matching graphs for the differential to say much", level)
		}
	}
}
