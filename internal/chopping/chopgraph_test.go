package chopping

import (
	"strings"
	"testing"
)

func kinds(ks ...EdgeKind) []EdgeKind { return ks }

func TestEdgeKindPredicates(t *testing.T) {
	t.Parallel()
	for _, k := range kinds(KindWR, KindWW, KindRW) {
		if !k.IsConflict() {
			t.Errorf("%v should be a conflict kind", k)
		}
	}
	for _, k := range kinds(KindSuccessor, KindPredecessor) {
		if k.IsConflict() {
			t.Errorf("%v should not be a conflict kind", k)
		}
	}
	for _, k := range kinds(KindWR, KindWW) {
		if !k.IsDependency() {
			t.Errorf("%v should be a dependency kind", k)
		}
	}
	for _, k := range kinds(KindRW, KindSuccessor, KindPredecessor) {
		if k.IsDependency() {
			t.Errorf("%v should not be a dependency kind", k)
		}
	}
}

func TestStrings(t *testing.T) {
	t.Parallel()
	want := map[EdgeKind]string{
		KindSuccessor: "S", KindPredecessor: "P", KindWR: "WR", KindWW: "WW", KindRW: "RW",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if SERCritical.String() != "SER-critical" || SICritical.String() != "SI-critical" || PSICritical.String() != "PSI-critical" {
		t.Error("Criticality strings broken")
	}
	c := Cycle{{From: 0, To: 1, Kind: KindRW}, {From: 1, To: 0, Kind: KindPredecessor}}
	if got := c.String(); got != "0 -RW-> 1 -P-> 0" {
		t.Errorf("Cycle.String() = %q", got)
	}
	if Cycle(nil).String() != "<empty>" {
		t.Error("empty cycle string")
	}
}

// TestIsCriticalKinds covers the three criticality definitions on the
// paper's cycles.
func TestIsCriticalKinds(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name         string
		ks           []EdgeKind
		ser, si, psi bool
	}{
		{
			// Figure 5 / cycle (8): RW, S, WR, P — critical everywhere.
			name: "fig5 cycle 8",
			ks:   kinds(KindRW, KindSuccessor, KindWR, KindPredecessor),
			ser:  true, si: true, psi: true,
		},
		{
			// Figure 11 / cycle (9): RW, P, RW, P — SER-critical only:
			// the two RWs are separated by predecessor edges only.
			name: "fig11 cycle 9",
			ks:   kinds(KindRW, KindPredecessor, KindRW, KindPredecessor),
			ser:  true, si: false, psi: false,
		},
		{
			// Figure 12 / cycle (10): WR, P, RW, WR, P, RW —
			// SER- and SI-critical (RWs separated by WRs) but not
			// PSI-critical (two anti-dependencies).
			name: "fig12 cycle 10",
			ks:   kinds(KindWR, KindPredecessor, KindRW, KindWR, KindPredecessor, KindRW),
			ser:  true, si: true, psi: false,
		},
		{
			// No "conflict, predecessor, conflict" fragment at all.
			name: "no fragment",
			ks:   kinds(KindWR, KindSuccessor, KindWR, KindSuccessor),
			ser:  false, si: false, psi: false,
		},
		{
			// Fragment via wraparound: P is the last edge, conflicts
			// wrap from the end to the start.
			name: "fragment wraps",
			ks:   kinds(KindWW, KindSuccessor, KindWR, KindPredecessor),
			ser:  true, si: true, psi: true,
		},
		{
			// Adjacent RWs around the fragment: RW, P, RW with a
			// separating WW elsewhere — still not SI-critical because
			// the wrap RW→RW has no dependency in between on one side.
			name: "adjacent RW pair",
			ks:   kinds(KindRW, KindPredecessor, KindRW, KindWW),
			ser:  true, si: false, psi: false,
		},
		{
			// Single RW with a dependency conflict: SI and PSI
			// critical.
			name: "single RW",
			ks:   kinds(KindRW, KindPredecessor, KindWW),
			ser:  true, si: true, psi: true,
		},
		{
			name: "too short",
			ks:   kinds(KindRW),
			ser:  false, si: false, psi: false,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := IsCriticalKinds(tc.ks, SERCritical); got != tc.ser {
				t.Errorf("SER = %v, want %v", got, tc.ser)
			}
			if got := IsCriticalKinds(tc.ks, SICritical); got != tc.si {
				t.Errorf("SI = %v, want %v", got, tc.si)
			}
			if got := IsCriticalKinds(tc.ks, PSICritical); got != tc.psi {
				t.Errorf("PSI = %v, want %v", got, tc.psi)
			}
		})
	}
}

// TestCriticalityImplications: PSI-critical ⇒ SI-critical ⇒
// SER-critical over systematically enumerated kind sequences.
func TestCriticalityImplications(t *testing.T) {
	t.Parallel()
	all := kinds(KindSuccessor, KindPredecessor, KindWR, KindWW, KindRW)
	var rec func(seq []EdgeKind, depth int)
	rec = func(seq []EdgeKind, depth int) {
		if depth == 0 {
			psi := IsCriticalKinds(seq, PSICritical)
			si := IsCriticalKinds(seq, SICritical)
			ser := IsCriticalKinds(seq, SERCritical)
			if psi && !si {
				t.Fatalf("PSI-critical but not SI-critical: %v", seq)
			}
			if si && !ser {
				t.Fatalf("SI-critical but not SER-critical: %v", seq)
			}
			return
		}
		for _, k := range all {
			rec(append(seq, k), depth-1)
		}
	}
	for length := 2; length <= 5; length++ {
		rec(nil, length)
	}
}

func TestCycleIsCritical(t *testing.T) {
	t.Parallel()
	// A well-formed simple cycle.
	good := Cycle{
		{From: 0, To: 1, Kind: KindRW},
		{From: 1, To: 2, Kind: KindPredecessor},
		{From: 2, To: 0, Kind: KindWW},
	}
	if !good.IsCritical(SERCritical) || !good.IsCritical(SICritical) {
		t.Error("well-formed critical cycle rejected")
	}
	// Repeated vertex violates condition (i).
	repeated := Cycle{
		{From: 0, To: 1, Kind: KindRW},
		{From: 1, To: 0, Kind: KindPredecessor},
		{From: 0, To: 1, Kind: KindWW},
		{From: 1, To: 0, Kind: KindWR},
	}
	if repeated.IsCritical(SERCritical) {
		t.Error("cycle with repeated vertex accepted")
	}
	// Discontinuous steps are rejected.
	broken := Cycle{
		{From: 0, To: 1, Kind: KindRW},
		{From: 2, To: 0, Kind: KindPredecessor},
	}
	if broken.IsCritical(SERCritical) {
		t.Error("discontinuous cycle accepted")
	}
}

func TestGraphBasics(t *testing.T) {
	t.Parallel()
	g := NewGraph(3, []string{"a", "b", ""})
	if g.N() != 3 {
		t.Fatalf("N = %d", g.N())
	}
	if g.Label(0) != "a" || g.Label(2) != "2" {
		t.Error("labels broken")
	}
	g.AddEdge(0, 1, KindWR)
	g.AddEdge(0, 1, KindRW)
	if !g.HasEdge(0, 1, KindWR) || !g.HasEdge(0, 1, KindRW) || g.HasEdge(1, 0, KindWR) {
		t.Error("multi-edge storage broken")
	}
	edges := g.Edges()
	if len(edges) != 2 {
		t.Errorf("Edges = %v", edges)
	}
	desc := g.DescribeCycle(Cycle{{From: 0, To: 1, Kind: KindWR}, {From: 1, To: 0, Kind: KindRW}})
	if !strings.Contains(desc, "a -WR-> b") {
		t.Errorf("DescribeCycle = %q", desc)
	}
}

func TestGraphPanics(t *testing.T) {
	t.Parallel()
	g := NewGraph(2, nil)
	for _, fn := range []func(){
		func() { g.AddEdge(0, 2, KindWR) },
		func() { g.AddEdge(-1, 0, KindWR) },
		func() { g.AddEdge(0, 1, KindInvalid) },
		func() { g.AddEdge(0, 1, EdgeKind(17)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestFindCriticalCycleSimple(t *testing.T) {
	t.Parallel()
	// Two sessions {0,3} and {1,2}; the cycle
	// 0 -RW-> 1 -S-> 2 -WR-> 3 -P-> 0 has the fragment WR,P,RW (via
	// the wrap) and a single anti-dependency: critical at every level.
	g := NewGraph(4, nil)
	g.AddEdge(0, 1, KindRW)
	g.AddEdge(1, 2, KindSuccessor)
	g.AddEdge(2, 1, KindPredecessor)
	g.AddEdge(2, 3, KindWR)
	g.AddEdge(3, 0, KindPredecessor)
	g.AddEdge(0, 3, KindSuccessor)
	cyc, err := g.FindCriticalCycle(SICritical)
	if err != nil {
		t.Fatal(err)
	}
	if cyc == nil {
		t.Fatal("critical cycle not found")
	}
	if !cyc.IsCritical(SICritical) {
		t.Errorf("returned cycle not critical: %v", cyc)
	}
}

func TestFindCriticalCycleNone(t *testing.T) {
	t.Parallel()
	// Conflicts but no predecessor edge anywhere: no critical cycle.
	g := NewGraph(3, nil)
	g.AddEdge(0, 1, KindWR)
	g.AddEdge(1, 2, KindWW)
	g.AddEdge(2, 0, KindRW)
	cyc, err := g.FindCriticalCycle(SERCritical)
	if err != nil {
		t.Fatal(err)
	}
	if cyc != nil {
		t.Errorf("unexpected critical cycle %v", cyc)
	}
}

func TestFindCriticalCycleLevels(t *testing.T) {
	t.Parallel()
	// The Figure 11 shape: RW, P, RW, P cycle only — SER-critical but
	// not SI-critical.
	g := NewGraph(4, nil)
	// Sessions {0,1} and {2,3}: successors 0→1, 2→3.
	g.AddEdge(0, 1, KindSuccessor)
	g.AddEdge(1, 0, KindPredecessor)
	g.AddEdge(2, 3, KindSuccessor)
	g.AddEdge(3, 2, KindPredecessor)
	// Conflicts: 0 -RW-> 3 and 2 -RW-> 1.
	g.AddEdge(0, 3, KindRW)
	g.AddEdge(2, 1, KindRW)
	ser, err := g.FindCriticalCycle(SERCritical)
	if err != nil {
		t.Fatal(err)
	}
	if ser == nil {
		t.Error("SER-critical cycle not found")
	}
	si, err := g.FindCriticalCycle(SICritical)
	if err != nil {
		t.Fatal(err)
	}
	if si != nil {
		t.Errorf("unexpected SI-critical cycle: %v", si)
	}
}

func TestFindCriticalCycleBudget(t *testing.T) {
	// A dense graph of write dependencies with one predecessor
	// self-loop: closed walks through the self-loop match, so the
	// pre-pass hands the graph to the enumerator, but no simple cycle
	// can use a self-loop, and enumerating all simple cycles overflows
	// a tiny budget.
	defer SetBudget(50)()
	n := 10
	g := NewGraph(n, nil)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				g.AddEdge(i, j, KindWW)
			}
		}
	}
	g.AddEdge(n-1, n-1, KindPredecessor)
	if _, err := g.FindCriticalCycle(SERCritical); err == nil {
		t.Error("expected ErrBudgetExceeded")
	}
}
