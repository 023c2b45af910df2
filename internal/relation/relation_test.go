package relation

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// random returns a random relation over n elements with the given edge
// probability (per mille).
func random(rng *rand.Rand, n, perMille int) *Rel {
	r := New(n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if rng.Intn(1000) < perMille {
				r.Add(a, b)
			}
		}
	}
	return r
}

func TestNewEmpty(t *testing.T) {
	t.Parallel()
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		r := New(n)
		if r.N() != n {
			t.Errorf("N() = %d, want %d", r.N(), n)
		}
		if !r.IsEmpty() {
			t.Errorf("New(%d) not empty", n)
		}
		if r.Size() != 0 {
			t.Errorf("Size() = %d, want 0", r.Size())
		}
	}
}

func TestAddHasRemove(t *testing.T) {
	t.Parallel()
	r := New(130)
	pairs := [][2]int{{0, 0}, {0, 129}, {129, 0}, {64, 63}, {63, 64}, {127, 128}}
	for _, p := range pairs {
		r.Add(p[0], p[1])
	}
	for _, p := range pairs {
		if !r.Has(p[0], p[1]) {
			t.Errorf("missing pair %v", p)
		}
	}
	if r.Size() != len(pairs) {
		t.Errorf("Size() = %d, want %d", r.Size(), len(pairs))
	}
	if r.Has(1, 1) {
		t.Error("unexpected pair (1,1)")
	}
	r.Remove(0, 129)
	if r.Has(0, 129) {
		t.Error("pair (0,129) survived Remove")
	}
	if r.Size() != len(pairs)-1 {
		t.Errorf("Size() after Remove = %d, want %d", r.Size(), len(pairs)-1)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		fn   func()
	}{
		{"Add negative", func() { New(3).Add(-1, 0) }},
		{"Add too big", func() { New(3).Add(0, 3) }},
		{"Has too big", func() { New(3).Has(3, 0) }},
		{"Successors", func() { New(3).Successors(5) }},
		{"carrier mismatch", func() { New(3).Union(New(4)) }},
		{"negative carrier", func() { New(-1) }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestFromPairs(t *testing.T) {
	t.Parallel()
	r, err := FromPairs(4, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatalf("FromPairs: %v", err)
	}
	if !r.Has(0, 1) || !r.Has(1, 2) || r.Size() != 2 {
		t.Errorf("unexpected contents: %v", r)
	}
	if _, err := FromPairs(2, [][2]int{{0, 2}}); err == nil {
		t.Error("expected out-of-range error")
	}
}

func TestSetAlgebra(t *testing.T) {
	t.Parallel()
	a, _ := FromPairs(4, [][2]int{{0, 1}, {1, 2}})
	b, _ := FromPairs(4, [][2]int{{1, 2}, {2, 3}})
	union := a.Union(b)
	want, _ := FromPairs(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if !union.Equal(want) {
		t.Errorf("Union = %v, want %v", union, want)
	}
	inter := a.Intersect(b)
	wantI, _ := FromPairs(4, [][2]int{{1, 2}})
	if !inter.Equal(wantI) {
		t.Errorf("Intersect = %v, want %v", inter, wantI)
	}
	minus := a.Minus(b)
	wantM, _ := FromPairs(4, [][2]int{{0, 1}})
	if !minus.Equal(wantM) {
		t.Errorf("Minus = %v, want %v", minus, wantM)
	}
	// Union must not mutate its operands.
	if a.Size() != 2 || b.Size() != 2 {
		t.Error("Union mutated an operand")
	}
}

func TestCompose(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name    string
		r, s, w [][2]int
	}{
		{"chain", [][2]int{{0, 1}}, [][2]int{{1, 2}}, [][2]int{{0, 2}}},
		{"no match", [][2]int{{0, 1}}, [][2]int{{2, 3}}, nil},
		{"fan", [][2]int{{0, 1}, {0, 2}}, [][2]int{{1, 3}, {2, 3}}, [][2]int{{0, 3}}},
		{"self", [][2]int{{1, 1}}, [][2]int{{1, 1}}, [][2]int{{1, 1}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r, _ := FromPairs(4, tc.r)
			s, _ := FromPairs(4, tc.s)
			w, _ := FromPairs(4, tc.w)
			if got := r.Compose(s); !got.Equal(w) {
				t.Errorf("Compose = %v, want %v", got, w)
			}
		})
	}
}

func TestComposeMatchesDefinition(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		r := random(rng, n, 100)
		s := random(rng, n, 100)
		got := r.Compose(s)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				want := false
				for c := 0; c < n; c++ {
					if r.Has(a, c) && s.Has(c, b) {
						want = true
						break
					}
				}
				if got.Has(a, b) != want {
					t.Fatalf("n=%d: Compose(%d,%d) = %v, want %v", n, a, b, got.Has(a, b), want)
				}
			}
		}
	}
}

func TestTransitiveClosure(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name  string
		in, w [][2]int
		n     int
	}{
		{"chain", [][2]int{{0, 1}, {1, 2}, {2, 3}}, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}, 4},
		{"cycle", [][2]int{{0, 1}, {1, 0}}, [][2]int{{0, 1}, {1, 0}, {0, 0}, {1, 1}}, 2},
		{"empty", nil, nil, 3},
		{"self loop", [][2]int{{1, 1}}, [][2]int{{1, 1}}, 3},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r, _ := FromPairs(tc.n, tc.in)
			w, _ := FromPairs(tc.n, tc.w)
			if got := r.TransitiveClosure(); !got.Equal(w) {
				t.Errorf("closure = %v, want %v", got, w)
			}
		})
	}
}

func TestTransitiveClosureProperties(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(30)
		r := random(rng, n, 60)
		tc := r.TransitiveClosure()
		if !r.SubsetOf(tc) {
			t.Fatal("R ⊄ R⁺")
		}
		if !tc.IsTransitive() {
			t.Fatal("R⁺ not transitive")
		}
		// Minimality: R⁺ ⊆ any transitive superset; compare against a
		// naive fixed-point computation.
		naive := r.Clone()
		for {
			next := naive.Union(naive.Compose(naive))
			if next.Equal(naive) {
				break
			}
			naive = next
		}
		if !tc.Equal(naive) {
			t.Fatalf("closure mismatch: %v vs naive %v", tc, naive)
		}
	}
}

func TestMaybeInverse(t *testing.T) {
	t.Parallel()
	r, _ := FromPairs(3, [][2]int{{0, 1}, {2, 1}})
	m := r.Maybe()
	if m.Size() != 5 || !m.Has(0, 0) || !m.Has(1, 1) || !m.Has(2, 2) {
		t.Errorf("Maybe = %v", m)
	}
	inv := r.Inverse()
	want, _ := FromPairs(3, [][2]int{{1, 0}, {1, 2}})
	if !inv.Equal(want) {
		t.Errorf("Inverse = %v, want %v", inv, want)
	}
	if !inv.Inverse().Equal(r) {
		t.Error("double inverse differs")
	}
}

func TestAcyclicity(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		in   [][2]int
		n    int
		want bool
	}{
		{"empty", nil, 5, true},
		{"chain", [][2]int{{0, 1}, {1, 2}}, 3, true},
		{"self loop", [][2]int{{1, 1}}, 3, false},
		{"two cycle", [][2]int{{0, 1}, {1, 0}}, 2, false},
		{"long cycle", [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, 4, false},
		{"diamond", [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}, 4, true},
		{"cycle far from start", [][2]int{{5, 6}, {6, 5}}, 8, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r, _ := FromPairs(tc.n, tc.in)
			if got := r.IsAcyclic(); got != tc.want {
				t.Errorf("IsAcyclic = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestAcyclicAgreesWithClosure(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(25)
		r := random(rng, n, 40+rng.Intn(100))
		fromDFS := r.IsAcyclic()
		fromClosure := r.TransitiveClosure().IsIrreflexive()
		if fromDFS != fromClosure {
			t.Fatalf("IsAcyclic=%v but closure irreflexive=%v for %v", fromDFS, fromClosure, r)
		}
	}
}

func TestOrders(t *testing.T) {
	t.Parallel()
	chain, _ := FromPairs(3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	if !chain.IsStrictPartialOrder() {
		t.Error("transitive chain should be a strict partial order")
	}
	if !chain.IsTotal() || !chain.IsTotalOrderOn([]int{0, 1, 2}) {
		t.Error("chain should be total")
	}
	partial, _ := FromPairs(3, [][2]int{{0, 1}})
	if partial.IsTotal() {
		t.Error("partial order reported total")
	}
	if !partial.IsTotalOrderOn([]int{0, 1}) {
		t.Error("restriction to {0,1} is a total order")
	}
	nonTransitive, _ := FromPairs(3, [][2]int{{0, 1}, {1, 2}})
	if nonTransitive.IsStrictPartialOrder() {
		t.Error("non-transitive relation reported as strict partial order")
	}
	if nonTransitive.IsTotalOrderOn([]int{0, 1, 2}) {
		t.Error("non-transitive relation reported as total order")
	}
	reflexive, _ := FromPairs(2, [][2]int{{0, 0}, {0, 1}})
	if reflexive.IsStrictPartialOrder() || reflexive.IsTotalOrderOn([]int{0, 1}) {
		t.Error("reflexive relation reported as strict order")
	}
}

func TestSuccessorsPredecessors(t *testing.T) {
	t.Parallel()
	r, _ := FromPairs(70, [][2]int{{0, 5}, {0, 64}, {3, 5}, {64, 0}})
	if got := r.Successors(0); len(got) != 2 || got[0] != 5 || got[1] != 64 {
		t.Errorf("Successors(0) = %v", got)
	}
	if got := r.Predecessors(5); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("Predecessors(5) = %v", got)
	}
	if got := r.Predecessors(1); got != nil {
		t.Errorf("Predecessors(1) = %v, want nil", got)
	}
}

func TestTopoSort(t *testing.T) {
	t.Parallel()
	r, _ := FromPairs(4, [][2]int{{2, 0}, {0, 1}, {3, 1}})
	order, err := r.TopoSort()
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	pos := make(map[int]int)
	for i, v := range order {
		pos[v] = i
	}
	for _, p := range r.Pairs() {
		if pos[p[0]] >= pos[p[1]] {
			t.Errorf("order %v violates edge %v", order, p)
		}
	}
	cyc, _ := FromPairs(2, [][2]int{{0, 1}, {1, 0}})
	if _, err := cyc.TopoSort(); err == nil {
		t.Error("expected error on cyclic relation")
	}
	selfloop, _ := FromPairs(2, [][2]int{{1, 1}})
	if _, err := selfloop.TopoSort(); err == nil {
		t.Error("expected error on self-loop")
	}
}

func TestTopoSortDeterministic(t *testing.T) {
	t.Parallel()
	r, _ := FromPairs(5, [][2]int{{4, 2}})
	order, err := r.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 3, 4, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (lowest-index-first tie break)", order, want)
		}
	}
}

func TestFindCycle(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		in   [][2]int
		n    int
		want bool // cycle exists
	}{
		{"acyclic", [][2]int{{0, 1}, {1, 2}}, 3, false},
		{"self loop", [][2]int{{2, 2}}, 3, true},
		{"triangle", [][2]int{{0, 1}, {1, 2}, {2, 0}}, 3, true},
		{"deep", [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 1}}, 4, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r, _ := FromPairs(tc.n, tc.in)
			cyc := r.FindCycle()
			if (cyc != nil) != tc.want {
				t.Fatalf("FindCycle = %v, want existence %v", cyc, tc.want)
			}
			if cyc == nil {
				return
			}
			if cyc[0] != cyc[len(cyc)-1] {
				t.Errorf("cycle %v not closed", cyc)
			}
			for i := 0; i+1 < len(cyc); i++ {
				if !r.Has(cyc[i], cyc[i+1]) {
					t.Errorf("cycle %v uses missing edge (%d,%d)", cyc, cyc[i], cyc[i+1])
				}
			}
		})
	}
}

func TestFindCycleRandomised(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(20)
		r := random(rng, n, 80)
		cyc := r.FindCycle()
		if (cyc == nil) != r.IsAcyclic() {
			t.Fatalf("FindCycle/IsAcyclic disagree on %v", r)
		}
		for i := 0; i+1 < len(cyc); i++ {
			if !r.Has(cyc[i], cyc[i+1]) {
				t.Fatalf("invalid cycle edge in %v", cyc)
			}
		}
	}
}

func TestStringRendering(t *testing.T) {
	t.Parallel()
	r, _ := FromPairs(3, [][2]int{{2, 0}, {0, 1}})
	if got, want := r.String(), "{(0,1), (2,0)}"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got, want := New(2).String(), "{}"; got != want {
		t.Errorf("empty String() = %q, want %q", got, want)
	}
}

// TestQuickUnionCommutes is a testing/quick property: union is
// commutative and composition distributes over union on the left.
func TestQuickUnionCommutes(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		a, b, c := random(rng, n, 150), random(rng, n, 150), random(rng, n, 150)
		if !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		// (a ∪ b) ; c == (a ; c) ∪ (b ; c)
		left := a.Union(b).Compose(c)
		right := a.Compose(c).Union(b.Compose(c))
		return left.Equal(right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickClosureIdempotent: (R⁺)⁺ = R⁺ and R* = (R?)⁺.
func TestQuickClosureIdempotent(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		r := random(rng, n, 120)
		tc := r.TransitiveClosure()
		if !tc.TransitiveClosure().Equal(tc) {
			return false
		}
		return r.ReflexiveTransitiveClosure().Equal(r.Maybe().TransitiveClosure())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickSubsetMonotone: R ⊆ S implies R⁺ ⊆ S⁺ and R;X ⊆ S;X.
func TestQuickSubsetMonotone(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		r := random(rng, n, 100)
		s := r.Union(random(rng, n, 100))
		x := random(rng, n, 100)
		if !r.TransitiveClosure().SubsetOf(s.TransitiveClosure()) {
			return false
		}
		return r.Compose(x).SubsetOf(s.Compose(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestIsAcyclicWithAllocatesNothing: once its DFS has grown to the
// carrier, the acyclicity test allocates nothing, and it agrees with
// IsAcyclic on reused storage.
func TestIsAcyclicWithAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var d DFS
	for trial := 0; trial < 200; trial++ {
		r := New(1 + rng.Intn(150))
		for i := 0; i < r.N(); i++ {
			r.Add(rng.Intn(r.N()), rng.Intn(r.N()))
		}
		if got, want := r.IsAcyclicWith(&d), r.IsAcyclic(); got != want {
			t.Fatalf("trial %d: IsAcyclicWith = %v, IsAcyclic = %v on %v", trial, got, want, r)
		}
	}
	r := New(200)
	for i := 1; i < 200; i++ {
		r.Add(i-1, i)
	}
	if allocs := testing.AllocsPerRun(20, func() { r.IsAcyclicWith(&d) }); allocs != 0 {
		t.Errorf("IsAcyclicWith allocated %.1f times per call", allocs)
	}
}
