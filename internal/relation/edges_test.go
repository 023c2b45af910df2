package relation

import (
	"math/rand"
	"reflect"
	"testing"
)

// checkEdgesAgainstRel compares every read method of e with its dense
// counterpart over the carrier {0, …, n-1}.
func checkEdgesAgainstRel(t *testing.T, e *Edges, r *Rel, rng *rand.Rand) {
	t.Helper()
	n := r.N()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if e.Has(a, b) != r.Has(a, b) {
				t.Fatalf("Has(%d,%d) = %v, dense %v", a, b, e.Has(a, b), r.Has(a, b))
			}
		}
		var succ []int
		e.EachSuccessor(a, func(b int) { succ = append(succ, b) })
		if !reflect.DeepEqual(succ, r.Successors(a)) {
			t.Fatalf("successors of %d = %v, dense %v", a, succ, r.Successors(a))
		}
		if got, want := e.Predecessors(a), r.Predecessors(a); !reflect.DeepEqual(got, want) {
			t.Fatalf("Predecessors(%d) = %v, dense %v", a, got, want)
		}
	}
	if !reflect.DeepEqual(e.Pairs(), r.Pairs()) {
		t.Fatalf("Pairs = %v, dense %v", e.Pairs(), r.Pairs())
	}
	if e.Size() != r.Size() || e.IsEmpty() != r.IsEmpty() {
		t.Fatalf("Size/IsEmpty = %d/%v, dense %d/%v", e.Size(), e.IsEmpty(), r.Size(), r.IsEmpty())
	}
	if e.String() != r.String() {
		t.Fatalf("String = %s, dense %s", e, r)
	}
	dense := New(n)
	e.AddTo(dense)
	if !dense.Equal(r) {
		t.Fatalf("AddTo gave %v, dense %v", dense, r)
	}
	for trial := 0; trial < 4; trial++ {
		set := rng.Perm(n)[:rng.Intn(n+1)]
		if got, want := e.IsTotalOrderOn(set), r.IsTotalOrderOn(set); got != want {
			t.Fatalf("IsTotalOrderOn(%v) = %v, dense %v on %v", set, got, want, r)
		}
	}
}

// TestEdgesMatchRel drives an edge set and a dense relation with the
// same random add/remove sequences and requires every method to agree
// after every step; sequences biased towards total orders make
// IsTotalOrderOn see both answers.
func TestEdgesMatchRel(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(9)
		e, r := &Edges{}, New(n)
		if trial%3 == 0 {
			// Start from a strict total order on a random subset.
			order := rng.Perm(n)[:rng.Intn(n+1)]
			for i, a := range order {
				for _, b := range order[i+1:] {
					e.Add(a, b)
					r.Add(a, b)
				}
			}
			if !e.IsTotalOrderOn(order) {
				t.Fatalf("total order %v on %v not recognised", e, order)
			}
		}
		for step := 0; step < 40; step++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if rng.Intn(3) == 0 {
				e.Remove(a, b)
				r.Remove(a, b)
			} else {
				e.Add(a, b)
				r.Add(a, b)
			}
			checkEdgesAgainstRel(t, e, r, rng)
		}
		// A clone is equal, and independent in both directions: rows of
		// a clone share one backing array and must not grow into each
		// other.
		c := e.Clone()
		if !c.Equal(e) || !e.Equal(c) {
			t.Fatalf("clone %v differs from %v", c, e)
		}
		want := r.Clone()
		for step := 0; step < 10; step++ {
			a, b := rng.Intn(n), rng.Intn(n)
			c.Add(a, b)
			want.Add(a, b)
		}
		checkEdgesAgainstRel(t, c, want, rng)
		checkEdgesAgainstRel(t, e, r, rng)
		if c.Equal(e) != want.Equal(r) {
			t.Fatalf("Equal = %v, dense %v", c.Equal(e), want.Equal(r))
		}
	}
}

// TestEdgesEqualIgnoresHistory: two sets holding the same pairs are
// equal however they got there, including through removals that empty
// a row.
func TestEdgesEqualIgnoresHistory(t *testing.T) {
	t.Parallel()
	a, b := &Edges{}, &Edges{}
	a.Add(3, 1)
	a.Add(0, 2)
	a.Add(3, 0)
	b.Add(5, 5)
	b.Add(3, 0)
	b.Add(0, 2)
	b.Add(3, 1)
	if a.Equal(b) {
		t.Fatal("different sets equal")
	}
	b.Remove(5, 5)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatalf("%v and %v should be equal", a, b)
	}
	b.Remove(3, 7) // absent pair: no-op
	if !a.Equal(b) {
		t.Fatal("removing an absent pair changed the set")
	}
}

// TestEdgesNilIsEmpty: a nil edge set reads as the empty relation (the
// per-object relation of an object a dependency graph never mentions).
func TestEdgesNilIsEmpty(t *testing.T) {
	t.Parallel()
	var e *Edges
	if !e.IsEmpty() || e.Size() != 0 || e.Has(0, 1) || e.Pairs() != nil || e.Predecessors(1) != nil {
		t.Fatal("nil edge set is not empty")
	}
	e.EachSuccessor(0, func(int) { t.Fatal("nil edge set has a successor") })
	e.Remove(0, 1)
	e.AddTo(New(2))
	if !e.Equal(&Edges{}) || !(&Edges{}).Equal(e) || !e.Clone().IsEmpty() {
		t.Fatal("nil and empty edge sets differ")
	}
	if !e.IsTotalOrderOn(nil) || !e.IsTotalOrderOn([]int{4}) || e.IsTotalOrderOn([]int{1, 2}) {
		t.Fatal("IsTotalOrderOn on a nil edge set")
	}
	if e.String() != "{}" {
		t.Fatalf("String = %q", e.String())
	}
}
