package relation

import (
	"math/rand"
	"testing"
)

// reachRef is the reference closure of the pairs of r: reach[a][b] when
// a path of one or more pairs leads from a to b, found pair by pair
// through Has.
func reachRef(r *Rel) [][]bool {
	n := r.N()
	reach := make([][]bool, n)
	for a := range reach {
		reach[a] = make([]bool, n)
		stack := []int{a}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for b := 0; b < n; b++ {
				if r.Has(v, b) && !reach[a][b] {
					reach[a][b] = true
					stack = append(stack, b)
				}
			}
		}
	}
	return reach
}

// closureMatches fails unless c holds exactly the pairs of want and
// reports a cycle exactly when want relates some element to itself.
func closureMatches(t *testing.T, label string, c *Closure, want [][]bool) {
	t.Helper()
	cyclic := false
	for a := range want {
		cyclic = cyclic || want[a][a]
		for b := range want[a] {
			if c.Reaches(a, b) != want[a][b] {
				t.Fatalf("%s: Reaches(%d, %d) = %v, want %v", label, a, b, !want[a][b], want[a][b])
			}
		}
	}
	if c.HasCycle() != cyclic {
		t.Fatalf("%s: HasCycle = %v, want %v", label, !cyclic, cyclic)
	}
}

// TestSingleWordKernelsMatchDefinition pins the closure and relation
// kernels to their definitions, pair by pair through Has, on carriers
// either side of the one-word boundary: AddEdge with and without an
// outstanding Checkpoint (cycles and self-loops included, with the
// pairs Stats counts), Rollback, ComposeInto, Absorb, Isolate and
// IsAcyclicWith.
func TestSingleWordKernelsMatchDefinition(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(42))
	var d DFS // one working storage for every carrier size
	for _, n := range []int{1, 2, 63, 64, 65, 128} {
		for trial := 0; trial < 6; trial++ {
			// AddEdge, delta by delta: settle the empty closure first so
			// every edge takes the propagation path; from the middle on a
			// checkpoint is outstanding in the odd trials.
			edges := New(n)
			c := NewClosure(n)
			c.HasCycle()
			var mark Mark
			var atMark [][]bool
			steps := 2 * n
			for i := 0; i < steps; i++ {
				if i == steps/2 && trial%2 == 1 {
					mark, atMark = c.Checkpoint(), reachRef(edges)
				}
				a, b := rng.Intn(n), rng.Intn(n)
				if trial < 2 && a > b {
					a, b = b, a // the first trials stay acyclic but for self-loops
				}
				c.AddEdge(a, b)
				edges.Add(a, b)
				if i%max(1, n/8) == 0 || i == steps-1 {
					closureMatches(t, "AddEdge", c, reachRef(edges))
				}
			}
			want := reachRef(edges)
			if trial%2 == 0 {
				pairs := int64(0)
				for a := range want {
					for b := range want[a] {
						if want[a][b] {
							pairs++
						}
					}
				}
				if delta, _ := c.Stats(); delta != pairs {
					t.Fatalf("n=%d: Stats counts %d pairs, the closure holds %d", n, delta, pairs)
				}
			}

			// ComposeInto overwrites dst with left ; C.
			left := random(rng, n, 40)
			dst := random(rng, n, 500)
			c.ComposeInto(dst, left)
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					comp := false
					for j := 0; j < n && !comp; j++ {
						comp = left.Has(a, j) && want[j][b]
					}
					if dst.Has(a, b) != comp {
						t.Fatalf("n=%d: ComposeInto has (%d,%d) = %v, want %v", n, a, b, !comp, comp)
					}
				}
			}

			if trial%2 == 1 {
				c.Rollback(mark)
				closureMatches(t, "Rollback", c, atMark)
				want = atMark
			}

			// Absorb folds src into dst: dst keeps its own pairs and its
			// self-reach and gains src's, src is left isolated.
			ad, as := rng.Intn(n), rng.Intn(n)
			c.Absorb(ad, as)
			if ad != as {
				absorbed := make([][]bool, n)
				for a := range absorbed {
					absorbed[a] = make([]bool, n)
					for b := range absorbed[a] {
						switch {
						case a == as || b == as:
						case a == ad && b != ad:
							absorbed[a][b] = want[ad][b] || want[as][b]
						default:
							absorbed[a][b] = want[a][b]
						}
					}
				}
				want = absorbed
			}
			closureMatches(t, "Absorb", c, want)

			// Isolate clears one row and one column.
			r := random(rng, n, 100)
			before := r.Clone()
			i := rng.Intn(n)
			r.Isolate(i)
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					if want := before.Has(a, b) && a != i && b != i; r.Has(a, b) != want {
						t.Fatalf("n=%d: Isolate(%d) left (%d,%d) = %v, want %v", n, i, a, b, !want, want)
					}
				}
			}

			// IsAcyclicWith agrees with the reference closure, on sparse
			// relations (often acyclic) and denser ones.
			for _, perMille := range []int{2, 10, 60} {
				r := random(rng, n, perMille)
				reach := reachRef(r)
				acyclic := true
				for a := range reach {
					acyclic = acyclic && !reach[a][a]
				}
				if got := r.IsAcyclicWith(&d); got != acyclic {
					t.Fatalf("n=%d: IsAcyclicWith = %v, want %v for %v", n, got, acyclic, r)
				}
			}
		}
	}
}
