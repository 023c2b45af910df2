package relation

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Edges is a binary relation stored as one sorted array of pairs: its
// size is proportional to the number of pairs it holds, not to the
// square of a carrier, and it is one allocation however many rows it
// spans. It is the representation of relations that are sparse by
// construction — the per-object WR(x) and WW(x) of a dependency graph,
// where WW(x) orders the handful of writers of x and every reader has
// one WR(x) predecessor — and offers the part of Rel's interface those
// relations need. Pairs, EachSuccessor and Predecessors enumerate in
// the same (row-major, increasing) order as their Rel counterparts.
// Elements are stored as int32: no carrier a dense Rel can hold comes
// near that bound.
//
// The zero value is an empty relation. Like a nil map, a nil *Edges can
// be read (it is empty) but not added to.
type Edges struct {
	pairs []edge // sorted by (a, b), no duplicates
}

type edge struct{ a, b int32 }

func compareEdges(p, q edge) int {
	if p.a != q.a {
		return cmp.Compare(p.a, q.a)
	}
	return cmp.Compare(p.b, q.b)
}

// find returns the position of (a, b), or where it would be inserted.
func (e *Edges) find(a, b int) (int, bool) {
	return slices.BinarySearchFunc(e.pairs, edge{int32(a), int32(b)}, compareEdges)
}

// Add inserts the pair (a, b).
func (e *Edges) Add(a, b int) {
	i, ok := e.find(a, b)
	if ok {
		return
	}
	if e.pairs == nil {
		// Most per-object relations hold a handful of pairs: start with
		// room for four rather than growing through one and two.
		e.pairs = make([]edge, 0, 4)
	}
	e.pairs = slices.Insert(e.pairs, i, edge{int32(a), int32(b)})
}

// Remove deletes the pair (a, b).
func (e *Edges) Remove(a, b int) {
	if e == nil {
		return
	}
	if i, ok := e.find(a, b); ok {
		e.pairs = slices.Delete(e.pairs, i, i+1)
	}
}

// Has reports whether (a, b) is in the relation.
func (e *Edges) Has(a, b int) bool {
	if e == nil {
		return false
	}
	_, ok := e.find(a, b)
	return ok
}

// EachSuccessor calls fn for every b with (a, b) in the relation, in
// increasing order. fn must not modify the relation.
func (e *Edges) EachSuccessor(a int, fn func(b int)) {
	if e == nil {
		return
	}
	i, _ := e.find(a, -1) // elements are non-negative: the row's start
	for ; i < len(e.pairs) && int(e.pairs[i].a) == a; i++ {
		fn(int(e.pairs[i].b))
	}
}

// Predecessors returns the sorted list of elements b with (b, a) in the
// relation.
func (e *Edges) Predecessors(a int) []int {
	if e == nil {
		return nil
	}
	var out []int
	for _, p := range e.pairs {
		if int(p.b) == a {
			out = append(out, int(p.a))
		}
	}
	return out
}

// Pairs returns every pair of the relation in row-major order.
func (e *Edges) Pairs() [][2]int {
	if e.IsEmpty() {
		return nil
	}
	out := make([][2]int, len(e.pairs))
	for i, p := range e.pairs {
		out[i] = [2]int{int(p.a), int(p.b)}
	}
	return out
}

// IsEmpty reports whether the relation has no pairs.
func (e *Edges) IsEmpty() bool { return e == nil || len(e.pairs) == 0 }

// Size returns the number of pairs in the relation.
func (e *Edges) Size() int {
	if e == nil {
		return 0
	}
	return len(e.pairs)
}

// Equal reports whether e and o contain exactly the same pairs.
func (e *Edges) Equal(o *Edges) bool {
	if e.IsEmpty() || o.IsEmpty() {
		return e.IsEmpty() && o.IsEmpty()
	}
	return slices.Equal(e.pairs, o.pairs)
}

// AddTo inserts every pair of e into the dense relation r.
func (e *Edges) AddTo(r *Rel) {
	if e == nil {
		return
	}
	for _, p := range e.pairs {
		r.Add(int(p.a), int(p.b))
	}
}

// IsTotalOrderOn reports whether the relation restricted to the subset
// is a strict total order: irreflexive, transitive over the subset,
// and total. In a strict total order the element of rank i has exactly
// the k-1-i higher-ranked elements as its successors within the
// subset, so it suffices to rank the elements by that out-degree and
// check each one against the elements ranked after it.
func (e *Edges) IsTotalOrderOn(set []int) bool {
	in := make(map[int]bool, len(set))
	for _, a := range set {
		in[a] = true
	}
	type ranked struct{ elem, deg int }
	elems := make([]ranked, 0, len(in))
	for a := range in {
		deg := 0
		e.EachSuccessor(a, func(b int) {
			if in[b] {
				deg++
			}
		})
		elems = append(elems, ranked{a, deg})
	}
	sort.Slice(elems, func(i, j int) bool {
		if elems[i].deg != elems[j].deg {
			return elems[i].deg > elems[j].deg
		}
		return elems[i].elem < elems[j].elem
	})
	for i, r := range elems {
		if r.deg != len(elems)-1-i {
			return false
		}
		for _, s := range elems[i+1:] {
			if !e.Has(r.elem, s.elem) {
				return false
			}
		}
	}
	return true
}

// String renders the relation as a sorted pair list, e.g.
// "{(0,1), (2,0)}". Intended for tests and diagnostics.
func (e *Edges) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, p := range e.Pairs() {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d,%d)", p[0], p[1])
	}
	sb.WriteByte('}')
	return sb.String()
}
