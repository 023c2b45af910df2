package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Edges is a binary relation stored as sorted adjacency lists: its size
// is proportional to the number of pairs it holds, not to the square of
// a carrier. It is the representation of relations that are sparse by
// construction — the per-object WR(x) and WW(x) of a dependency graph,
// where WW(x) orders the handful of writers of x and every reader has
// one WR(x) predecessor — and offers the part of Rel's interface those
// relations need. Pairs, EachSuccessor and Predecessors enumerate in
// the same (row-major, increasing) order as their Rel counterparts.
//
// The zero value is an empty relation. Like a nil map, a nil *Edges can
// be read (it is empty) but not added to.
type Edges struct {
	rows []edgeRow // sorted by from; no row is empty
}

type edgeRow struct {
	from int
	to   []int // sorted, non-empty
}

// row returns the position of a's row, or where it would be inserted.
func (e *Edges) row(a int) (int, bool) {
	i := sort.Search(len(e.rows), func(i int) bool { return e.rows[i].from >= a })
	return i, i < len(e.rows) && e.rows[i].from == a
}

// Add inserts the pair (a, b).
func (e *Edges) Add(a, b int) {
	i, ok := e.row(a)
	if !ok {
		e.rows = append(e.rows, edgeRow{})
		copy(e.rows[i+1:], e.rows[i:])
		e.rows[i] = edgeRow{from: a, to: []int{b}}
		return
	}
	to := e.rows[i].to
	j := sort.SearchInts(to, b)
	if j < len(to) && to[j] == b {
		return
	}
	to = append(to, 0)
	copy(to[j+1:], to[j:])
	to[j] = b
	e.rows[i].to = to
}

// Remove deletes the pair (a, b).
func (e *Edges) Remove(a, b int) {
	if e == nil {
		return
	}
	i, ok := e.row(a)
	if !ok {
		return
	}
	to := e.rows[i].to
	j := sort.SearchInts(to, b)
	if j == len(to) || to[j] != b {
		return
	}
	if len(to) == 1 {
		e.rows = append(e.rows[:i], e.rows[i+1:]...)
		return
	}
	e.rows[i].to = append(to[:j], to[j+1:]...)
}

// Has reports whether (a, b) is in the relation.
func (e *Edges) Has(a, b int) bool {
	if e == nil {
		return false
	}
	i, ok := e.row(a)
	if !ok {
		return false
	}
	to := e.rows[i].to
	j := sort.SearchInts(to, b)
	return j < len(to) && to[j] == b
}

// EachSuccessor calls fn for every b with (a, b) in the relation, in
// increasing order. fn must not modify the relation.
func (e *Edges) EachSuccessor(a int, fn func(b int)) {
	if e == nil {
		return
	}
	if i, ok := e.row(a); ok {
		for _, b := range e.rows[i].to {
			fn(b)
		}
	}
}

// Predecessors returns the sorted list of elements b with (b, a) in the
// relation.
func (e *Edges) Predecessors(a int) []int {
	if e == nil {
		return nil
	}
	var out []int
	for _, r := range e.rows {
		j := sort.SearchInts(r.to, a)
		if j < len(r.to) && r.to[j] == a {
			out = append(out, r.from)
		}
	}
	return out
}

// Pairs returns every pair of the relation in row-major order.
func (e *Edges) Pairs() [][2]int {
	if e.IsEmpty() {
		return nil
	}
	out := make([][2]int, 0, e.Size())
	for _, r := range e.rows {
		for _, b := range r.to {
			out = append(out, [2]int{r.from, b})
		}
	}
	return out
}

// IsEmpty reports whether the relation has no pairs.
func (e *Edges) IsEmpty() bool { return e == nil || len(e.rows) == 0 }

// Size returns the number of pairs in the relation.
func (e *Edges) Size() int {
	if e == nil {
		return 0
	}
	total := 0
	for _, r := range e.rows {
		total += len(r.to)
	}
	return total
}

// Equal reports whether e and o contain exactly the same pairs.
func (e *Edges) Equal(o *Edges) bool {
	if e.IsEmpty() || o.IsEmpty() {
		return e.IsEmpty() && o.IsEmpty()
	}
	if len(e.rows) != len(o.rows) {
		return false
	}
	for i, r := range e.rows {
		s := o.rows[i]
		if r.from != s.from || len(r.to) != len(s.to) {
			return false
		}
		for j, b := range r.to {
			if s.to[j] != b {
				return false
			}
		}
	}
	return true
}

// Clone returns a deep copy of e; the copy's adjacency lists share one
// backing array, so cloning costs two allocations whatever the number
// of rows.
func (e *Edges) Clone() *Edges {
	c := &Edges{}
	if e.IsEmpty() {
		return c
	}
	c.rows = make([]edgeRow, len(e.rows))
	backing := make([]int, 0, e.Size())
	for i, r := range e.rows {
		start := len(backing)
		backing = append(backing, r.to...)
		// The capacity is capped so that a later Add to this row
		// reallocates instead of overwriting its neighbour.
		c.rows[i] = edgeRow{from: r.from, to: backing[start:len(backing):len(backing)]}
	}
	return c
}

// AddTo inserts every pair of e into the dense relation r.
func (e *Edges) AddTo(r *Rel) {
	if e == nil {
		return
	}
	for _, row := range e.rows {
		for _, b := range row.to {
			r.Add(row.from, b)
		}
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
