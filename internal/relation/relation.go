// Package relation implements binary relations over {0, …, n-1}: Rel,
// dense and backed by bitset adjacency matrices; Edges, sparse and
// backed by sorted adjacency lists; and Closure, a transitive closure
// maintained under edge insertion.
//
// The analyses in this module are dominated by relational algebra over
// transaction sets: unions, sequential composition (R1 ; R2),
// transitive closures, acyclicity and totality checks (Figures 1 and 3
// of the paper). Representing a relation as n rows of ⌈n/64⌉ machine
// words makes composition and closure word-parallel, which keeps the
// soundness construction of Theorem 10(i) — which recomputes closures
// while totalising the commit order — comfortably fast for histories
// with thousands of transactions. Relations that are only ever built,
// enumerated and probed, and that hold a handful of pairs by
// construction (the per-object WR(x) and WW(x) of Definition 6), use
// Edges instead, whose cost is the number of pairs.
//
// All operations treat relations as immutable values unless the method
// name says otherwise (the mutating methods are the *InPlace variants
// and Add/Remove); the convention follows the style of the standard
// library's big.Int: result-producing methods allocate.
package relation

import (
	"fmt"
	"math/bits"
	"strings"
)

// Rel is a binary relation over the set {0, …, N-1}. The zero value is
// an empty relation over the empty set; use New to create a relation
// over a non-empty carrier.
type Rel struct {
	n     int
	words int      // words per row: ⌈n/64⌉
	rows  []uint64 // n*words bits, row-major
}

// New returns the empty relation over {0, …, n-1}. n must be
// non-negative.
func New(n int) *Rel {
	if n < 0 {
		panic(fmt.Sprintf("relation: negative carrier size %d", n))
	}
	w := (n + 63) / 64
	return &Rel{n: n, words: w, rows: make([]uint64, n*w)}
}

// FromPairs returns the relation over {0, …, n-1} containing exactly
// the given pairs. It returns an error if any pair is out of range.
func FromPairs(n int, pairs [][2]int) (*Rel, error) {
	r := New(n)
	for _, p := range pairs {
		if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
			return nil, fmt.Errorf("relation: pair (%d,%d) out of range [0,%d)", p[0], p[1], n)
		}
		r.Add(p[0], p[1])
	}
	return r, nil
}

// Identity returns the identity relation {(i,i) | 0 ≤ i < n}.
func Identity(n int) *Rel {
	r := New(n)
	for i := 0; i < n; i++ {
		r.Add(i, i)
	}
	return r
}

// Full returns the complete relation over {0, …, n-1} (including the
// diagonal).
func Full(n int) *Rel {
	r := New(n)
	for i := range r.rows {
		r.rows[i] = ^uint64(0)
	}
	r.maskTail()
	return r
}

// maskTail clears the unused bits past column n-1 in every row.
func (r *Rel) maskTail() {
	if r.words == 0 {
		return
	}
	rem := r.n % 64
	if rem == 0 {
		return
	}
	mask := (uint64(1) << rem) - 1
	for i := 0; i < r.n; i++ {
		r.rows[i*r.words+r.words-1] &= mask
	}
}

// N returns the size of the carrier set.
func (r *Rel) N() int { return r.n }

// row returns the bitset row for element i.
func (r *Rel) row(i int) []uint64 {
	return r.rows[i*r.words : (i+1)*r.words]
}

// check panics if (a, b) is outside the carrier. Carrier mismatches in
// this package are programming errors (all relations in an analysis
// share one history), hence panic rather than error.
func (r *Rel) check(a, b int) {
	if a < 0 || a >= r.n || b < 0 || b >= r.n {
		panic(fmt.Sprintf("relation: pair (%d,%d) out of range [0,%d)", a, b, r.n))
	}
}

// Add inserts the pair (a, b).
func (r *Rel) Add(a, b int) {
	r.check(a, b)
	r.row(a)[b/64] |= 1 << (uint(b) % 64)
}

// Remove deletes the pair (a, b).
func (r *Rel) Remove(a, b int) {
	r.check(a, b)
	r.row(a)[b/64] &^= 1 << (uint(b) % 64)
}

// Isolate deletes every pair with i on either side, clearing row i and
// column i.
func (r *Rel) Isolate(i int) {
	r.check(i, i)
	if r.words == 1 {
		rows, ibit := r.rows[:r.n], uint64(1)<<uint(i)
		rows[i] = 0
		for a := range rows {
			rows[a] &^= ibit
		}
		return
	}
	row := r.row(i)
	for w := range row {
		row[w] = 0
	}
	iw, ibit := i/64, uint64(1)<<(uint(i)%64)
	for a := 0; a < r.n; a++ {
		r.rows[a*r.words+iw] &^= ibit
	}
}

// Has reports whether (a, b) is in the relation.
func (r *Rel) Has(a, b int) bool {
	r.check(a, b)
	return r.row(a)[b/64]&(1<<(uint(b)%64)) != 0
}

// Clone returns a deep copy of r.
func (r *Rel) Clone() *Rel {
	c := &Rel{n: r.n, words: r.words, rows: make([]uint64, len(r.rows))}
	copy(c.rows, r.rows)
	return c
}

// Clear removes every pair, keeping the carrier.
func (r *Rel) Clear() {
	for i := range r.rows {
		r.rows[i] = 0
	}
}

// CopyFrom overwrites r with the pairs of s (same carrier) and returns
// r. Together with ComposeOf and the *InPlace variants it lets hot
// paths reuse scratch relations instead of allocating per candidate.
func (r *Rel) CopyFrom(s *Rel) *Rel {
	r.sameCarrier(s)
	copy(r.rows, s.rows)
	return r
}

// sameCarrier panics unless r and s range over the same carrier.
func (r *Rel) sameCarrier(s *Rel) {
	if r.n != s.n {
		panic(fmt.Sprintf("relation: carrier mismatch %d vs %d", r.n, s.n))
	}
}

// Union returns r ∪ s.
func (r *Rel) Union(s *Rel) *Rel {
	r.sameCarrier(s)
	out := r.Clone()
	for i := range out.rows {
		out.rows[i] |= s.rows[i]
	}
	return out
}

// UnionInPlace adds every pair of s into r and returns r.
func (r *Rel) UnionInPlace(s *Rel) *Rel {
	r.sameCarrier(s)
	for i := range r.rows {
		r.rows[i] |= s.rows[i]
	}
	return r
}

// Intersect returns r ∩ s.
func (r *Rel) Intersect(s *Rel) *Rel {
	r.sameCarrier(s)
	out := r.Clone()
	for i := range out.rows {
		out.rows[i] &= s.rows[i]
	}
	return out
}

// Minus returns r \ s.
func (r *Rel) Minus(s *Rel) *Rel {
	r.sameCarrier(s)
	out := r.Clone()
	for i := range out.rows {
		out.rows[i] &^= s.rows[i]
	}
	return out
}

// Compose returns the sequential composition r ; s =
// {(a, c) | ∃b. (a, b) ∈ r ∧ (b, c) ∈ s}.
func (r *Rel) Compose(s *Rel) *Rel {
	r.sameCarrier(s)
	out := New(r.n)
	for a := 0; a < r.n; a++ {
		ra := r.row(a)
		oa := out.row(a)
		for w, word := range ra {
			for word != 0 {
				b := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				sb := s.row(b)
				for k := range oa {
					oa[k] |= sb[k]
				}
			}
		}
	}
	return out
}

// ComposeOf overwrites r with the sequential composition a ; b and
// returns r. r must not alias a or b.
func (r *Rel) ComposeOf(a, b *Rel) *Rel {
	r.sameCarrier(a)
	r.sameCarrier(b)
	if r == a || r == b {
		panic("relation: ComposeOf destination aliases an operand")
	}
	r.Clear()
	for i := 0; i < r.n; i++ {
		ai := a.row(i)
		oi := r.row(i)
		for w, word := range ai {
			for word != 0 {
				j := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				bj := b.row(j)
				for k := range oi {
					oi[k] |= bj[k]
				}
			}
		}
	}
	return r
}

// Maybe returns R? = R ∪ Id, the reflexive closure.
func (r *Rel) Maybe() *Rel {
	out := r.Clone()
	for i := 0; i < out.n; i++ {
		out.row(i)[i/64] |= 1 << (uint(i) % 64)
	}
	return out
}

// MaybeInPlace adds the identity pairs to r and returns r.
func (r *Rel) MaybeInPlace() *Rel {
	for i := 0; i < r.n; i++ {
		r.row(i)[i/64] |= 1 << (uint(i) % 64)
	}
	return r
}

// Inverse returns R⁻¹ = {(b, a) | (a, b) ∈ R}.
func (r *Rel) Inverse() *Rel {
	out := New(r.n)
	for a := 0; a < r.n; a++ {
		ra := r.row(a)
		for w, word := range ra {
			for word != 0 {
				b := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				out.Add(b, a)
			}
		}
	}
	return out
}

// TransitiveClosure returns R⁺ using the bit-parallel Warshall
// algorithm: for every pivot k, each row that reaches k absorbs k's
// row. O(n²·⌈n/64⌉).
func (r *Rel) TransitiveClosure() *Rel {
	out := r.Clone()
	warshall(out.rows, out.n, out.words)
	return out
}

// warshall closes the n×n bit matrix rows (words per row) in place.
func warshall(rows []uint64, n, words int) {
	for k := 0; k < n; k++ {
		rk := rows[k*words : (k+1)*words]
		kw, kb := k/64, uint64(1)<<(uint(k)%64)
		for i := 0; i < n; i++ {
			if i == k {
				continue
			}
			ri := rows[i*words : (i+1)*words]
			if ri[kw]&kb != 0 {
				for w := range ri {
					ri[w] |= rk[w]
				}
			}
		}
		// Row k may reach itself through a cycle; if so it absorbs
		// nothing new from itself, so no self-step is needed.
	}
}

// ReflexiveTransitiveClosure returns R*.
func (r *Rel) ReflexiveTransitiveClosure() *Rel {
	return r.TransitiveClosure().Maybe()
}

// IsEmpty reports whether the relation has no pairs.
func (r *Rel) IsEmpty() bool {
	for _, w := range r.rows {
		if w != 0 {
			return false
		}
	}
	return true
}

// Size returns the number of pairs in the relation.
func (r *Rel) Size() int {
	total := 0
	for _, w := range r.rows {
		total += bits.OnesCount64(w)
	}
	return total
}

// Equal reports whether r and s contain exactly the same pairs over
// the same carrier.
func (r *Rel) Equal(s *Rel) bool {
	if r.n != s.n {
		return false
	}
	for i := range r.rows {
		if r.rows[i] != s.rows[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every pair of r is in s.
func (r *Rel) SubsetOf(s *Rel) bool {
	r.sameCarrier(s)
	for i := range r.rows {
		if r.rows[i]&^s.rows[i] != 0 {
			return false
		}
	}
	return true
}

// IsIrreflexive reports whether no element is related to itself.
func (r *Rel) IsIrreflexive() bool {
	for i := 0; i < r.n; i++ {
		if r.row(i)[i/64]&(1<<(uint(i)%64)) != 0 {
			return false
		}
	}
	return true
}

// IsTransitive reports whether (R ; R) ⊆ R.
func (r *Rel) IsTransitive() bool {
	return r.Compose(r).SubsetOf(r)
}

// IsAcyclic reports whether the relation, viewed as a directed graph,
// has no cycles (equivalently, R⁺ is irreflexive). It runs an
// iterative three-colour DFS rather than computing the closure.
func (r *Rel) IsAcyclic() bool {
	var d DFS
	return r.IsAcyclicWith(&d)
}

// DFS is the working storage of IsAcyclicWith: a colour per element
// and the explicit stack. A caller that tests many relations keeps one
// DFS, and once it has grown to the carrier the test allocates
// nothing. The zero value is ready to use; a DFS must not be shared
// between goroutines.
type DFS struct {
	colour []byte
	stack  []dfsFrame
}

// dfsFrame is one grey node: the word of its row being scanned and the
// bits of that word not yet visited.
type dfsFrame struct {
	node, w int
	bits    uint64
}

// IsAcyclicWith is IsAcyclic with caller-owned working storage.
func (r *Rel) IsAcyclicWith(d *DFS) bool {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	if cap(d.colour) < r.n {
		// Every element is pushed at most once, so the stack never
		// outgrows the carrier either.
		d.colour = make([]byte, r.n)
		d.stack = make([]dfsFrame, 0, r.n)
	}
	if r.words == 1 {
		return r.isAcyclicWord(d.stack[:0])
	}
	colour := d.colour[:r.n]
	clear(colour)
	stack := d.stack[:0]
	for start := 0; start < r.n; start++ {
		if colour[start] != white {
			continue
		}
		colour[start] = grey
		stack = append(stack, dfsFrame{node: start, bits: r.row(start)[0]})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.bits == 0 {
				if f.w++; f.w < r.words {
					f.bits = r.row(f.node)[f.w]
					continue
				}
				colour[f.node] = black
				stack = stack[:len(stack)-1]
				continue
			}
			b := f.w*64 + bits.TrailingZeros64(f.bits)
			f.bits &= f.bits - 1
			switch colour[b] {
			case grey:
				return false
			case white:
				colour[b] = grey
				stack = append(stack, dfsFrame{node: b, bits: r.row(b)[0]})
			}
		}
	}
	return true
}

// isAcyclicWord is IsAcyclicWith's search over a carrier of at most 64
// elements: every row is one word, indexed directly, and the colours
// are two words — grey for the path, black for the finished nodes,
// which a frame drops from its successors without visiting them.
func (r *Rel) isAcyclicWord(stack []dfsFrame) bool {
	rows := r.rows[:r.n]
	var grey, black uint64
	for start, word := range rows {
		if black>>uint(start)&1 != 0 {
			continue
		}
		grey |= 1 << uint(start)
		stack = append(stack, dfsFrame{node: start, bits: word})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			next := f.bits &^ black
			if next == 0 {
				bit := uint64(1) << uint(f.node)
				grey &^= bit
				black |= bit
				stack = stack[:len(stack)-1]
				continue
			}
			if next&grey != 0 {
				return false // an edge back into the path
			}
			b := bits.TrailingZeros64(next)
			f.bits = next &^ (1 << uint(b))
			grey |= 1 << uint(b)
			stack = append(stack, dfsFrame{node: b, bits: rows[b]})
		}
	}
	return true
}

// IsStrictPartialOrder reports whether the relation is transitive and
// irreflexive (Definition 1 of the paper).
func (r *Rel) IsStrictPartialOrder() bool {
	return r.IsIrreflexive() && r.IsTransitive()
}

// IsTotalOn reports whether the relation relates every two distinct
// elements of the given subset one way or the other.
func (r *Rel) IsTotalOn(set []int) bool {
	for i, a := range set {
		for _, b := range set[i+1:] {
			if a != b && !r.Has(a, b) && !r.Has(b, a) {
				return false
			}
		}
	}
	return true
}

// IsTotalOrderOn reports whether the relation restricted to the subset
// is a strict total order: irreflexive, transitive over the subset,
// and total.
func (r *Rel) IsTotalOrderOn(set []int) bool {
	for _, a := range set {
		if a < 0 || a >= r.n || r.Has(a, a) {
			return false
		}
	}
	for _, a := range set {
		for _, b := range set {
			if !r.Has(a, b) {
				continue
			}
			if r.Has(b, a) {
				return false // antisymmetry violated
			}
			for _, c := range set {
				if r.Has(b, c) && !r.Has(a, c) {
					return false
				}
			}
		}
	}
	return r.IsTotalOn(set)
}

// IsTotal reports whether every two distinct elements of the whole
// carrier are related one way or the other.
func (r *Rel) IsTotal() bool {
	for a := 0; a < r.n; a++ {
		for b := a + 1; b < r.n; b++ {
			if !r.Has(a, b) && !r.Has(b, a) {
				return false
			}
		}
	}
	return true
}

// Successors returns the sorted list of elements b with (a, b) ∈ R.
func (r *Rel) Successors(a int) []int {
	if a < 0 || a >= r.n {
		panic(fmt.Sprintf("relation: element %d out of range [0,%d)", a, r.n))
	}
	var out []int
	ra := r.row(a)
	for w, word := range ra {
		for word != 0 {
			b := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			out = append(out, b)
		}
	}
	return out
}

// EachSuccessor calls fn for every b with (a, b) ∈ R, in increasing
// order, without allocating.
func (r *Rel) EachSuccessor(a int, fn func(b int)) {
	if a < 0 || a >= r.n {
		panic(fmt.Sprintf("relation: element %d out of range [0,%d)", a, r.n))
	}
	ra := r.row(a)
	for w, word := range ra {
		for word != 0 {
			b := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			fn(b)
		}
	}
}

// Predecessors returns the sorted list of elements b with (b, a) ∈ R.
// This is R⁻¹(a) in the paper's notation.
func (r *Rel) Predecessors(a int) []int {
	if a < 0 || a >= r.n {
		panic(fmt.Sprintf("relation: element %d out of range [0,%d)", a, r.n))
	}
	var out []int
	w, b := a/64, uint64(1)<<(uint(a)%64)
	for p := 0; p < r.n; p++ {
		if r.row(p)[w]&b != 0 {
			out = append(out, p)
		}
	}
	return out
}

// Pairs returns every pair of the relation in row-major order.
func (r *Rel) Pairs() [][2]int {
	var out [][2]int
	for a := 0; a < r.n; a++ {
		for _, b := range r.Successors(a) {
			out = append(out, [2]int{a, b})
		}
	}
	return out
}

// TopoSort returns a topological order of the carrier consistent with
// the relation, or an error if the relation is cyclic. Ties are broken
// by preferring lower-numbered elements first, making the output
// deterministic.
func (r *Rel) TopoSort() ([]int, error) {
	indeg := make([]int, r.n)
	for a := 0; a < r.n; a++ {
		ra := r.row(a)
		for w, word := range ra {
			for word != 0 {
				b := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				if b != a {
					indeg[b]++
				} else {
					return nil, fmt.Errorf("relation: self-loop at %d", a)
				}
			}
		}
	}
	// Min-heap-free deterministic Kahn: scan for the smallest ready
	// node. O(n²) but n is small and determinism matters for tests.
	order := make([]int, 0, r.n)
	done := make([]bool, r.n)
	for len(order) < r.n {
		next := -1
		for v := 0; v < r.n; v++ {
			if !done[v] && indeg[v] == 0 {
				next = v
				break
			}
		}
		if next < 0 {
			return nil, fmt.Errorf("relation: cycle detected after %d of %d nodes", len(order), r.n)
		}
		done[next] = true
		order = append(order, next)
		for _, b := range r.Successors(next) {
			indeg[b]--
		}
	}
	return order, nil
}

// FindCycle returns one cycle of the relation as a node sequence
// v₀ → v₁ → … → v₀ (first element repeated at the end), or nil if the
// relation is acyclic. Intended for diagnostics.
func (r *Rel) FindCycle() []int {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	colour := make([]byte, r.n)
	parent := make([]int, r.n)
	for i := range parent {
		parent[i] = -1
	}
	var cycle []int
	var dfs func(v int) bool
	dfs = func(v int) bool {
		colour[v] = grey
		for _, b := range r.Successors(v) {
			switch colour[b] {
			case grey:
				// Unwind the parent chain v → … → b, then emit the
				// cycle in forward edge order b → … → v → b.
				var rev []int
				for u := v; u != b; u = parent[u] {
					rev = append(rev, u)
				}
				cycle = append(cycle, b)
				for i := len(rev) - 1; i >= 0; i-- {
					cycle = append(cycle, rev[i])
				}
				cycle = append(cycle, b)
				return true
			case white:
				parent[b] = v
				if dfs(b) {
					return true
				}
			}
		}
		colour[v] = black
		return false
	}
	for v := 0; v < r.n; v++ {
		if colour[v] == white && dfs(v) {
			return cycle
		}
	}
	return nil
}

// String renders the relation as a sorted pair list, e.g.
// "{(0,1), (2,0)}". Intended for tests and diagnostics.
func (r *Rel) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	for _, p := range r.Pairs() {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "(%d,%d)", p[0], p[1])
	}
	sb.WriteByte('}')
	return sb.String()
}
