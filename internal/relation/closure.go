package relation

import (
	"fmt"
	"math/bits"
	"slices"
)

// Mark is a checkpoint into a Closure's undo journal; pass it back to
// Rollback to restore the closure to the state at Checkpoint time.
type Mark int

// Closure maintains the transitive closure of a growing relation
// incrementally. The edges added before the closure is first read or
// checkpointed are only collected; the first read closes them in one
// post-order pass over their graph, O((n+E)·⌈n/64⌉), falling back to
// Warshall's O(n²·⌈n/64⌉) only when they are cyclic. From then on
// AddEdge propagates only the delta of one new edge — the rows that
// reach its source absorb the row of its target, word-parallel — and,
// once a Checkpoint has been taken, records every changed word in an
// undo journal so that Checkpoint/Rollback give the exact closure of
// any prefix of the edge sequence. This is the reachability substrate
// of the certification search: the searcher seeds the session order and
// the forced prefix of read dependencies, then pushes WR/WW edges while
// descending and pops them on backtrack, so reachability (and hence
// cycle detection and the forced-precedence masks of the write-order
// enumeration) is maintained instead of recomputed at every node. A
// closure that is never checkpointed (the online monitor's, which only
// grows and absorbs) keeps no journal.
type Closure struct {
	n, words int
	rows     []uint64 // closure bits, row-major: rows[i*words+j/64]
	// pending collects the edges added while settled is false: before
	// the first read or checkpoint, when settle closes them in one pass.
	pending []closureEdge
	settled bool
	// journal holds the overwritten words since the first Checkpoint;
	// before one there is no mark to roll back to, so nothing is kept.
	journal    []closureEntry
	journaling bool
	// selfReach counts elements i with (i, i) in the closure: non-zero
	// exactly when the underlying edge set is cyclic.
	selfReach int
	scratch   []uint64

	// Observability totals (monotonic; rollbacks do not subtract).
	deltaEdges int64 // closure pairs materialised by settle and AddEdge
	undoWords  int64 // journal words restored by Rollback
}

// closureEdge is one edge waiting for settle.
type closureEdge struct{ a, b int32 }

// closureEntry is one journaled word overwrite: rows[idx] held old.
type closureEntry struct {
	idx int
	old uint64
}

// NewClosure returns the closure of the empty relation over
// {0, …, n-1}.
func NewClosure(n int) *Closure {
	if n < 0 {
		panic(fmt.Sprintf("relation: negative carrier size %d", n))
	}
	w := (n + 63) / 64
	return &Closure{n: n, words: w, rows: make([]uint64, n*w), scratch: make([]uint64, w)}
}

// N returns the size of the carrier set.
func (c *Closure) N() int { return c.n }

func (c *Closure) row(i int) []uint64 {
	return c.rows[i*c.words : (i+1)*c.words]
}

func (c *Closure) has(a, b int) bool {
	return c.row(a)[b/64]&(1<<(uint(b)%64)) != 0
}

func (c *Closure) checkPair(a, b int) {
	if a < 0 || a >= c.n || b < 0 || b >= c.n {
		panic(fmt.Sprintf("relation: pair (%d,%d) out of range [0,%d)", a, b, c.n))
	}
}

// Reaches reports whether b is reachable from a through the edges
// added so far (one or more steps).
func (c *Closure) Reaches(a, b int) bool {
	c.checkPair(a, b)
	c.settle()
	return c.has(a, b)
}

// HasCycle reports whether the underlying edge set is cyclic
// (equivalently, the closure is not irreflexive).
func (c *Closure) HasCycle() bool {
	c.settle()
	return c.selfReach > 0
}

// AddEdge inserts the edge (a, b). Before the closure's first read or
// checkpoint it only records the edge for settle. After, it propagates
// the reachability delta: every element that reaches a (and a itself)
// absorbs {b} ∪ reach(b), word-parallel. Redundant edges (b already
// reachable from a) are free. Changed words are journaled for Rollback
// while a checkpoint is outstanding.
func (c *Closure) AddEdge(a, b int) {
	c.checkPair(a, b)
	if !c.settled {
		c.pending = append(c.pending, closureEdge{int32(a), int32(b)})
		return
	}
	if c.words == 1 && !c.journaling {
		c.addEdgeWord(a, b)
		return
	}
	if c.has(a, b) {
		return
	}
	// Snapshot {b} ∪ reach(b) before any row changes: when the new edge
	// closes a cycle, row(b) is itself among the rows being updated.
	copy(c.scratch, c.row(b))
	c.scratch[b/64] |= 1 << (uint(b) % 64)
	aw, abit := a/64, uint64(1)<<(uint(a)%64)
	for i := 0; i < c.n; i++ {
		ri := c.row(i)
		if i != a && ri[aw]&abit == 0 {
			continue // i does not reach a
		}
		base := i * c.words
		dw, dbit := i/64, uint64(1)<<(uint(i)%64)
		for w := 0; w < c.words; w++ {
			merged := ri[w] | c.scratch[w]
			if merged == ri[w] {
				continue
			}
			if c.journaling {
				c.journal = append(c.journal, closureEntry{idx: base + w, old: ri[w]})
			}
			c.deltaEdges += int64(bits.OnesCount64(merged &^ ri[w]))
			if w == dw && ri[w]&dbit == 0 && merged&dbit != 0 {
				c.selfReach++
			}
			ri[w] = merged
		}
	}
}

// addEdgeWord is AddEdge's delta propagation over a carrier of at most
// 64 elements with no journal: every row is one word, indexed directly.
func (c *Closure) addEdgeWord(a, b int) {
	rows := c.rows[:c.n]
	bbit := uint64(1) << uint(b)
	if rows[a]&bbit != 0 {
		return
	}
	add := rows[b] | bbit // {b} ∪ reach(b), before any row changes
	d := add &^ rows[a]
	rows[a] |= d // row a now holds add, so the loop adds nothing to it
	delta, self := bits.OnesCount64(d), int(d>>uint(a)&1)
	for i, ri := range rows {
		// Branch-free: a row that does not reach a ORs in nothing.
		d := add & -(ri >> uint(a) & 1) &^ ri
		rows[i] = ri | d
		delta += bits.OnesCount64(d)
		self += int(d >> uint(i) & 1)
	}
	c.deltaEdges += int64(delta)
	c.selfReach += self
}

// settle closes the pending edges, once: a depth-first pass gives each
// element, in post-order, the union over its successors w of {w} and
// w's finished row. A cycle among the pending edges (a grey successor)
// abandons the pass for Warshall's algorithm. Rows are all zero until
// settle runs, so every bit it leaves set is a pair it materialised.
func (c *Closure) settle() {
	if c.settled {
		return
	}
	c.settled = true
	edges := c.pending
	c.pending = nil
	if len(edges) == 0 {
		return
	}
	if !c.closeAcyclic(edges) {
		clear(c.rows)
		for _, e := range edges {
			c.row(int(e.a))[e.b/64] |= 1 << (uint(e.b) % 64)
		}
		warshall(c.rows, c.n, c.words)
		for i := 0; i < c.n; i++ {
			if c.has(i, i) {
				c.selfReach++
			}
		}
	}
	for _, word := range c.rows {
		c.deltaEdges += int64(bits.OnesCount64(word))
	}
}

// closeAcyclic is settle's post-order pass. It reports false, leaving
// the rows partly filled, when the edges are cyclic.
func (c *Closure) closeAcyclic(edges []closureEdge) bool {
	// Successor lists in compressed form: succ[start[v]:start[v+1]].
	start := make([]int32, c.n+1)
	for _, e := range edges {
		start[e.a+1]++
	}
	for v := 0; v < c.n; v++ {
		start[v+1] += start[v]
	}
	succ := make([]int32, len(edges))
	next := append([]int32(nil), start[:c.n]...)
	for _, e := range edges {
		succ[next[e.a]] = e.b
		next[e.a]++
	}
	copy(next, start[:c.n]) // next[v]: v's first successor not yet visited
	const (
		white = iota
		grey
		black
	)
	colour := make([]byte, c.n)
	var stack []int32 // the grey path
	for root := 0; root < c.n; root++ {
		if colour[root] != white {
			continue
		}
		colour[root] = grey
		stack = append(stack[:0], int32(root))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			if i := next[v]; i < start[v+1] {
				next[v]++
				switch w := succ[i]; colour[w] {
				case grey:
					return false
				case white:
					colour[w] = grey
					stack = append(stack, w)
				}
				continue
			}
			stack = stack[:len(stack)-1]
			colour[v] = black
			rv := c.row(int(v))
			for _, w := range succ[start[v]:start[v+1]] {
				rv[w/64] |= 1 << (uint(w) % 64)
				for k, word := range c.row(int(w)) {
					rv[k] |= word
				}
			}
		}
	}
	return true
}

// Reserve makes room for edges more AddEdge calls before the closure's
// first read or checkpoint, so collecting them does not reallocate as
// it goes. Once the closure has settled AddEdge collects nothing, and
// Reserve does nothing.
func (c *Closure) Reserve(edges int) {
	if !c.settled {
		c.pending = slices.Grow(c.pending, edges)
	}
}

// Checkpoint returns a mark capturing the current closure state, and
// starts the undo journal if this is the first one.
func (c *Closure) Checkpoint() Mark {
	c.settle()
	c.journaling = true
	return Mark(len(c.journal))
}

// Absorb folds node src into node dst: dst inherits everything src
// reached (edges between the two vanish), then src's row and column are
// cleared, leaving src an isolated node that can stand for a new
// element. The result is the exact closure of the remaining edges (with
// src's out-edges re-sourced at dst) when every in-edge of src came
// from dst or from nodes that are absorbed into dst as well; any other
// node that reached src keeps what it reached through it, a superset of
// its true reach. Absorb cannot be rolled back: it discards the journal
// and invalidates every earlier mark.
func (c *Closure) Absorb(dst, src int) {
	c.checkPair(dst, src)
	c.settle()
	if dst == src {
		return
	}
	if c.has(src, src) {
		c.selfReach--
	}
	c.journal, c.journaling = nil, false
	if c.words == 1 {
		rows := c.rows[:c.n]
		dbit, sbit := uint64(1)<<uint(dst), uint64(1)<<uint(src)
		rows[dst] |= rows[src] &^ dbit // src reaching dst does not make dst reach itself
		rows[src] = 0
		for i := range rows {
			rows[i] &^= sbit
		}
		return
	}
	rd, rs := c.row(dst), c.row(src)
	dw, dbit := dst/64, uint64(1)<<(uint(dst)%64)
	self := rd[dw] & dbit // src reaching dst does not make dst reach itself
	for w := range rd {
		rd[w] |= rs[w]
		rs[w] = 0
	}
	rd[dw] = rd[dw]&^dbit | self
	sw, sbit := src/64, uint64(1)<<(uint(src)%64)
	for i := 0; i < c.n; i++ {
		c.rows[i*c.words+sw] &^= sbit
	}
}

// Rollback restores the closure to the state at the given checkpoint,
// undoing every AddEdge since. Rolling back to a mark older than a
// previous rollback target is a no-op for the already-undone part.
func (c *Closure) Rollback(m Mark) {
	if int(m) > len(c.journal) {
		panic(fmt.Sprintf("relation: rollback mark %d beyond journal length %d", m, len(c.journal)))
	}
	c.settle()
	for i := len(c.journal) - 1; i >= int(m); i-- {
		e := c.journal[i]
		row := e.idx / c.words
		w := e.idx % c.words
		if w == row/64 {
			dbit := uint64(1) << (uint(row) % 64)
			if c.rows[e.idx]&dbit != 0 && e.old&dbit == 0 {
				c.selfReach--
			}
		}
		c.rows[e.idx] = e.old
	}
	c.undoWords += int64(len(c.journal) - int(m))
	c.journal = c.journal[:m]
}

// ComposeInto sets dst = left ; C (or left ; C? when reflexive is
// true), where C is the maintained closure. The cost is proportional
// to the number of pairs in left times the row width, so a sparse left
// operand composes cheaply even when the closure is dense — the trick
// the certification search uses to test candidate graphs with a sparse
// anti-dependency relation on the left instead of a dense composite on
// the right.
func (c *Closure) ComposeInto(dst, left *Rel) {
	if dst.n != c.n || left.n != c.n {
		panic(fmt.Sprintf("relation: carrier mismatch (closure %d, dst %d, left %d)", c.n, dst.n, left.n))
	}
	c.settle()
	if c.words == 1 {
		rows, out := c.rows[:c.n], dst.rows[:c.n]
		for i, word := range left.rows[:c.n] {
			var acc uint64
			for ; word != 0; word &= word - 1 {
				acc |= rows[bits.TrailingZeros64(word)]
			}
			out[i] = acc
		}
		return
	}
	dst.Clear()
	for i := 0; i < c.n; i++ {
		li := left.row(i)
		di := dst.row(i)
		for w, word := range li {
			for word != 0 {
				j := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				cj := c.row(j)
				for k := range di {
					di[k] |= cj[k]
				}
			}
		}
	}
}

// ComposeMaybeInto sets dst = left ; C? = left ∪ (left ; C): like
// ComposeInto but with the reflexive closure on the right.
func (c *Closure) ComposeMaybeInto(dst, left *Rel) {
	c.ComposeInto(dst, left)
	dst.UnionInPlace(left)
}

// Rel returns the closure as a standalone relation (a copy).
func (c *Closure) Rel() *Rel {
	c.settle()
	r := New(c.n)
	copy(r.rows, c.rows)
	return r
}

// Stats returns the observability totals: closure pairs materialised
// (by the one-pass close of the first edges, then by each AddEdge's
// delta propagation) and journal words restored by rollbacks. Both are
// monotonic over the Closure's lifetime. Like any read, Stats closes
// the pending edges first, so the pairs it counts are all of them.
func (c *Closure) Stats() (deltaEdges, undoWords int64) {
	c.settle()
	return c.deltaEdges, c.undoWords
}
