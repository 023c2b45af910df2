package relation

import (
	"fmt"
	"math/bits"
)

// Mark is a checkpoint into a Closure's undo journal; pass it back to
// Rollback to restore the closure to the state at Checkpoint time.
type Mark int

// Closure maintains the transitive closure of a growing relation
// incrementally. Where TransitiveClosure recomputes R⁺ from scratch in
// O(n²·⌈n/64⌉), AddEdge propagates only the delta of one new edge —
// the rows that reach its source absorb the row of its target,
// word-parallel — and, once a Checkpoint has been taken, records every
// changed word in an undo journal so that Checkpoint/Rollback give the
// exact closure of any prefix of the edge sequence. This is the
// reachability substrate of the certification search: the searcher
// pushes WR/WW edges while descending and pops them on backtrack, so
// reachability (and hence cycle detection and the forced-precedence
// masks of the write-order enumeration) is maintained instead of
// recomputed at every node. A closure that is never checkpointed (the
// online monitor's, which only grows and absorbs) keeps no journal.
type Closure struct {
	n, words int
	rows     []uint64 // closure bits, row-major: rows[i*words+j/64]
	// journal holds the overwritten words since the first Checkpoint;
	// before one there is no mark to roll back to, so nothing is kept.
	journal    []closureEntry
	journaling bool
	// selfReach counts elements i with (i, i) in the closure: non-zero
	// exactly when the underlying edge set is cyclic.
	selfReach int
	scratch   []uint64

	// Observability totals (monotonic; rollbacks do not subtract).
	deltaEdges int64 // closure pairs materialised by delta propagation
	undoWords  int64 // journal words restored by Rollback
}

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

// ClosureOf returns the closure seeded with R⁺ of the given relation.
// Edges added later propagate incrementally; the seed itself is below
// every checkpoint and is never rolled back.
func ClosureOf(r *Rel) *Closure {
	c := NewClosure(r.n)
	tc := r.TransitiveClosure()
	copy(c.rows, tc.rows)
	for i := 0; i < c.n; i++ {
		if c.has(i, i) {
			c.selfReach++
		}
	}
	return c
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
	return c.has(a, b)
}

// HasCycle reports whether the underlying edge set is cyclic
// (equivalently, the closure is not irreflexive).
func (c *Closure) HasCycle() bool { return c.selfReach > 0 }

// AddEdge inserts the edge (a, b) and propagates the reachability
// delta: every element that reaches a (and a itself) absorbs
// {b} ∪ reach(b), word-parallel. Redundant edges (b already reachable
// from a) are free. Changed words are journaled for Rollback while a
// checkpoint is outstanding.
func (c *Closure) AddEdge(a, b int) {
	c.checkPair(a, b)
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

// Checkpoint returns a mark capturing the current closure state, and
// starts the undo journal if this is the first one.
func (c *Closure) Checkpoint() Mark {
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
	if dst == src {
		return
	}
	if c.has(src, src) {
		c.selfReach--
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
	c.journal, c.journaling = nil, false
}

// Rollback restores the closure to the state at the given checkpoint,
// undoing every AddEdge since. Rolling back to a mark older than a
// previous rollback target is a no-op for the already-undone part.
func (c *Closure) Rollback(m Mark) {
	if int(m) > len(c.journal) {
		panic(fmt.Sprintf("relation: rollback mark %d beyond journal length %d", m, len(c.journal)))
	}
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
	r := New(c.n)
	copy(r.rows, c.rows)
	return r
}

// Stats returns the observability totals: closure pairs materialised
// by delta propagation and journal words restored by rollbacks. Both
// are monotonic over the Closure's lifetime.
func (c *Closure) Stats() (deltaEdges, undoWords int64) {
	return c.deltaEdges, c.undoWords
}
