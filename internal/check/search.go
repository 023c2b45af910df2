package check

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"slices"
	"time"

	"sian/internal/depgraph"
	"sian/internal/model"
	"sian/internal/obs"
)

// readSite is one transaction-level external read (T ⊢ read(x, v)),
// of the object with id obj. Read sites' candidate lists are windows
// of a shared array, not one allocation each.
type readSite struct {
	reader     int
	obj        int32
	val        model.Value
	candidates []int
}

// choice records the decisions identifying one node of the search
// tree: the WR source chosen for every read site and the write orders
// placed so far. The search journal-mutates a single builder, so
// instead of cloning graphs for diagnostics it records choices and
// replays the interesting ones (the last rejected candidate, the last
// pruned branch) into fresh graphs once the search is over.
type choice struct {
	wr        []int // writer chosen for reads[i]
	orders    []int // the write orders of objs[0 .. numOrders), laid out as search.orders
	numOrders int
}

// search carries the state of the dependency-graph search: one
// sequential mutate-and-undo DFS on one depgraph.Builder.
type search struct {
	h      *model.History
	m      depgraph.Model
	budget int
	pinned int // index forced first in every WW order, or -1
	// Objects are interned once per certification: an object's id is
	// its rank among the history's object names, sorted.
	names   []model.Obj
	reads   []readSite
	objs    []int   // ids of the objects with ≥2 writers, needing a WW order
	writers [][]int // WriteTx_x by object id

	bld   *depgraph.Builder
	curWR []int // the WR source chosen for each read site so far
	// orders holds the write order chosen so far for each of objs: the
	// one of objs[i] is orders[orderAt[i]:orderAt[i+1]].
	orders   []int
	orderAt  []int32
	examined int        // candidates tested, bounds the budget
	forced   [64]uint64 // orderWrites' precedence masks, reused per object

	// lastCandidate is the most recent rejected complete candidate; with
	// one candidate examined it is the definitive rejection
	// explanation. lastPruned is the most recent partial candidate whose
	// dependencies were already cyclic. A negative verdict's
	// explanation replays them. Each keeps its buffers from one record
	// to the next.
	lastCandidate, lastPruned *choice

	// Optional observability (all nil-safe no-ops when unset). timed
	// turns on cycleNS, the cycle checks' time summed, for the trace's
	// check_extension_search attrs.
	timed     bool
	cycleNS   int64
	cExamined *obs.Counter
	cPruned   *obs.Counter
	cWR       *obs.Counter
	cUndo     *obs.Counter
	cDelta    *obs.Counter
}

func newSearch(h *model.History, m depgraph.Model, budget, pinned int) (*search, error) {
	s := &search{h: h, m: m, budget: budget, pinned: pinned}
	s.names, s.reads, s.writers = indexHistory(h)
	for _, site := range s.reads {
		if len(site.candidates) == 0 {
			return nil, fmt.Errorf("check: transaction %d reads (%s, %d) never finally written", site.reader, s.names[site.obj], site.val)
		}
	}
	s.orderAt = []int32{0}
	for x, w := range s.writers {
		if len(w) >= 2 {
			s.objs = append(s.objs, x)
			s.orderAt = append(s.orderAt, s.orderAt[len(s.orderAt)-1]+int32(len(w)))
		}
	}
	return s, nil
}

// finalWrite records T ⊢ write(x, v).
type finalWrite struct {
	obj, tx int32
	val     model.Value
}

// internSeed hashes object names into internObjects' table.
var internSeed = maphash.MakeSeed()

// internObjects names every object of the history by a dense id, its
// rank among the sorted object names. It returns the names by id and
// the id of every operation (of nOps), transaction by transaction.
// Names meet through an open-addressing table of int32 slots, at most
// half full: sorting every operation's name instead would compare
// strings O(nOps log nOps) times, several times the cost of hashing
// each once.
func internObjects(h *model.History, nOps int) (names []model.Obj, opObj []int32) {
	size := 1
	for size < 2*nOps {
		size <<= 1
	}
	table := make([]int32, size) // first-seen id + 1; 0 is a free slot
	mask := uint64(size - 1)
	opObj = make([]int32, 0, nOps)
	for i := 0; i < h.NumTransactions(); i++ {
		for _, op := range h.Transaction(i).Ops {
			slot := maphash.String(internSeed, string(op.Obj)) & mask
			for table[slot] != 0 && names[table[slot]-1] != op.Obj {
				slot = (slot + 1) & mask
			}
			if table[slot] == 0 {
				names = append(names, op.Obj)
				table[slot] = int32(len(names))
			}
			opObj = append(opObj, table[slot]-1)
		}
	}
	byName := make([]int32, len(names)) // sorted position -> first-seen id
	for i := range byName {
		byName[i] = int32(i)
	}
	slices.SortFunc(byName, func(a, b int32) int { return cmp.Compare(names[a], names[b]) })
	rank := make([]int32, len(names))
	sorted := make([]model.Obj, len(names))
	for r, id := range byName {
		rank[id] = int32(r)
		sorted[r] = names[id]
	}
	for i, id := range opObj {
		opObj[i] = rank[id]
	}
	return sorted, opObj
}

// indexHistory makes one pass over the history's operations and
// returns the object names by id; the read sites (T ⊢ read(x, v): the
// first access of T to x is a read), in increasing transaction order
// and sorted by object within a transaction, each with its candidate
// sources: the transactions other than the reader with
// T ⊢ write(x, v), in increasing order; and WriteTx_x for every object,
// in increasing order.
func indexHistory(h *model.History) (names []model.Obj, reads []readSite, writers [][]int) {
	nOps, nReads := 0, 0
	for i := 0; i < h.NumTransactions(); i++ {
		for _, op := range h.Transaction(i).Ops {
			nOps++
			if op.Kind == model.OpRead {
				nReads++
			}
		}
	}
	names, opObj := internObjects(h, nOps)
	// touched[x] is one more than the last transaction seen accessing
	// x: a different value means the current transaction's first
	// access to x.
	touched := make([]int32, len(names))
	reads = make([]readSite, 0, nReads)
	finals := make([]finalWrite, 0, nOps-nReads)
	for i := 0; i < h.NumTransactions(); i++ {
		ops := h.Transaction(i).Ops
		ids := opObj[:len(ops)]
		opObj = opObj[len(ops):]
		first := len(reads)
		mark := int32(i + 1)
		for k, op := range ops {
			x := ids[k]
			if touched[x] == mark {
				continue
			}
			touched[x] = mark
			if op.Kind == model.OpRead {
				reads = append(reads, readSite{reader: i, obj: x, val: op.Val})
			}
		}
		site := reads[first:]
		slices.SortFunc(site, func(a, b readSite) int { return cmp.Compare(a.obj, b.obj) })
		// Backwards, the first write met on an object is the final one;
		// touched[x] turning negative marks the earlier ones as seen.
		for k := len(ops) - 1; k >= 0; k-- {
			if x := ids[k]; ops[k].Kind == model.OpWrite && touched[x] == mark {
				touched[x] = -mark
				finals = append(finals, finalWrite{obj: x, tx: int32(i), val: ops[k].Val})
			}
		}
	}
	// Group the final writes by object with a counting sort: finals are
	// in transaction order, and stay so within each object.
	start := make([]int32, len(names)+1)
	for _, f := range finals {
		start[f.obj+1]++
	}
	for x := range names {
		start[x+1] += start[x]
	}
	byObj := make([]finalWrite, len(finals))
	fill := touched // no longer needed: the next free position per object
	copy(fill, start)
	for _, f := range finals {
		byObj[fill[f.obj]] = f
		fill[f.obj]++
	}
	flat := make([]int, len(byObj))
	for i, f := range byObj {
		flat[i] = int(f.tx)
	}
	writers = make([][]int, len(names))
	for x := range writers {
		writers[x] = flat[start[x]:start[x+1]:start[x+1]]
	}
	// Candidate sources: each object's final writes by value (stable, so
	// the writers of one value stay in transaction order), searched.
	byVal := func(f finalWrite, v model.Value) int { return cmp.Compare(f.val, v) }
	for x := range names {
		if g := byObj[start[x]:start[x+1]]; len(g) > 1 {
			slices.SortStableFunc(g, func(a, b finalWrite) int { return byVal(a, b.val) })
		}
	}
	cands := make([]int, 0, len(reads))
	for i := range reads {
		r := &reads[i]
		g := byObj[start[r.obj]:start[r.obj+1]]
		from := len(cands)
		for k, _ := slices.BinarySearchFunc(g, r.val, byVal); k < len(g) && g[k].val == r.val; k++ {
			if tx := int(g[k].tx); tx != r.reader {
				cands = append(cands, tx)
			}
		}
		r.candidates = cands[from:len(cands):len(cands)]
	}
	return names, reads, writers
}

// run performs the search and returns the first member graph in
// depth-first order (nil if none), the number of candidates examined,
// and an error for budget exhaustion or unsearchable write sets.
func (s *search) run() (*depgraph.Graph, int, error) {
	s.bld = depgraph.NewBuilder(s.h, s.m, s.names)
	// The read sites placed before the first branch are the edges the
	// closure collects before it settles (the write orders come after
	// its first read).
	forced := 0
	for forced < len(s.reads) && len(s.reads[forced].candidates) == 1 {
		forced++
	}
	s.bld.Reserve(forced)
	s.curWR = make([]int, len(s.reads))
	s.orders = make([]int, s.orderAt[len(s.objs)])
	found, err := s.assignReads(0)
	undo, delta := s.bld.Stats()
	s.cUndo.Add(undo)
	s.cDelta.Add(delta)
	if !found || err != nil {
		return nil, s.examined, err
	}
	return s.bld.Graph(), s.examined, nil
}

// replay rebuilds the dependency graph a recorded choice identifies.
func (s *search) replay(c *choice) *depgraph.Graph {
	g := depgraph.New(s.h)
	for i, w := range c.wr {
		g.AddWR(s.names[s.reads[i].obj], w, s.reads[i].reader)
	}
	for oi := 0; oi < c.numOrders; oi++ {
		x := s.names[s.objs[oi]]
		order := c.orders[s.orderAt[oi]:s.orderAt[oi+1]]
		for i := range order {
			for j := i + 1; j < len(order); j++ {
				g.AddWW(x, order[i], order[j])
			}
		}
	}
	return g
}

// assignReads chooses a WR source for every read site from i on, then
// moves on to WW orders. A site with exactly one candidate is placed in
// the loop, without a mark of its own, as orderWrites places a forced
// order: a failure below returns to the nearest frame with an
// alternative left, whose mark predates the edge. Only a site with
// several candidates recurses. A value-traceable history thus reaches
// its candidate without a mark, and the builder closes the forced
// prefix in one pass.
func (s *search) assignReads(i int) (bool, error) {
	for ; i < len(s.reads) && len(s.reads[i].candidates) == 1; i++ {
		site := s.reads[i]
		s.cWR.Inc()
		s.bld.ApplyWR(int(site.obj), site.candidates[0], site.reader)
		s.curWR[i] = site.candidates[0]
	}
	if i == len(s.reads) {
		return s.orderWrites(0)
	}
	site := s.reads[i]
	for _, w := range site.candidates {
		s.cWR.Inc()
		mark := s.bld.Mark()
		s.bld.ApplyWR(int(site.obj), w, site.reader)
		s.curWR[i] = w
		found, err := s.assignReads(i + 1)
		if found || err != nil {
			return found, err // keep the builder state for Graph
		}
		s.bld.Undo(mark)
	}
	return false, nil
}

// orderWrites chooses a total WW order for each multi-writer object
// from objs[oi] on. Rather than enumerating all k! permutations, it
// only enumerates linear extensions of the precedence already forced
// on the writers by (SO ∪ WR ∪ WW-chosen-so-far)⁺: ordering two
// base-related writers against the base relation would create a base
// cycle, which excludes membership in every model (RW? is reflexive, so
// every base cycle is a composite cycle). The precedence comes straight
// from the builder's maintained closure instead of a per-node
// recomputation.
//
// An object whose forced precedence admits exactly one linear
// extension is placed in the loop, without a mark of its own, for the
// reason assignReads gives. Only an object with several extensions
// recurses, through extend. The depth-first order, and with it
// Examined and the witness, is the one a recursion per object would
// take.
func (s *search) orderWrites(oi int) (bool, error) {
	for ; oi < len(s.objs); oi++ {
		if s.bld.Cyclic() {
			s.cPruned.Inc()
			s.lastPruned = s.record(s.lastPruned, oi)
			return false, nil // base already cyclic: dead branch
		}
		x := s.objs[oi]
		writers := s.writers[x]
		k := len(writers)
		if k > 64 {
			return false, fmt.Errorf("check: object %q has %d writers; search limited to 64", s.names[x], k)
		}
		// forced[i] is the bitmask of writer positions that must precede
		// writers[i]: base-reachability plus the pinned init transaction.
		forced := s.forced[:k]
		for i, a := range writers {
			forced[i] = 0
			for j, c := range writers {
				if i != j && (c == s.pinned || s.bld.Reaches(c, a)) {
					forced[i] |= 1 << uint(j)
				}
			}
		}
		order := s.orders[s.orderAt[oi]:s.orderAt[oi+1]:s.orderAt[oi+1]]
		if !onlyExtension(writers, forced, order) {
			return s.extend(oi, x, writers, append([]uint64(nil), forced...), 0, order[:0])
		}
		for i := range order {
			for j := i + 1; j < len(order); j++ {
				s.bld.ApplyWW(x, order[i], order[j])
			}
		}
	}
	s.examined++
	if s.examined > s.budget {
		return false, ErrBudgetExceeded
	}
	s.cExamined.Inc()
	var err error
	if s.timed {
		cycleStart := time.Now()
		err = s.bld.InModel()
		s.cycleNS += int64(time.Since(cycleStart))
	} else {
		err = s.bld.InModel()
	}
	if err != nil {
		s.lastCandidate = s.record(s.lastCandidate, len(s.objs))
		return false, nil
	}
	return true, nil
}

// onlyExtension writes into order the writers in the one order the
// forced precedence admits, and reports false when it admits several
// (or, for a cyclic precedence, none; extend then finds none).
func onlyExtension(writers []int, forced []uint64, order []int) bool {
	var placed uint64
	for n := range order {
		next := -1
		for i := range writers {
			if bit := uint64(1) << uint(i); placed&bit != 0 || forced[i]&^placed != 0 {
				continue
			}
			if next >= 0 {
				return false
			}
			next = i
		}
		if next < 0 {
			return false
		}
		placed |= 1 << uint(next)
		order[n] = writers[next]
	}
	return true
}

// extend enumerates linear extensions of the forced precedence via
// DFS: at each step any writer whose forced predecessors are all
// placed may come next. order grows in objs[oi]'s window of s.orders.
func (s *search) extend(oi int, x int, writers []int, forced []uint64, placed uint64, order []int) (bool, error) {
	if len(order) == len(writers) {
		mark := s.bld.Mark()
		for i := 0; i < len(order); i++ {
			for j := i + 1; j < len(order); j++ {
				s.bld.ApplyWW(x, order[i], order[j])
			}
		}
		found, err := s.orderWrites(oi + 1)
		if found || err != nil {
			return found, err // keep the builder state for Graph
		}
		s.bld.Undo(mark)
		return false, nil
	}
	for i := range writers {
		bit := uint64(1) << uint(i)
		if placed&bit != 0 || forced[i]&^placed != 0 {
			continue
		}
		found, err := s.extend(oi, x, writers, forced, placed|bit, append(order, writers[i]))
		if found || err != nil {
			return found, err
		}
	}
	return false, nil
}

// record copies the current decision vector into c (a new choice when
// nil, else reusing its buffers): every WR choice plus the write orders
// for the first numOrders objects.
func (s *search) record(c *choice, numOrders int) *choice {
	if c == nil {
		c = &choice{}
	}
	c.wr = append(c.wr[:0], s.curWR...)
	c.orders = append(c.orders[:0], s.orders[:s.orderAt[numOrders]]...)
	c.numOrders = numOrders
	return c
}
