package check

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sian/internal/depgraph"
	"sian/internal/model"
	"sian/internal/obs"
)

// readSite is one transaction-level external read (T ⊢ read(x, v)).
type readSite struct {
	reader     int
	obj        model.Obj
	val        model.Value
	candidates []int
}

// choice records the decisions identifying one node of the search
// tree: the WR source chosen for every read site and the write orders
// placed so far. The search journal-mutates a single builder, so
// instead of cloning graphs for diagnostics it records choices and
// replays the interesting ones (the last candidate, the last pruned
// branch) into fresh graphs once the search is over.
type choice struct {
	wr     []int   // writer chosen for reads[i]
	orders [][]int // write order chosen for objs[0 .. len(orders))
}

// search carries the state of the dependency-graph search. The
// top-level WR assignment space is split into lexicographic branches
// (prefixes of read-site candidate choices) that a bounded worker pool
// explores concurrently; within a branch the search is a sequential
// mutate-and-undo DFS on one depgraph.Builder.
type search struct {
	h           *model.History
	m           depgraph.Model
	budget      int
	parallelism int
	pinned      int // index forced first in every WW order, or -1
	reads       []readSite
	objs        []model.Obj // objects with ≥2 writers needing a WW order
	writers     map[model.Obj][]int

	// Shared across branch workers.
	examined atomic.Int64 // candidates tested, bounds the budget
	winner   atomic.Int64 // lowest branch index that found a member
	minErr   atomic.Int64 // lowest branch index that stopped on an error

	// lastCandidate is the most recent complete candidate graph in
	// deterministic (sequential) order; when the search ends negative
	// with one candidate examined it is the definitive rejection
	// explanation. lastPruned is the most recent partial graph whose
	// dependencies were already cyclic.
	lastCandidate *depgraph.Graph
	lastPruned    *depgraph.Graph

	// Optional observability (all nil-safe no-ops when unset).
	tracer    *obs.Tracer
	cExamined *obs.Counter
	cPruned   *obs.Counter
	cWR       *obs.Counter
	cUndo     *obs.Counter
	cDelta    *obs.Counter
	cWorkers  *obs.Counter
}

func newSearch(h *model.History, m depgraph.Model, budget, parallelism, pinned int) (*search, error) {
	s := &search{h: h, m: m, budget: budget, parallelism: parallelism, pinned: pinned}
	s.winner.Store(math.MaxInt64)
	s.minErr.Store(math.MaxInt64)
	reads, writers, byVal := indexHistory(h)
	s.reads, s.writers = reads, writers
	for i := range s.reads {
		site := &s.reads[i]
		// Writers are indexed in increasing order; the reader itself is
		// not a candidate source of its own external read.
		for _, j := range byVal[version{site.obj, site.val}] {
			if j != site.reader {
				site.candidates = append(site.candidates, j)
			}
		}
		if len(site.candidates) == 0 {
			return nil, fmt.Errorf("check: transaction %d reads (%s, %d) never finally written", site.reader, site.obj, site.val)
		}
	}
	for _, x := range h.Objects() {
		if len(s.writers[x]) >= 2 {
			s.objs = append(s.objs, x)
		}
	}
	return s, nil
}

// version names a value an object held: what a read site observed, and
// what a transaction's final write installed.
type version struct {
	obj model.Obj
	val model.Value
}

// indexHistory makes one pass over the history's operations and
// returns the read sites (T ⊢ read(x, v): the first access of T to x is
// a read), in increasing transaction order and sorted by object within
// a transaction; WriteTx_x for every object; and, for every version
// (x, v), the transactions with T ⊢ write(x, v), both in increasing
// order. Candidate lists are left for the caller to fill from the
// version index.
func indexHistory(h *model.History) (reads []readSite, writers map[model.Obj][]int, byVal map[version][]int) {
	writers = make(map[model.Obj][]int)
	byVal = make(map[version][]int)
	// touched[x] is the last transaction seen accessing x: a different
	// index means the current transaction's first access to x.
	touched := make(map[model.Obj]int)
	for i := 0; i < h.NumTransactions(); i++ {
		ops := h.Transaction(i).Ops
		first := len(reads)
		for _, op := range ops {
			if last, ok := touched[op.Obj]; ok && last == i {
				continue
			}
			touched[op.Obj] = i
			if op.Kind == model.OpRead {
				reads = append(reads, readSite{reader: i, obj: op.Obj, val: op.Val})
			}
		}
		site := reads[first:]
		sort.Slice(site, func(a, b int) bool { return site[a].obj < site[b].obj })
		// Backwards, the first write met on an object is the final one;
		// writers[x] already ending in i marks the later ones as seen.
		for k := len(ops) - 1; k >= 0; k-- {
			op := ops[k]
			if op.Kind != model.OpWrite {
				continue
			}
			if w := writers[op.Obj]; len(w) > 0 && w[len(w)-1] == i {
				continue
			}
			writers[op.Obj] = append(writers[op.Obj], i)
			byVal[version{op.Obj, op.Val}] = append(byVal[version{op.Obj, op.Val}], i)
		}
	}
	return reads, writers, byVal
}

// planBranches picks the branch decomposition: the shortest read-site
// prefix whose candidate combinations give at least ~4 branches per
// worker (bounded to keep the plan small). With Parallelism 1 the
// whole space is one branch and the search is exactly the sequential
// DFS.
func (s *search) planBranches() (depth, total int) {
	total = 1
	if s.parallelism <= 1 {
		return 0, 1
	}
	const maxBranches = 1 << 12
	target := s.parallelism * 4
	for depth < len(s.reads) && total < target {
		c := len(s.reads[depth].candidates)
		if total*c > maxBranches {
			break
		}
		total *= c
		depth++
	}
	return depth, total
}

// branchResult is the outcome of one branch, merged deterministically
// after all workers join.
type branchResult struct {
	found         *depgraph.Graph // member snapshot, nil if none
	foundExamined int64           // branch-local candidates tested up to the find
	err           error
	fullExamined  int64 // branch-local candidates tested in total
	lastCandidate *choice
	lastPruned    *choice
}

// run performs the search and returns the first member graph in the
// deterministic exploration order (nil if none), the number of
// candidates examined, and an error for budget exhaustion or
// unsearchable write sets.
func (s *search) run() (*depgraph.Graph, int, error) {
	depth, branches := s.planBranches()
	results := make([]branchResult, branches)
	workers := s.parallelism
	if workers > branches {
		workers = branches
	}
	if workers < 1 {
		workers = 1
	}
	s.cWorkers.Add(int64(workers))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := next.Add(1) - 1
				if idx >= int64(branches) {
					return
				}
				// A lower branch already decided the outcome: everything
				// from here on would be dead work the sequential search
				// never performed.
				if s.winner.Load() < idx || s.minErr.Load() < idx {
					continue
				}
				s.runBranch(idx, depth, &results[idx])
			}
		}()
	}
	wg.Wait()
	return s.merge(results)
}

// runBranch explores one lexicographic prefix of the WR assignment
// space on its own builder.
func (s *search) runBranch(idx int64, depth int, res *branchResult) {
	b := &branchRun{
		s: s, idx: idx, res: res,
		bld:       depgraph.NewBuilder(s.h, s.m),
		curWR:     make([]int, len(s.reads)),
		curOrders: make([][]int, len(s.objs)),
	}
	// Decode the branch index into candidate choices for the prefix
	// sites, most-significant site first (lexicographic = DFS order).
	stride := int64(1)
	for i := depth - 1; i >= 0; i-- {
		c := int64(len(s.reads[i].candidates))
		digit := (idx / stride) % c
		b.curWR[i] = s.reads[i].candidates[digit]
		stride *= c
	}
	for i := 0; i < depth; i++ {
		site := s.reads[i]
		s.cWR.Inc()
		b.bld.ApplyWR(site.obj, b.curWR[i], site.reader)
	}
	found, err := b.assignReads(depth)
	res.fullExamined = b.localExamined
	if err != nil {
		res.err = err
		casMin(&s.minErr, idx)
	} else if found {
		res.found = b.bld.Snapshot()
		res.foundExamined = b.localExamined
		casMin(&s.winner, idx)
	}
	undo, delta := b.bld.Stats()
	s.cUndo.Add(undo)
	s.cDelta.Add(delta)
}

// merge combines the branch results in deterministic branch order:
// the first decisive event (member found or terminal error) in
// sequential exploration order wins.
func (s *search) merge(results []branchResult) (*depgraph.Graph, int, error) {
	winner := s.winner.Load()
	errIdx := s.minErr.Load()
	if winner < errIdx {
		// Every branch below the winner ran to completion without
		// finding, so the examined count up to the find is the
		// sequential one.
		var examined int64
		for j := int64(0); j < winner; j++ {
			examined += results[j].fullExamined
		}
		examined += results[winner].foundExamined
		return results[winner].found, int(examined), nil
	}
	if errIdx != math.MaxInt64 {
		return nil, int(s.examined.Load()), results[errIdx].err
	}
	// Negative verdict: all branches completed. Replay the last
	// recorded diagnostics in sequential order (branches are
	// consecutive segments of the DFS, so the highest branch holding
	// one recorded it last).
	for j := len(results) - 1; j >= 0; j-- {
		if results[j].lastCandidate != nil {
			s.lastCandidate = s.replay(results[j].lastCandidate)
			break
		}
	}
	for j := len(results) - 1; j >= 0; j-- {
		if results[j].lastPruned != nil {
			s.lastPruned = s.replay(results[j].lastPruned)
			break
		}
	}
	return nil, int(s.examined.Load()), nil
}

// replay rebuilds the dependency graph a recorded choice identifies.
func (s *search) replay(c *choice) *depgraph.Graph {
	g := depgraph.New(s.h)
	for i, w := range c.wr {
		g.AddWR(s.reads[i].obj, w, s.reads[i].reader)
	}
	for oi, order := range c.orders {
		x := s.objs[oi]
		for i := range order {
			for j := i + 1; j < len(order); j++ {
				g.AddWW(x, order[i], order[j])
			}
		}
	}
	return g
}

// branchRun is the per-branch DFS state: one builder mutated in place
// plus the current decision vector for diagnostics.
type branchRun struct {
	s             *search
	idx           int64
	bld           *depgraph.Builder
	curWR         []int
	curOrders     [][]int
	localExamined int64
	res           *branchResult
}

// aborted reports whether a lower-indexed branch has already decided
// the search outcome, making this branch's remainder dead work.
// Branches below the eventual winner never abort, which is what keeps
// the merged result deterministic.
func (b *branchRun) aborted() bool {
	return b.s.winner.Load() < b.idx || b.s.minErr.Load() < b.idx
}

// assignReads chooses a WR source for every read site from b.start
// on, then moves on to WW orders.
func (b *branchRun) assignReads(i int) (bool, error) {
	if b.aborted() {
		return false, nil
	}
	if i == len(b.s.reads) {
		return b.orderWrites(0)
	}
	site := b.s.reads[i]
	for _, w := range site.candidates {
		b.s.cWR.Inc()
		mark := b.bld.Mark()
		b.bld.ApplyWR(site.obj, w, site.reader)
		b.curWR[i] = w
		found, err := b.assignReads(i + 1)
		if found || err != nil {
			return found, err // keep the builder state for Snapshot
		}
		b.bld.Undo(mark)
	}
	return false, nil
}

// orderWrites chooses a total WW order for each multi-writer object.
// Rather than enumerating all k! permutations, it only enumerates
// linear extensions of the precedence already forced on the writers by
// (SO ∪ WR ∪ WW-chosen-so-far)⁺: ordering two base-related writers
// against the base relation would create a base cycle, which excludes
// membership in every model (RW? is reflexive, so every base cycle is
// a composite cycle). The precedence comes straight from the
// builder's maintained closure instead of a per-node recomputation.
func (b *branchRun) orderWrites(oi int) (bool, error) {
	if b.aborted() {
		return false, nil
	}
	s := b.s
	if oi == len(s.objs) {
		total := s.examined.Add(1)
		b.localExamined++
		if total > int64(s.budget) {
			return false, ErrBudgetExceeded
		}
		b.res.lastCandidate = b.snapshotChoice(len(s.objs))
		s.cExamined.Inc()
		var cycleStart time.Time
		if s.tracer != nil {
			cycleStart = time.Now()
		}
		err := b.bld.InModel()
		if s.tracer != nil {
			s.tracer.Add("cycle-search", time.Since(cycleStart))
		}
		return err == nil, nil
	}
	x := s.objs[oi]
	if b.bld.Cyclic() {
		s.cPruned.Inc()
		b.res.lastPruned = b.snapshotChoice(oi)
		return false, nil // base already cyclic: dead branch
	}
	writers := s.writers[x]
	k := len(writers)
	if k > 64 {
		return false, fmt.Errorf("check: object %q has %d writers; search limited to 64", x, k)
	}
	// forced[i] is the bitmask of writer positions that must precede
	// writers[i]: base-reachability plus the pinned init transaction.
	forced := make([]uint64, k)
	for i, a := range writers {
		for j, c := range writers {
			if i != j && (b.bld.Reaches(c, a) || c == s.pinned) {
				forced[i] |= 1 << uint(j)
			}
		}
	}
	order := make([]int, 0, k)
	return b.extend(oi, x, writers, forced, 0, order)
}

// extend enumerates linear extensions of the forced precedence via
// DFS: at each step any writer whose forced predecessors are all
// placed may come next.
func (b *branchRun) extend(oi int, x model.Obj, writers []int, forced []uint64, placed uint64, order []int) (bool, error) {
	if len(order) == len(writers) {
		mark := b.bld.Mark()
		for i := 0; i < len(order); i++ {
			for j := i + 1; j < len(order); j++ {
				b.bld.ApplyWW(x, order[i], order[j])
			}
		}
		b.curOrders[oi] = order
		found, err := b.orderWrites(oi + 1)
		if found || err != nil {
			return found, err // keep the builder state for Snapshot
		}
		b.bld.Undo(mark)
		return false, nil
	}
	for i := range writers {
		bit := uint64(1) << uint(i)
		if placed&bit != 0 || forced[i]&^placed != 0 {
			continue
		}
		found, err := b.extend(oi, x, writers, forced, placed|bit, append(order, writers[i]))
		if found || err != nil {
			return found, err
		}
	}
	return false, nil
}

// snapshotChoice copies the current decision vector: every WR choice
// plus the write orders for the first numOrders objects.
func (b *branchRun) snapshotChoice(numOrders int) *choice {
	c := &choice{wr: append([]int(nil), b.curWR...), orders: make([][]int, numOrders)}
	for i := 0; i < numOrders; i++ {
		c.orders[i] = append([]int(nil), b.curOrders[i]...)
	}
	return c
}

// casMin lowers a to v if v is smaller.
func casMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v >= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
