package relation

import (
	"math/rand"
	"testing"
)

func TestClosureBasics(t *testing.T) {
	t.Parallel()
	c := NewClosure(4)
	if c.HasCycle() {
		t.Fatal("empty closure cyclic")
	}
	c.AddEdge(0, 1)
	c.AddEdge(1, 2)
	if !c.Reaches(0, 2) || !c.Reaches(0, 1) || !c.Reaches(1, 2) {
		t.Fatal("transitive reach missing")
	}
	if c.Reaches(2, 0) || c.HasCycle() {
		t.Fatal("spurious reach or cycle")
	}
	c.AddEdge(2, 0)
	if !c.HasCycle() {
		t.Fatal("3-cycle not detected")
	}
	if !c.Reaches(0, 0) || !c.Reaches(2, 1) {
		t.Fatal("cycle members must reach everything on the cycle")
	}
}

func TestClosureRollback(t *testing.T) {
	t.Parallel()
	c := NewClosure(5)
	c.AddEdge(0, 1)
	m1 := c.Checkpoint()
	c.AddEdge(1, 2)
	m2 := c.Checkpoint()
	c.AddEdge(2, 0) // cycle
	if !c.HasCycle() {
		t.Fatal("cycle missing")
	}
	c.Rollback(m2)
	if c.HasCycle() || !c.Reaches(0, 2) {
		t.Fatal("rollback to m2 wrong")
	}
	c.Rollback(m1)
	if c.Reaches(0, 2) || c.Reaches(1, 2) || !c.Reaches(0, 1) {
		t.Fatal("rollback to m1 wrong")
	}
	// Redundant edges journal nothing and rollback cleanly.
	m3 := c.Checkpoint()
	c.AddEdge(0, 1)
	c.Rollback(m3)
	if !c.Reaches(0, 1) {
		t.Fatal("redundant edge rollback removed the original")
	}
}

// TestClosureDeferredSeed: edges added before the first read are
// closed in one pass when it comes, sit below every checkpoint, and a
// cyclic seed reports its cycle.
func TestClosureDeferredSeed(t *testing.T) {
	t.Parallel()
	c := NewClosure(4)
	c.AddEdge(0, 1)
	c.AddEdge(1, 2)
	if !c.Reaches(0, 2) {
		t.Fatal("seed closure incomplete")
	}
	mark := c.Checkpoint()
	c.AddEdge(2, 3)
	if !c.Reaches(0, 3) {
		t.Fatal("delta after seed missing")
	}
	c.Rollback(mark)
	if c.Reaches(0, 3) || !c.Reaches(0, 2) {
		t.Fatal("rollback disturbed the seed")
	}
	// A cyclic seed reports the cycle immediately.
	c2 := NewClosure(3)
	c2.AddEdge(0, 1)
	c2.AddEdge(1, 0)
	if !c2.HasCycle() {
		t.Fatal("cyclic seed not detected")
	}
}

// TestClosureMatchesBatch cross-checks incremental maintenance against
// the batch Warshall closure on random edge sequences with random
// nested rollbacks.
func TestClosureMatchesBatch(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(9)
		c := NewClosure(n)
		base := New(n)
		type frame struct {
			mark Mark
			rel  *Rel
		}
		var stack []frame
		for step := 0; step < 40; step++ {
			switch {
			case len(stack) > 0 && rng.Intn(4) == 0:
				// Pop: roll back to the frame's state.
				f := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				c.Rollback(f.mark)
				base = f.rel
			case rng.Intn(3) == 0:
				stack = append(stack, frame{mark: c.Checkpoint(), rel: base.Clone()})
			default:
				a, b := rng.Intn(n), rng.Intn(n)
				c.AddEdge(a, b)
				base.Add(a, b)
			}
			want := base.TransitiveClosure()
			if !c.Rel().Equal(want) {
				t.Fatalf("trial %d step %d: closure diverged\nbase %v\ninc  %v\nwant %v",
					trial, step, base, c.Rel(), want)
			}
			if c.HasCycle() != !want.IsIrreflexive() {
				t.Fatalf("trial %d step %d: HasCycle = %v, batch irreflexive = %v",
					trial, step, c.HasCycle(), want.IsIrreflexive())
			}
		}
	}
}

func TestClosureStats(t *testing.T) {
	t.Parallel()
	c := NewClosure(4)
	c.AddEdge(0, 1)
	m := c.Checkpoint()
	c.AddEdge(1, 2)
	c.Rollback(m)
	delta, undo := c.Stats()
	if delta == 0 || undo == 0 {
		t.Errorf("stats not recorded: delta=%d undo=%d", delta, undo)
	}
}

func TestRelInPlaceHelpers(t *testing.T) {
	t.Parallel()
	a := New(3)
	a.Add(0, 1)
	b := New(3)
	b.Add(1, 2)
	dst := New(3)
	if !dst.ComposeOf(a, b).Equal(a.Compose(b)) {
		t.Error("ComposeOf differs from Compose")
	}
	// Reuse overwrites previous content.
	if !dst.ComposeOf(b, a).Equal(b.Compose(a)) {
		t.Error("ComposeOf reuse differs")
	}
	m := a.Clone()
	if !m.MaybeInPlace().Equal(a.Maybe()) {
		t.Error("MaybeInPlace differs from Maybe")
	}
	cp := New(3)
	cp.Add(2, 0)
	cp.CopyFrom(a)
	if !cp.Equal(a) {
		t.Error("CopyFrom incomplete")
	}
	cp.Clear()
	if !cp.IsEmpty() {
		t.Error("Clear left pairs")
	}
	var got []int
	a.Add(0, 2)
	a.EachSuccessor(0, func(x int) { got = append(got, x) })
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("EachSuccessor = %v", got)
	}
}

// TestClosureKeepsNoJournalUnlessCheckpointed: a closure that is only
// ever grown (the online monitor's) must not accumulate undo entries —
// there is no mark they could roll back to — while one that has been
// checkpointed journals every change, and Absorb discards the journal.
func TestClosureKeepsNoJournalUnlessCheckpointed(t *testing.T) {
	t.Parallel()
	const n = 64
	rng := rand.New(rand.NewSource(3))
	c := NewClosure(n)
	for i := 0; i < 5000; i++ {
		if a, b := rng.Intn(n), rng.Intn(n); a < b {
			c.AddEdge(a, b)
		}
	}
	if len(c.journal) != 0 {
		t.Fatalf("uncheckpointed closure journaled %d words", len(c.journal))
	}
	c = NewClosure(n)
	c.AddEdge(0, 1)
	mark := c.Checkpoint()
	c.AddEdge(1, 2)
	c.AddEdge(2, 3)
	if len(c.journal) == 0 {
		t.Fatal("checkpointed closure journaled nothing")
	}
	c.Rollback(mark)
	if c.Reaches(1, 2) || !c.Reaches(0, 1) || len(c.journal) != 0 {
		t.Fatal("rollback to the first mark wrong")
	}
	c.AddEdge(1, 2)
	c.Absorb(0, 1)
	if len(c.journal) != 0 {
		t.Fatalf("Absorb left %d journal words", len(c.journal))
	}
	c.AddEdge(2, 3)
	if len(c.journal) != 0 {
		t.Fatal("journaling survived Absorb without a new checkpoint")
	}
}

// TestClosureAbsorbMatchesBatch: on random DAGs, absorbing a set of
// nodes that (with the destination) has no in-edges from the rest
// leaves exactly the batch closure of the contracted graph — the
// survivors' edges plus, at the destination, every edge that left an
// absorbed node — and the freed nodes behave as fresh ones afterwards.
func TestClosureAbsorbMatchesBatch(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(14)
		// Node 0 is the destination; a random set of the others is
		// absorbed. Edges go from lower to higher rank in a random
		// topological order that puts 0 and the absorbed nodes first,
		// so none leads from a survivor back into them.
		absorbed := make([]bool, n)
		var sources, rest []int
		for v := 1; v < n; v++ {
			if rng.Intn(3) == 0 {
				absorbed[v] = true
				sources = append(sources, v)
			} else {
				rest = append(rest, v)
			}
		}
		sources = append(sources, 0)
		rng.Shuffle(len(sources), func(i, j int) { sources[i], sources[j] = sources[j], sources[i] })
		rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		order := append(sources, rest...)
		c := NewClosure(n)
		contracted := New(n)
		for i, a := range order {
			for _, b := range order[i+1:] {
				if rng.Intn(4) != 0 {
					continue
				}
				c.AddEdge(a, b)
				if absorbed[b] || b == 0 {
					continue // an edge inside the source set vanishes
				}
				if absorbed[a] {
					a = 0
				}
				contracted.Add(a, b)
			}
		}
		for v := 1; v < n; v++ {
			if absorbed[v] {
				c.Absorb(0, v)
			}
		}
		if got, want := c.Rel(), contracted.TransitiveClosure(); !got.Equal(want) {
			t.Fatalf("trial %d: after absorbing %v\nclosure %v\nbatch   %v", trial, absorbed, got, want)
		}
		if c.HasCycle() {
			t.Fatalf("trial %d: absorbing in a DAG produced a cycle", trial)
		}
		// Reuse the freed nodes as new sinks and sources.
		for v := 1; v < n; v++ {
			if !absorbed[v] {
				continue
			}
			a, b := rng.Intn(n), rng.Intn(n)
			if absorbed[a] || absorbed[b] || a == b {
				continue
			}
			c.AddEdge(a, v)
			c.AddEdge(v, b)
			contracted.Add(a, v)
			contracted.Add(v, b)
			absorbed[v] = false
		}
		want := contracted.TransitiveClosure()
		if got := c.Rel(); !got.Equal(want) {
			t.Fatalf("trial %d: after reusing freed nodes\nclosure %v\nbatch   %v", trial, got, want)
		}
		if c.HasCycle() != !want.IsIrreflexive() {
			t.Fatalf("trial %d: HasCycle = %v, batch closure irreflexive = %v", trial, c.HasCycle(), want.IsIrreflexive())
		}
	}
}

// TestClosureAbsorbSuperset: when a surviving node does reach an
// absorbed one, Absorb is no longer exact, but it errs one way — every
// row is a superset of the batch closure of the contracted graph, so a
// cycle check on it can fail early but never pass wrongly.
func TestClosureAbsorbSuperset(t *testing.T) {
	t.Parallel()
	c := NewClosure(4)
	c.AddEdge(1, 2) // survivor 1 reaches absorbed 2
	c.AddEdge(2, 3)
	c.Absorb(0, 2)
	if !c.Reaches(0, 3) || !c.Reaches(1, 3) || c.Reaches(1, 2) || c.Reaches(0, 2) {
		t.Fatalf("closure after absorbing a reachable node: %v", c.Rel())
	}
}

// TestClosureDeferredDifferential pins the deferred closure to the
// batch Warshall closure on random edge sequences — acyclic (edges
// follow a random rank order), cyclic and with self-loops, on carriers
// of one and of several words. The edges before the first read are
// closed in one pass; the first read is chosen at random among
// Reaches, HasCycle, Rel, Stats, Checkpoint and Absorb, and random
// AddEdge/Checkpoint/Rollback steps follow. The one-pass close must
// count every pair it materialises.
func TestClosureDeferredDifferential(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(12)
		if trial%4 == 0 {
			n = 60 + rng.Intn(80)
		}
		shape := trial % 3 // 0 acyclic, 1 arbitrary, 2 arbitrary with self-loops
		rank := rng.Perm(n)
		edge := func() (int, int) {
			a, b := rng.Intn(n), rng.Intn(n)
			switch {
			case shape == 0 && rank[a] > rank[b]:
				a, b = b, a
			case shape == 1 && a == b:
				b = (a + 1) % n
			}
			return a, b
		}
		c := NewClosure(n)
		base := New(n)
		for i, k := 0, rng.Intn(3*n); i < k; i++ {
			a, b := edge()
			if shape == 0 && a == b {
				continue
			}
			c.AddEdge(a, b)
			base.Add(a, b)
		}
		want := base.TransitiveClosure()
		first := rng.Intn(6)
		switch first {
		case 0:
			a, b := rng.Intn(n), rng.Intn(n)
			if c.Reaches(a, b) != want.Has(a, b) {
				t.Fatalf("trial %d: Reaches(%d,%d) = %v on first read, batch %v", trial, a, b, !want.Has(a, b), want.Has(a, b))
			}
		case 1:
			c.HasCycle()
		case 2:
			c.Rel()
		case 3:
			c.Stats()
		case 4:
			c.Checkpoint()
		case 5:
			// Absorb is exact only on source sets, so compare it with
			// the same row edit applied to the batch closure.
			dst, src := rng.Intn(n), rng.Intn(n)
			c.Absorb(dst, src)
			if dst != src {
				self := want.Has(dst, dst)
				for w := range want.row(dst) {
					want.row(dst)[w] |= want.row(src)[w]
				}
				if self {
					want.Add(dst, dst)
				} else {
					want.Remove(dst, dst)
				}
				want.Isolate(src)
			}
			if got := c.Rel(); !got.Equal(want) {
				t.Fatalf("trial %d: Absorb(%d,%d) as first read\nbase    %v\nclosure %v\nwant    %v", trial, dst, src, base, got, want)
			}
			if c.HasCycle() != !want.IsIrreflexive() || len(c.journal) != 0 {
				t.Fatalf("trial %d: after Absorb HasCycle = %v, journal %d words", trial, c.HasCycle(), len(c.journal))
			}
			continue
		}
		if delta, _ := c.Stats(); delta != int64(want.Size()) {
			t.Fatalf("trial %d: one-pass close counted %d pairs, closure has %d", trial, delta, want.Size())
		}
		if first != 4 && len(c.journal) != 0 {
			t.Fatalf("trial %d: %d journal words before any checkpoint", trial, len(c.journal))
		}
		type frame struct {
			mark Mark
			rel  *Rel
		}
		var stack []frame
		if first == 4 {
			stack = append(stack, frame{mark: 0, rel: base.Clone()})
		}
		for step := 0; step < 30; step++ {
			switch {
			case len(stack) > 0 && rng.Intn(4) == 0:
				f := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				c.Rollback(f.mark)
				base = f.rel
			case rng.Intn(3) == 0:
				stack = append(stack, frame{mark: c.Checkpoint(), rel: base.Clone()})
			default:
				a, b := edge()
				c.AddEdge(a, b)
				base.Add(a, b)
			}
			want := base.TransitiveClosure()
			if got := c.Rel(); !got.Equal(want) {
				t.Fatalf("trial %d step %d: closure diverged\nbase %v\ninc  %v\nwant %v", trial, step, base, got, want)
			}
			if c.HasCycle() != !want.IsIrreflexive() {
				t.Fatalf("trial %d step %d: HasCycle = %v, batch irreflexive = %v", trial, step, c.HasCycle(), want.IsIrreflexive())
			}
		}
	}
}
