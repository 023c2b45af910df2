package chopping

import (
	"fmt"
	"slices"
	"strings"

	"sian/internal/model"
)

// Piece is one piece of a chopped transaction: the sets of objects it
// may read and write (the paper's R_i^j and W_i^j), over-approximating
// those any execution of the piece accesses. Name labels the piece in
// diagnostics, e.g. a pseudo-code line.
type Piece struct {
	Name          string
	Reads, Writes []model.Obj
}

// NewPiece builds a piece from read and write sets; both are copied,
// deduplicated and canonically sorted so that map-ordered inputs yield
// deterministic graphs and witnesses.
func NewPiece(name string, reads, writes []model.Obj) Piece {
	return Piece{Name: name, Reads: model.NormalizeObjs(reads), Writes: model.NormalizeObjs(writes)}
}

// Program is the code of the session a chopped transaction becomes
// (§5): an ordered sequence of pieces. The listed programs are all
// the concurrent sessions; list one several times (Replicate) to run
// it concurrently with itself.
type Program struct {
	Name   string
	Pieces []Piece
}

// NewProgram builds a program, copying the piece list.
func NewProgram(name string, pieces ...Piece) Program {
	cp := make([]Piece, len(pieces))
	copy(cp, pieces)
	return Program{Name: name, Pieces: cp}
}

// Unchopped returns the single-piece program whose read and write sets
// are the unions over all pieces — the original, unchopped
// transaction.
func (p Program) Unchopped() Program {
	u := mergePieces(p, 0, len(p.Pieces)-1)
	u.Pieces[0].Name = p.Name
	return u
}

// Replicate returns k copies of the program, suffixing names with the
// copy number. Use it to model a program that may run concurrently
// with itself.
func Replicate(p Program, k int) []Program {
	out := make([]Program, k)
	for i := range out {
		out[i] = NewProgram(fmt.Sprintf("%s#%d", p.Name, i+1), p.Pieces...)
	}
	return out
}

// PieceID is a piece's zero-based (program, piece) pair, the paper's (i, j).
type PieceID struct {
	Program, Piece int
}

// SCG builds the static chopping graph of a set of programs (§5) over
// the vertices (i, j) in program-major order, and maps each vertex to
// its PieceID. Edges: successor (i, j1) → (i, j2) for j1 < j2,
// predecessor for j1 > j2, and for i1 ≠ i2 a read dependency
// (i1, j1) → (i2, j2) when W(i1,j1) ∩ R(i2,j2) ≠ ∅, a write dependency
// when W ∩ W ≠ ∅ and an anti-dependency when R(i1,j1) ∩ W(i2,j2) ≠ ∅.
func SCG(programs []Program) (*Graph, []PieceID) {
	var ids []PieceID
	var labels []string
	for pi, p := range programs {
		for ji, piece := range p.Pieces {
			ids = append(ids, PieceID{Program: pi, Piece: ji})
			if label := fmt.Sprintf("%s[%d]", p.Name, ji); piece.Name == "" {
				labels = append(labels, label)
			} else {
				labels = append(labels, p.Name+":"+piece.Name)
			}
		}
	}
	g := NewGraph(len(ids), labels)
	for u, uid := range ids {
		for v, vid := range ids {
			a, b := programs[uid.Program].Pieces[uid.Piece], programs[vid.Program].Pieces[vid.Piece]
			switch {
			case uid.Program == vid.Program && uid.Piece < vid.Piece:
				g.AddEdge(u, v, KindSuccessor)
			case uid.Program == vid.Program && uid.Piece > vid.Piece:
				g.AddEdge(u, v, KindPredecessor)
			case uid.Program != vid.Program:
				if model.ObjsIntersect(a.Writes, b.Reads) {
					g.AddEdge(u, v, KindWR)
				}
				if model.ObjsIntersect(a.Writes, b.Writes) {
					g.AddEdge(u, v, KindWW)
				}
				if model.ObjsIntersect(a.Reads, b.Writes) {
					g.AddEdge(u, v, KindRW)
				}
			}
		}
	}
	return g, ids
}

// Verdict is the outcome of a static chopping analysis: OK when SCG(P)
// has no critical cycle, so that the chopping is correct under the
// analysed model, else a critical Witness cycle. Graph is SCG(P), for
// diagnostics, and IDs maps its vertices back to (program, piece).
type Verdict struct {
	OK      bool
	Witness Cycle
	Graph   *Graph
	IDs     []PieceID
}

// Describe renders the verdict for humans.
func (v *Verdict) Describe() string {
	if v.OK {
		return "chopping correct: no critical cycle"
	}
	return "chopping may be incorrect: critical cycle " + v.Graph.DescribeCycle(v.Witness)
}

// CheckStatic runs the static chopping analysis at a criticality
// level — Corollary 18 for SICritical, Theorem 29 (Shasha et al.) for
// SERCritical, Theorem 31 for PSICritical. An OK verdict proves the
// chopping correct under the corresponding consistency model.
func CheckStatic(programs []Program, level Criticality) (*Verdict, error) {
	if len(programs) == 0 {
		return nil, fmt.Errorf("chopping: no programs given")
	}
	for i, p := range programs {
		if len(p.Pieces) == 0 {
			return nil, fmt.Errorf("chopping: program %d (%s) has no pieces", i, p.Name)
		}
	}
	g, ids := SCG(programs)
	cyc, err := g.FindCriticalCycle(level)
	if err != nil {
		return nil, err
	}
	return &Verdict{OK: cyc == nil, Witness: cyc, Graph: g, IDs: ids}, nil
}

// Autochop searches for a fine-grained correct chopping: given
// programs at the finest granularity wanted (e.g. one piece per
// statement), it merges contiguous pieces of one program until SCG(P)
// has no critical cycle at the given level, so that Corollary 18
// (resp. Theorems 29/31) proves the result correct. Each merge spans
// the predecessor edge of the witness's "conflict, predecessor,
// conflict" fragment (condition (ii)), removing the fragment. The
// greedy result need not be the finest correct chopping, but the loop
// terminates: at worst every program collapses back into one piece.
// The result shares no slices with the input.
func Autochop(programs []Program, level Criticality) ([]Program, error) {
	cur := make([]Program, len(programs))
	for i, p := range programs {
		cur[i] = NewProgram(p.Name, p.Pieces...)
	}
	for {
		v, err := CheckStatic(cur, level)
		if err != nil {
			return nil, err
		}
		if v.OK {
			return cur, nil
		}
		// Condition (ii) puts a predecessor edge, from a later piece of
		// a program to an earlier one, on every critical cycle.
		i := slices.IndexFunc(v.Witness, func(s Step) bool { return s.Kind == KindPredecessor })
		if i < 0 {
			return nil, fmt.Errorf("chopping: critical cycle without a predecessor edge: %v", v.Graph.DescribeCycle(v.Witness))
		}
		from, to := v.IDs[v.Witness[i].From], v.IDs[v.Witness[i].To]
		cur[from.Program] = mergePieces(cur[from.Program], to.Piece, from.Piece)
	}
}

// mergePieces collapses pieces lo..hi (inclusive) of the program into
// a single piece with the union of the read and write sets.
func mergePieces(p Program, lo, hi int) Program {
	var names []string
	var reads, writes []model.Obj
	for _, pc := range p.Pieces[lo : hi+1] {
		if pc.Name != "" {
			names = append(names, pc.Name)
		}
		reads, writes = append(reads, pc.Reads...), append(writes, pc.Writes...)
	}
	merged := NewPiece(strings.Join(names, "+"), reads, writes)
	return NewProgram(p.Name, slices.Concat(p.Pieces[:lo], []Piece{merged}, p.Pieces[hi+1:])...)
}
