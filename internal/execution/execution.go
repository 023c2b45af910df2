// Package execution implements abstract executions (T, SO, VIS, CO)
// per Definition 3 of the paper, the consistency axioms of Figure 1
// (INT, EXT, SESSION, PREFIX, NOCONFLICT, TOTALVIS, TRANSVIS), the
// consistency-model membership predicates of Definitions 4 and 20
// (ExecSI, ExecSER, ExecPSI), and the graph(X) dependency extraction of
// Definition 5.
package execution

import (
	"errors"
	"fmt"

	"sian/internal/model"
	"sian/internal/relation"
)

// Execution is an abstract execution X = (H, VIS, CO). VIS and CO are
// relations over the transaction indices of H. Definition 3 requires
// VIS to be a strict partial order, CO a strict total order and
// VIS ⊆ CO; Validate checks these.
//
// A pre-execution (Definition 11) is the same structure with a CO that
// is a strict partial order but not necessarily total; the axiom
// checkers below apply unchanged, so the type serves both roles and
// IsTotal distinguishes them.
type Execution struct {
	History *model.History
	VIS     *relation.Rel
	CO      *relation.Rel
}

// New bundles a history with visibility and commit orders. It copies
// neither relation; callers that keep mutating them should Clone
// first.
func New(h *model.History, vis, co *relation.Rel) *Execution {
	return &Execution{History: h, VIS: vis, CO: co}
}

// Validate checks the structural requirements of Definition 3 with CO
// allowed to be partial (Definition 11's pre-executions): VIS and CO
// strict partial orders and VIS ⊆ CO. Use ValidateTotal for full
// executions.
func (x *Execution) Validate() error {
	n := x.History.NumTransactions()
	if x.VIS.N() != n || x.CO.N() != n {
		return fmt.Errorf("execution: relation carrier %d/%d does not match %d transactions",
			x.VIS.N(), x.CO.N(), n)
	}
	if !x.VIS.IsStrictPartialOrder() {
		return errors.New("execution: VIS is not a strict partial order")
	}
	if !x.CO.IsStrictPartialOrder() {
		return errors.New("execution: CO is not a strict partial order")
	}
	if !x.VIS.SubsetOf(x.CO) {
		return errors.New("execution: VIS ⊄ CO")
	}
	return nil
}

// ValidateTotal checks Definition 3 in full: Validate plus totality of
// CO.
func (x *Execution) ValidateTotal() error {
	if err := x.Validate(); err != nil {
		return err
	}
	if !x.CO.IsTotal() {
		return errors.New("execution: CO is not total")
	}
	return nil
}

// An Axiom is one of the named consistency axioms of Figure 1 plus
// TRANSVIS of Definition 20.
type Axiom int

// Axioms, in the order of Figure 1.
const (
	AxiomInvalid Axiom = iota
	Int
	Ext
	Session
	Prefix
	NoConflict
	TotalVis
	TransVis
)

// String returns the paper's name for the axiom.
func (a Axiom) String() string {
	switch a {
	case Int:
		return "INT"
	case Ext:
		return "EXT"
	case Session:
		return "SESSION"
	case Prefix:
		return "PREFIX"
	case NoConflict:
		return "NOCONFLICT"
	case TotalVis:
		return "TOTALVIS"
	case TransVis:
		return "TRANSVIS"
	default:
		return fmt.Sprintf("Axiom(%d)", int(a))
	}
}

// Check verifies a single axiom against the execution and returns a
// descriptive error on the first violation found, or nil.
func (x *Execution) Check(a Axiom) error {
	switch a {
	case Int:
		return x.History.CheckInt()
	case Ext:
		return x.checkExt()
	case Session:
		return x.checkSession()
	case Prefix:
		return x.checkPrefix()
	case NoConflict:
		return x.checkNoConflict()
	case TotalVis:
		return x.checkTotalVis()
	case TransVis:
		return x.checkTransVis()
	default:
		return fmt.Errorf("execution: unknown axiom %v", a)
	}
}

// CheckAll verifies every axiom in the list, returning the first
// violation.
func (x *Execution) CheckAll(axioms ...Axiom) error {
	for _, a := range axioms {
		if err := x.Check(a); err != nil {
			return fmt.Errorf("%v: %w", a, err)
		}
	}
	return nil
}

// SIAxioms is the axiom set of ExecSI (Definition 4).
func SIAxioms() []Axiom { return []Axiom{Int, Ext, Session, Prefix, NoConflict} }

// SERAxioms is the axiom set of ExecSER (Definition 4).
func SERAxioms() []Axiom { return []Axiom{Int, Ext, Session, TotalVis} }

// PSIAxioms is the axiom set of ExecPSI (Definition 20).
func PSIAxioms() []Axiom { return []Axiom{Int, Ext, Session, TransVis, NoConflict} }

// PCAxioms is the axiom set of prefix consistency: SI without the
// NOCONFLICT axiom. The paper's §7 anticipates a dependency-graph
// characterisation for this model ("prefix consistency [33]"); this
// module provides one, validated against these axioms (see
// internal/core and internal/check).
func PCAxioms() []Axiom { return []Axiom{Int, Ext, Session, Prefix} }

// GSIAxioms is the axiom set of generalised SI [17], which §2 of the
// paper contrasts with the strong session variant it adopts: SI
// without the SESSION axiom, so a transaction's snapshot need not
// include its own session's earlier transactions.
func GSIAxioms() []Axiom { return []Axiom{Int, Ext, Prefix, NoConflict} }

// IsSI reports whether the execution is in ExecSI: it is a valid total
// execution satisfying INT, EXT, SESSION, PREFIX and NOCONFLICT.
func (x *Execution) IsSI() error {
	if err := x.ValidateTotal(); err != nil {
		return err
	}
	return x.CheckAll(SIAxioms()...)
}

// IsPreSI reports whether the pre-execution is in PreExecSI
// (Definition 11): a valid pre-execution (partial CO allowed)
// satisfying the SI axioms.
func (x *Execution) IsPreSI() error {
	if err := x.Validate(); err != nil {
		return err
	}
	return x.CheckAll(SIAxioms()...)
}

// IsSER reports whether the execution is in ExecSER.
func (x *Execution) IsSER() error {
	if err := x.ValidateTotal(); err != nil {
		return err
	}
	return x.CheckAll(SERAxioms()...)
}

// IsPSI reports whether the execution is in ExecPSI.
func (x *Execution) IsPSI() error {
	if err := x.ValidateTotal(); err != nil {
		return err
	}
	return x.CheckAll(PSIAxioms()...)
}

// IsPC reports whether the execution satisfies prefix consistency:
// a valid total execution satisfying INT, EXT, SESSION and PREFIX
// (SI without write-conflict detection).
func (x *Execution) IsPC() error {
	if err := x.ValidateTotal(); err != nil {
		return err
	}
	return x.CheckAll(PCAxioms()...)
}

// IsGSI reports whether the execution satisfies generalised SI: a
// valid total execution satisfying INT, EXT, PREFIX and NOCONFLICT
// (SI without session guarantees).
func (x *Execution) IsGSI() error {
	if err := x.ValidateTotal(); err != nil {
		return err
	}
	return x.CheckAll(GSIAxioms()...)
}

// checkSession verifies SO ⊆ VIS.
func (x *Execution) checkSession() error {
	so := x.History.SessionOrder()
	if !so.SubsetOf(x.VIS) {
		for _, p := range so.Minus(x.VIS).Pairs() {
			return fmt.Errorf("SO edge (%d,%d) missing from VIS", p[0], p[1])
		}
	}
	return nil
}

// checkPrefix verifies CO ; VIS ⊆ VIS.
func (x *Execution) checkPrefix() error {
	comp := x.CO.Compose(x.VIS)
	if !comp.SubsetOf(x.VIS) {
		for _, p := range comp.Minus(x.VIS).Pairs() {
			return fmt.Errorf("CO;VIS edge (%d,%d) missing from VIS", p[0], p[1])
		}
	}
	return nil
}

// checkTransVis verifies VIS ; VIS ⊆ VIS.
func (x *Execution) checkTransVis() error {
	if !x.VIS.IsTransitive() {
		return errors.New("VIS is not transitive")
	}
	return nil
}

// checkTotalVis verifies CO = VIS.
func (x *Execution) checkTotalVis() error {
	if !x.VIS.Equal(x.CO) {
		return errors.New("VIS ≠ CO")
	}
	return nil
}

// checkNoConflict verifies that any two distinct transactions writing
// to the same object are related by VIS one way or the other.
func (x *Execution) checkNoConflict() error {
	for _, obj := range x.History.Objects() {
		writers := x.History.WriteTx(obj)
		for i, a := range writers {
			for _, b := range writers[i+1:] {
				if !x.VIS.Has(a, b) && !x.VIS.Has(b, a) {
					return fmt.Errorf("writers %d and %d of %q unrelated by VIS", a, b, obj)
				}
			}
		}
	}
	return nil
}

// VisibleWriter computes max_CO(VIS⁻¹(S) ∩ WriteTx_x): the transaction
// whose write to x the transaction with index s must read per EXT. The
// second result is false when the set is empty. An error is returned
// when CO does not totally order the candidate set (possible for
// pre-executions with insufficient CO; EXT is then not well-defined
// for this read).
func (x *Execution) VisibleWriter(s int, obj model.Obj) (int, bool, error) {
	var candidates []int
	for _, w := range x.History.WriteTx(obj) {
		if x.VIS.Has(w, s) {
			candidates = append(candidates, w)
		}
	}
	if len(candidates) == 0 {
		return 0, false, nil
	}
	best := candidates[0]
	for _, c := range candidates[1:] {
		switch {
		case x.CO.Has(best, c):
			best = c
		case x.CO.Has(c, best):
			// keep best
		default:
			return 0, false, fmt.Errorf(
				"CO does not order visible writers %d and %d of %q", best, c, obj)
		}
	}
	return best, true, nil
}

// checkExt verifies EXT: whenever T ⊢ read(x, n), the CO-maximal
// VIS-visible writer of x wrote n as its final value.
func (x *Execution) checkExt() error {
	n := x.History.NumTransactions()
	for s := 0; s < n; s++ {
		t := x.History.Transaction(s)
		for _, obj := range t.Objects() {
			val, reads := t.ReadsBeforeWrites(obj)
			if !reads {
				continue
			}
			w, ok, err := x.VisibleWriter(s, obj)
			if err != nil {
				return fmt.Errorf("transaction %d reads %q: %w", s, obj, err)
			}
			if !ok {
				return fmt.Errorf("transaction %d reads %q but sees no writer (missing init transaction?)",
					s, obj)
			}
			written, _ := x.History.Transaction(w).FinalWrite(obj)
			if written != val {
				return fmt.Errorf("transaction %d reads (%q, %d) but visible writer %d wrote %d",
					s, obj, val, w, written)
			}
		}
	}
	return nil
}
