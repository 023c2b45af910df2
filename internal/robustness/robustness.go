// Package robustness implements the robustness analyses of §6 of the
// paper.
//
// Dynamic side: classify a concrete dependency graph against the model
// characterisations — Theorem 19 decides membership in
// GraphSI \ GraphSER (executions SI admits but serializability does
// not) and Theorem 22 membership in GraphPSI \ GraphSI.
//
// Static side: an application is robust when the static dependency
// graph over its transactions' read/write sets, which over-approximates
// the dependencies of any execution, has no dangerous simple cycle
// (chopping.SIDangerous, chopping.PSIDangerous). Two standard
// refinements sharpen §6's statement soundly. Only *vulnerable*
// anti-dependencies count: an RW edge between transactions whose write
// sets meet carries a parallel WW edge in any concrete graph of
// GraphSI/GraphPSI (the same way, else WW ; RW is a forbidden
// self-loop), which a dangerous cycle can take instead — the condition
// of Fekete et al. [18] that lets the materialised-conflict fix for
// write skew pass. And only *simple* cycles count: distinct
// transactions of an execution map to distinct programs (§5's
// one-to-one session correspondence).
package robustness

import (
	"fmt"
	"slices"

	"sian/internal/chopping"
	"sian/internal/depgraph"
	"sian/internal/model"
)

// TxSpec is the static specification of a transaction: the objects it may read and write.
type TxSpec struct {
	Name   string
	Reads  []model.Obj
	Writes []model.Obj
	// WritesWidened marks the write set as a may-write
	// over-approximation (e.g. silint's ⊤-widening of a non-constant
	// key): meeting another write set then proves no conflict, so the
	// transaction's anti-dependencies all stay vulnerable.
	WritesWidened bool
	// PromoteGroup ties specifications that promote together (see
	// promote.go), as silint does the loop- and instance-expanded
	// copies of one source transaction. Empty promotes alone.
	PromoteGroup string
}

// NewTxSpec builds a specification; both sets are copied, deduplicated
// and sorted, so that map-ordered inputs yield deterministic witnesses.
func NewTxSpec(name string, reads, writes []model.Obj) TxSpec {
	return TxSpec{Name: name, Reads: model.NormalizeObjs(reads), Writes: model.NormalizeObjs(writes)}
}

// SessionSpec is the ordered transactions of one client session.
type SessionSpec struct {
	Name string
	Txs  []TxSpec
}

// App is an application: the sessions it may run concurrently. List a
// transaction in two sessions to run it concurrently with itself.
type App struct {
	Sessions []SessionSpec
}

// NewApp builds an application from session specifications.
func NewApp(sessions ...SessionSpec) App { return App{Sessions: slices.Clone(sessions)} }

// SingleTxApp is a convenience constructor for the common case of the
// paper's §6 examples: every transaction in its own session.
func SingleTxApp(txs ...TxSpec) App {
	sessions := make([]SessionSpec, 0, len(txs))
	for _, t := range txs {
		sessions = append(sessions, SessionSpec{Name: t.Name, Txs: []TxSpec{t}})
	}
	return App{Sessions: sessions}
}

// BuildStatic constructs the static dependency graph of an
// application, one vertex per transaction in session-major order.
// Session order gives the successor edges. Between transactions of
// different sessions, W₁ ∩ R₂ ≠ ∅ yields a WR edge, W₁ ∩ W₂ ≠ ∅ a WW
// edge and R₁ ∩ W₂ ≠ ∅ an RW edge when it is vulnerable: the write
// sets are disjoint, or one is widened (TxSpec.WritesWidened).
func BuildStatic(app App) *chopping.Graph {
	specs, session := flatten(app)
	labels := make([]string, len(specs))
	for i, t := range specs {
		labels[i] = labelOf(t, i)
	}
	g := chopping.NewDependencyGraph(len(specs), labels)
	for a, ta := range specs {
		for b, tb := range specs {
			switch {
			case session[a] == session[b] && a < b:
				g.AddEdge(a, b, chopping.KindSuccessor)
			case session[a] != session[b]:
				ww := model.ObjsIntersect(ta.Writes, tb.Writes)
				if model.ObjsIntersect(ta.Writes, tb.Reads) {
					g.AddEdge(a, b, chopping.KindWR)
				}
				if ww {
					g.AddEdge(a, b, chopping.KindWW)
				}
				if model.ObjsIntersect(ta.Reads, tb.Writes) && (!ww || ta.WritesWidened || tb.WritesWidened) {
					g.AddEdge(a, b, chopping.KindRW)
				}
			}
		}
	}
	return g
}

// flatten returns the application's specifications in session-major
// (static-graph vertex) order, with the session index of each.
func flatten(app App) (specs []TxSpec, session []int) {
	for si, s := range app.Sessions {
		for _, t := range s.Txs {
			specs, session = append(specs, t), append(session, si)
		}
	}
	return specs, session
}

// labelOf is a transaction's vertex label: its name, else "tx<vertex>".
func labelOf(spec TxSpec, vertex int) string {
	if spec.Name != "" {
		return spec.Name
	}
	return fmt.Sprintf("tx%d", vertex)
}

// Check runs the static analysis crit selects (chopping.SIDangerous or
// chopping.PSIDangerous) on the application's static dependency graph.
// It returns (nil, nil) when the application is robust, a dangerous
// simple cycle when it may not be, and chopping.ErrBudgetExceeded when
// the witness search was inconclusive.
func Check(app App, crit chopping.Criticality) (*chopping.Witness, error) {
	g := BuildStatic(app)
	cyc, err := g.FindCriticalCycle(crit)
	if cyc == nil || err != nil {
		return nil, err
	}
	return &chopping.Witness{Cycle: cyc, Graph: g}, nil
}

// CheckSIRobust implements §6.1: the application is robust against SI
// (running it under SI gives only serializable behaviour, no history
// in HistSI \ HistSER) if its static dependency graph has no simple
// cycle with two adjacent vulnerable anti-dependency edges.
func CheckSIRobust(app App) (*chopping.Witness, error) {
	return Check(app, chopping.SIDangerous)
}

// CheckPSIRobust implements §6.2: the application is robust against
// parallel SI towards SI (no history in HistPSI \ HistSI) if its static
// dependency graph has no simple cycle with two or more vulnerable
// anti-dependency edges, no two of them adjacent.
func CheckPSIRobust(app App) (*chopping.Witness, error) {
	return Check(app, chopping.PSIDangerous)
}

// Classification places a dependency graph in HistSER ⊆ HistSI ⊆ HistPSI.
type Classification struct {
	SER bool
	SI  bool
	PSI bool
}

// String renders the models in name order, e.g. "[PSI SER SI]", or
// "none".
func (c Classification) String() string {
	var parts []string
	if c.PSI {
		parts = append(parts, "PSI")
	}
	if c.SER {
		parts = append(parts, "SER")
	}
	if c.SI {
		parts = append(parts, "SI")
	}
	if len(parts) == 0 {
		return "none"
	}
	return fmt.Sprint(parts)
}

// Classify runs the three dependency-graph characterisations on a
// concrete graph. SI && !SER witnesses non-robustness against SI
// (Theorem 19), PSI && !SI against parallel SI towards SI (Theorem 22).
func Classify(g *depgraph.Graph) Classification {
	return Classification{
		SER: g.InModel(depgraph.SER) == nil,
		SI:  g.InModel(depgraph.SI) == nil,
		PSI: g.InModel(depgraph.PSI) == nil,
	}
}

// Theorem19 decides G ∈ GraphSI \ GraphSER for a concrete graph and
// returns a witness cycle of the SER composite when it holds.
func Theorem19(g *depgraph.Graph) (inDifference bool, witness []int) {
	c := Classify(g)
	if c.SI && !c.SER {
		return true, g.Witness(depgraph.SER)
	}
	return false, nil
}

// Theorem22 decides G ∈ GraphPSI \ GraphSI for a concrete graph and
// returns a witness cycle of the SI composite when it holds.
func Theorem22(g *depgraph.Graph) (inDifference bool, witness []int) {
	c := Classify(g)
	if c.PSI && !c.SI {
		return true, g.Witness(depgraph.SI)
	}
	return false, nil
}
