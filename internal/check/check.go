// Package check implements history certification: deciding whether a
// history is allowed by serializability, snapshot isolation or
// parallel snapshot isolation, using the dependency-graph
// characterisations of Theorems 8, 9 and 21.
//
// The certifier searches the space of dependency-graph extensions of
// the history — read-dependency (WR) assignments consistent with the
// values read, and per-object total write orders (WW) — and tests each
// candidate for membership in GraphSER / GraphSI / GraphPSI. The
// search is one sequential depth-first exploration that mutates a
// single depgraph.Builder, undoing edges on backtrack. For
// value-traceable histories (every object value written at most once,
// as produced by internal/workload and internal/engine) the WR
// assignment is unique, leaving only the WW orders to search.
//
// The package also contains a brute-force checker that enumerates
// abstract executions directly against the axioms of Figure 1; it is
// exponential and restricted to very small histories, and exists to
// cross-validate the characterisations (an executable form of
// Theorems 8, 9 and 21).
package check

import (
	"errors"
	"fmt"
	"strings"

	"sian/internal/core"
	"sian/internal/depgraph"
	"sian/internal/execution"
	"sian/internal/model"
	"sian/internal/obs"
	"sian/internal/obs/txtrace"
)

// Options configures certification. The zero value selects the
// defaults: an initialisation transaction writing 0 and a one-million
// candidate budget. Each field is normalised individually, so setting
// only some fields (a Trace, a Metrics registry) keeps the defaults
// for the rest.
type Options struct {
	// NoInit disables extending the history with an initialisation
	// transaction writing InitValue to every object before checking.
	// Set it when the history already contains its own initialising
	// writes.
	NoInit bool
	// InitValue is the value written by the initialisation
	// transaction.
	InitValue model.Value
	// PinInit constrains transaction 0 to behave as the paper's
	// initialisation transaction: it precedes every other transaction
	// in the write orders (and, semantically, in VIS and CO). It is
	// implied unless NoInit is set; set it explicitly when certifying a
	// history that carries its own init transaction at index 0.
	PinInit bool
	// Budget bounds the number of candidate dependency graphs
	// examined before the search gives up with ErrBudgetExceeded.
	// Non-positive means the default of one million.
	Budget int
	// BuildExecution, when certifying membership in a model whose row
	// has a construction (SI, PC, GSI), additionally runs the Theorem
	// 10(i) construction to produce an abstract execution certificate.
	BuildExecution bool
	// Trace, when non-nil, receives the certification's stages, in
	// order (txtrace.StageCheck*): check_validate (history
	// well-formedness and INT), check_wr_enumeration (read-site
	// candidate discovery), check_extension_search (WR assignment and
	// WW linear extensions; attrs cycle_ns, the per-candidate cycle
	// checks' time, and candidates, Result.Examined),
	// check_solve_inequalities (the Figure 3 / Lemma 15 execution
	// construction) and check_explain (witness decomposition). Each
	// stage runs from the trace's previous mark. A Trace belongs to
	// one goroutine.
	Trace *txtrace.Trace
	// Metrics, when non-nil, receives the search counters
	// check_graphs_examined_total, check_branches_pruned_total,
	// check_wr_assignments_total, check_undo_ops_total,
	// and check_closure_delta_edges_total, labelled model="<model>".
	Metrics *obs.Registry
}

// DefaultOptions returns the fully normalised options the zero
// Options value selects: init transaction with value 0 and a
// one-million graph budget.
func DefaultOptions() Options {
	return Options{}.normalized()
}

// normalized fills in the per-field defaults. Every field stands on
// its own — there is deliberately no "zero value means all defaults"
// comparison, which used to silently disable the init transaction and
// budget when only Trace or Metrics were set.
func (o Options) normalized() Options {
	if o.Budget <= 0 {
		o.Budget = 1_000_000
	}
	if !o.NoInit {
		// The added init transaction sits at index 0 and precedes
		// everything by construction.
		o.PinInit = true
	}
	return o
}

// ErrBudgetExceeded reports that the certification search examined
// more candidate graphs than the configured budget.
var ErrBudgetExceeded = errors.New("check: search budget exceeded")

// Result reports the outcome of certification.
type Result struct {
	// Member reports whether the history is allowed by the model.
	Member bool
	// Graph is a witness dependency graph in the model when Member is
	// true (over the possibly init-extended history).
	Graph *depgraph.Graph
	// Execution is the Theorem 10(i) certificate when requested via
	// Options.BuildExecution and the model has a construction.
	Execution *execution.Execution
	// Examined counts candidate graphs tested, in depth-first order.
	Examined int
	// History is the history actually analysed (init-extended unless
	// Options.NoInit).
	History *model.History
	// Explain is the explainable trace of a negative verdict: the
	// violated axiom and, where a candidate graph exists, the
	// witnessing cycle as labelled edges. Nil for members.
	Explain *Explanation
}

// Explanation makes a negative verdict explainable: which axiom of the
// paper's Figure 1 specification the history cannot satisfy, and (when
// a candidate dependency graph witnessed it) the forbidden cycle as an
// edge list with dependency kinds.
type Explanation struct {
	// Model the verdict is about.
	Model depgraph.Model
	// Axiom names the violated axiom or axiom group (INT, EXT,
	// SESSION/EXT, NOCONFLICT, PREFIX, TOTALVIS).
	Axiom string
	// Cycle is the witnessing forbidden cycle (empty for INT/EXT
	// violations, which are not cycle-shaped).
	Cycle []depgraph.Edge
	// Graph is the candidate dependency graph the cycle lives in; use
	// Graph.FormatCycle(Cycle) to render it with transaction IDs.
	Graph *depgraph.Graph
	// Detail carries free-text context (the INT violation, or how many
	// candidate extensions were rejected).
	Detail string
	// Definitive reports whether the explanation covers every
	// candidate extension (true when the search had exactly one
	// candidate; false when it branched, in which case Cycle explains
	// the last rejected candidate only).
	Definitive bool
}

// String renders the explanation on one line, e.g.
// "axiom NOCONFLICT (…); cycle t1 -WW(x)-> t2 -RW(x)-> t1".
func (e *Explanation) String() string {
	if e == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "axiom %s", e.Axiom)
	if len(e.Cycle) > 0 && e.Graph != nil {
		fmt.Fprintf(&b, "; cycle %s", e.Graph.FormatCycle(e.Cycle))
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " [%s]", e.Detail)
	}
	return b.String()
}

// Certify decides whether the history is allowed by the given model.
// Zero-valued Options fields select their defaults individually.
func Certify(h *model.History, m depgraph.Model, opts Options) (*Result, error) {
	row := m.Row()
	if row == nil {
		return nil, fmt.Errorf("check: unknown model %v", m)
	}
	opts = opts.normalized()
	target := h
	if !opts.NoInit {
		target = h.WithInit(opts.InitValue)
	}
	tr := opts.Trace
	if err := target.Validate(); err != nil {
		tr.Mark(txtrace.StageCheckValidate)
		return nil, fmt.Errorf("check: invalid history: %w", err)
	}
	res := &Result{History: target}
	// INT is model-independent (it constrains transactions, not
	// dependencies); fail fast.
	err := target.CheckInt()
	tr.Mark(txtrace.StageCheckValidate)
	if err != nil {
		res.Explain = &Explanation{
			Model: m, Axiom: "INT", Detail: err.Error(), Definitive: true,
		}
		return res, nil //nolint:nilerr // INT violation simply means non-membership.
	}
	pinned := -1
	if opts.PinInit {
		pinned = 0
	}
	s, err := newSearch(target, m, opts.Budget, pinned)
	tr.Mark(txtrace.StageCheckWREnumeration)
	if err != nil {
		// A read with no candidate writer: no extension exists.
		res.Member = false
		res.Explain = &Explanation{
			Model: m, Axiom: "EXT", Detail: err.Error(), Definitive: true,
		}
		return res, nil //nolint:nilerr // unresolvable read means non-membership
	}
	s.timed = tr != nil
	if opts.Metrics != nil {
		lbl := obs.L("model", m.String())
		s.cExamined = opts.Metrics.Counter("check_graphs_examined_total", lbl)
		s.cPruned = opts.Metrics.Counter("check_branches_pruned_total", lbl)
		s.cWR = opts.Metrics.Counter("check_wr_assignments_total", lbl)
		s.cUndo = opts.Metrics.Counter("check_undo_ops_total", lbl)
		s.cDelta = opts.Metrics.Counter("check_closure_delta_edges_total", lbl)
	}
	g, examined, err := s.run()
	if tr != nil {
		tr.MarkAttrs(txtrace.StageCheckExtensionSearch, map[string]int64{
			"cycle_ns": s.cycleNS, "candidates": int64(examined)})
	}
	res.Examined = examined
	if err != nil {
		return res, err
	}
	if g == nil {
		res.Explain = s.explainNegative(m, examined)
		tr.Mark(txtrace.StageCheckExplain)
		return res, nil
	}
	res.Member = true
	res.Graph = g
	if opts.BuildExecution && row.RW == depgraph.RWOptional {
		x, err := core.BuildExecution(g, m)
		tr.Mark(txtrace.StageCheckSolve)
		if err != nil {
			return res, fmt.Errorf("check: building %v execution certificate: %w", m, err)
		}
		res.Execution = x
	}
	return res, nil
}

// explainNegative builds the Explanation for a negative verdict from
// the search's final state: the last complete candidate graph when one
// exists, or the dependency (base) cycle that killed the last pruned
// branch when every branch died early.
func (s *search) explainNegative(m depgraph.Model, examined int) *Explanation {
	definitive := examined == 1
	detail := ""
	if !definitive && examined > 1 {
		detail = fmt.Sprintf("cycle from the last of %d rejected candidate extensions", examined)
	}
	if s.lastCandidate != nil {
		g := s.replay(s.lastCandidate)
		if we := g.ExplainWitness(m); we != nil {
			return &Explanation{
				Model: m, Axiom: we.Axiom, Cycle: we.Cycle,
				Graph: g, Detail: detail, Definitive: definitive,
			}
		}
		// A complete candidate that is not in the model must have a
		// witness; reaching here means only INT could have failed,
		// which Certify already ruled out. Fall through to a generic
		// explanation rather than returning nil.
	}
	if s.lastPruned != nil {
		g := s.replay(s.lastPruned)
		if we := g.ExplainBaseCycle(m); we != nil {
			if detail == "" {
				detail = "every write-order extension of this WR assignment makes the dependencies cyclic"
			}
			return &Explanation{
				Model: m, Axiom: we.Axiom, Cycle: we.Cycle,
				Graph: g, Detail: detail, Definitive: definitive,
			}
		}
	}
	return &Explanation{Model: m, Axiom: "EXT",
		Detail: "no dependency-graph extension of the history lies in the model", Definitive: definitive}
}

// CertifyAll certifies the history against several models, one after
// another, and returns the results keyed by model. On failure it
// returns the error of the first failing model in the order of the
// models argument (results for other models may still be present).
func CertifyAll(h *model.History, models []depgraph.Model, opts Options) (map[depgraph.Model]*Result, error) {
	out := make(map[depgraph.Model]*Result, len(models))
	var firstErr error
	for _, m := range models {
		res, err := Certify(h, m, opts)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%v: %w", m, err)
		}
		out[m] = res
	}
	return out, firstErr
}
