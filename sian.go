// Package sian ("Snapshot Isolation ANalyser") is a library
// reproduction of Cerone & Gotsman, "Analysing Snapshot Isolation"
// (PODC 2016).
//
// It provides:
//
//   - the history and abstract-execution model of the paper (§2) with
//     checkable consistency axioms for serializability, snapshot
//     isolation (SI) and parallel snapshot isolation (PSI), plus the
//     prefix-consistency (PC) and generalised-SI (GSI) extensions;
//   - Adya-style dependency graphs and the dependency-graph
//     characterisations of all five models (Theorems 8, 9, 21 for the
//     paper's three; PC and GSI derived with the same technique),
//     including the constructive soundness direction of Theorem 10
//     (building an SI execution from a graph in GraphSI);
//   - a history certifier and anomaly classifier deciding which models
//     allow a recorded history;
//   - the transaction-chopping analyses of §5 (dynamic and static,
//     plus the Autochop optimiser) and the robustness analyses of §6;
//   - reference transactional engines (SI, serializable 2PL, PSI and
//     serializable-SI) whose recorded histories close the loop between
//     the operational and declarative definitions.
//
// The facade re-exports the most commonly used types and entry points;
// the implementation lives in the internal/ packages, one per
// subsystem (see DESIGN.md for the inventory).
package sian

import (
	"io"

	"sian/internal/check"
	"sian/internal/chopping"
	"sian/internal/core"
	"sian/internal/depgraph"
	"sian/internal/dot"
	"sian/internal/engine"
	"sian/internal/execution"
	"sian/internal/model"
	"sian/internal/robustness"
)

// Model/data types of §2–§3.
type (
	// Obj identifies a shared object.
	Obj = model.Obj
	// Value is the value domain of objects.
	Value = model.Value
	// Op is a read or write operation.
	Op = model.Op
	// Transaction is a sequence of operations.
	Transaction = model.Transaction
	// Session is an ordered list of transactions by one client.
	Session = model.Session
	// History is a set of sessions (T, SO).
	History = model.History
	// Execution is an abstract execution (H, VIS, CO).
	Execution = execution.Execution
	// Graph is an Adya-style dependency graph (T, SO, WR, WW, RW).
	Graph = depgraph.Graph
	// Model selects a consistency model (SER, SI, PSI, PC or GSI).
	Model = depgraph.Model
)

// Consistency models. Beyond the paper's SER/SI/PSI: PC (prefix
// consistency) is the §7 future-work model, characterised here by
// acyclicity of ((SO ∪ WR) ; RW?) ∪ WW, and GSI is generalised SI [17]
// (SI without session guarantees), characterised by acyclicity of
// (WR ∪ WW) ; RW?; both are validated against their axiomatic
// definitions by exhaustive small-scope checking.
const (
	SER = depgraph.SER
	SI  = depgraph.SI
	PSI = depgraph.PSI
	PC  = depgraph.PC
	GSI = depgraph.GSI
)

// Read returns the operation read(x, n).
func Read(x Obj, n Value) Op { return model.Read(x, n) }

// Write returns the operation write(x, n).
func Write(x Obj, n Value) Op { return model.Write(x, n) }

// NewTransaction builds a transaction from operations in program
// order.
func NewTransaction(id string, ops ...Op) Transaction {
	return model.NewTransaction(id, ops...)
}

// NewHistory builds a history from sessions.
func NewHistory(sessions ...Session) *History { return model.NewHistory(sessions...) }

// NewGraph returns an empty dependency graph over a history; add WR
// and WW edges with its methods, RW is derived (Definition 5).
func NewGraph(h *History) *Graph { return depgraph.New(h) }

// Certification (Theorems 8, 9, 21).

// CertifyOptions configures Certify; see check.Options.
type CertifyOptions = check.Options

// CertifyResult is the outcome of Certify; see check.Result.
type CertifyResult = check.Result

// Certify decides whether a history is allowed by the given
// consistency model, returning a witness dependency graph on success.
// The zero options add an initialisation transaction writing 0 and use
// default search budgets.
func Certify(h *History, m Model, opts CertifyOptions) (*CertifyResult, error) {
	return check.Certify(h, m, opts)
}

// CertifyAll certifies the history against several models, one
// after another.
func CertifyAll(h *History, models []Model, opts CertifyOptions) (map[Model]*CertifyResult, error) {
	return check.CertifyAll(h, models, opts)
}

// Anomaly names the boundary class of a history across the model
// lattice.
type Anomaly = check.Anomaly

// AnomalyReport is the outcome of ClassifyHistory.
type AnomalyReport = check.Report

// ClassifyHistory certifies the history against the full model lattice
// (SER, SI, PSI, PC, GSI) and names its anomaly class — serializable,
// write skew, long fork, lost update, stale session read, or
// inconsistent.
func ClassifyHistory(h *History, opts CertifyOptions) (*AnomalyReport, error) {
	return check.Classify(h, opts)
}

// Theorem 10 constructions.

// BuildExecution constructs, from a dependency graph in model m's
// graph class, an abstract execution satisfying m's axioms whose
// dependency graph is the input (Theorem 10(i) for SI; PC and GSI get
// the same construction from their rows, SER and PSI none).
func BuildExecution(g *Graph, m Model) (*Execution, error) { return core.BuildExecution(g, m) }

// VerifyExecution independently checks that x satisfies model m's
// axioms and that graph(x) = g — the full conclusion of Theorem 10(i).
func VerifyExecution(g *Graph, m Model, x *Execution) error { return core.Verify(g, m, x) }

// Transaction chopping (§5).
type (
	// Piece is one piece of a chopped transaction (read/write sets).
	Piece = chopping.Piece
	// Program is a chopped transaction: an ordered list of pieces.
	Program = chopping.Program
	// ChoppingVerdict reports a static chopping analysis.
	ChoppingVerdict = chopping.Verdict
	// Criticality selects the critical-cycle notion (SER/SI/PSI).
	Criticality = chopping.Criticality
)

// Criticality levels for chopping analyses.
const (
	SERCritical = chopping.SERCritical
	SICritical  = chopping.SICritical
	PSICritical = chopping.PSICritical
)

// NewPiece builds a chopping piece from read and write sets.
func NewPiece(name string, reads, writes []Obj) Piece {
	return chopping.NewPiece(name, reads, writes)
}

// NewProgram builds a chopping program from pieces.
func NewProgram(name string, pieces ...Piece) Program {
	return chopping.NewProgram(name, pieces...)
}

// CheckChopping runs the static chopping analysis: Corollary 18 at
// SICritical, Theorem 29 at SERCritical, Theorem 31 at PSICritical.
func CheckChopping(programs []Program, level Criticality) (*ChoppingVerdict, error) {
	return chopping.CheckStatic(programs, level)
}

// SpliceResult reports the dynamic chopping check of Theorem 16.
type SpliceResult = chopping.SpliceResult

// CheckDynamicChopping applies Theorem 16 to a concrete dependency
// graph in GraphSI: when its dynamic chopping graph has no SI-critical
// cycle, the result carries the spliced dependency graph (guaranteed
// to be in GraphSI); otherwise it carries the critical cycle.
func CheckDynamicChopping(g *Graph) (*SpliceResult, error) {
	return chopping.CheckDynamic(g)
}

// Splice lifts a dependency graph to the spliced history per §5.
func Splice(g *Graph) (*Graph, error) { return chopping.Splice(g) }

// Autochop greedily coarsens the given (finest-granularity) programs
// until the static chopping graph has no critical cycle at the given
// level, returning a chopping that is provably correct under the
// corresponding model.
func Autochop(programs []Program, level Criticality) ([]Program, error) {
	return chopping.Autochop(programs, level)
}

// Robustness (§6).
type (
	// TxSpec is a transaction's static read/write sets.
	TxSpec = robustness.TxSpec
	// App is a set of sessions of transaction specs.
	App = robustness.App
)

// NewTxSpec builds a transaction specification.
func NewTxSpec(name string, reads, writes []Obj) TxSpec {
	return robustness.NewTxSpec(name, reads, writes)
}

// SingleTxApp builds an application with each transaction in its own
// session.
func SingleTxApp(txs ...TxSpec) App { return robustness.SingleTxApp(txs...) }

// RobustnessWitness is a dangerous cycle found by a robustness
// analysis.
type RobustnessWitness = chopping.Witness

// CheckSIRobust reports whether the application, run under SI, only
// produces serializable behaviour (§6.1). The witness is nil when the
// application is robust; an error means the witness search ran out of
// budget and the analysis is inconclusive.
func CheckSIRobust(app App) (*RobustnessWitness, error) {
	return robustness.CheckSIRobust(app)
}

// CheckPSIRobust reports whether the application, run under parallel
// SI, only produces SI behaviour (§6.2), as CheckSIRobust does.
func CheckPSIRobust(app App) (*RobustnessWitness, error) {
	return robustness.CheckPSIRobust(app)
}

// Classification places a dependency graph in the model lattice.
type Classification = robustness.Classification

// ClassifyGraph runs all three paper characterisations on a concrete
// dependency graph; SI && !SER is the Theorem 19 non-robustness
// witness shape, PSI && !SI the Theorem 22 one.
func ClassifyGraph(g *Graph) Classification { return robustness.Classify(g) }

// Graphviz rendering.

// WriteGraphDOT renders a dependency graph as Graphviz DOT.
func WriteGraphDOT(w io.Writer, g *Graph) error { return dot.Graph(w, g) }

// WriteExecutionDOT renders an abstract execution as Graphviz DOT.
func WriteExecutionDOT(w io.Writer, x *Execution) error { return dot.Execution(w, x) }

// Engines.
type (
	// DB is a reference transactional database (SI, SER or PSI).
	DB = engine.DB
	// EngineConfig tunes a DB.
	EngineConfig = engine.Config
	// EngineKind selects the concurrency-control protocol.
	EngineKind = engine.Kind
	// EngineSession is a client session on a DB.
	EngineSession = engine.Session
	// EngineTx is the transaction handle passed to Transact callbacks.
	EngineTx = engine.Tx
	// EngineManualTx is an explicitly controlled transaction (for
	// staging specific interleavings).
	EngineManualTx = engine.ManualTx
)

// Engine kinds.
const (
	EngineSI  = engine.SI
	EngineSER = engine.SER
	EnginePSI = engine.PSI
	EngineSSI = engine.SSI
)

// NewDB creates a reference transactional database of the given kind.
func NewDB(kind EngineKind, cfg EngineConfig) (*DB, error) { return engine.New(kind, cfg) }
