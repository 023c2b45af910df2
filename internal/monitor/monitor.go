// Package monitor certifies a live stream of transactional events
// against a consistency model, online. It is the streaming counterpart
// of package check: where check.Certify inspects a complete history,
// the monitor consumes begin/read/write/commit/abort events as they
// happen (from an eventlog.Recorder dump or an NDJSON tail), maintains
// an incremental dependency graph over a sliding window of committed
// transactions, and reports violations as soon as a commit makes the
// window inconsistent.
//
// # Fast path and slow path
//
// Per commit, the monitor extends a transitively-closed base relation
// B = SO ∪ WR ∪ WW (relation.Closure) with the new transaction's
// edges, derives anti-dependencies against per-object version chains,
// and re-tests the model's composite-acyclicity formula — the same
// formulas depgraph.Builder evaluates, applied to the one candidate
// graph induced by arrival order (WW ordered by commit arrival, WR
// resolved by value traceability). If that candidate satisfies the
// model the window is a member — the candidate is an existential
// witness, Theorems 8/9/21 need nothing more — and the commit costs
// one sparse compose, no search. Only when the arrival candidate
// fails does the monitor fall back to check.Certify on the assembled
// window history, which searches every candidate extension and, on a
// negative verdict, yields the witness cycle for the report. A
// positive slow-path verdict is adopted: the carrier is rebuilt from
// the certified witness graph, so the fast path resumes from a valid
// candidate instead of recertifying every subsequent commit.
//
// Anti-dependencies use immediate chain successors only: RW(r, s) is
// recorded just for the writer s directly following, in the version
// chain, the version r read. Because every composite formula closes
// over B before or after the RW step, a hop r→s followed by the WW
// chain inside B reaches everything the transitive RW would, so the
// acyclicity verdicts are unchanged while edge maintenance stays
// constant per read.
//
// # Window collapse (GC)
//
// With Config.Window > 0 the monitor bounds memory by collapsing the
// oldest committed transactions into a frontier of per-object final
// values — the stable-prefix reading of the paper's PREFIX axiom:
// once a prefix is certified and no dependency edge can re-enter it,
// its verdict cannot be invalidated by later transactions, so the
// prefix reduces to the last value it installed per object. The
// collapse is validated first (collapseOK); reads that would have
// needed a collapsed non-final version stay pending and surface as a
// conservative rejection. After any collapse the monitor keeps a
// one-sided guarantee: a "member" verdict still implies the full
// stream is a member, while rejections are flagged non-definitive.
//
// The collapse edits the graph in place. Every window transaction owns
// a carrier slot for as long as it is live (slot 0 is the frontier), so
// nothing is renumbered: a collapsed transaction leaves its version
// chains, its row and column are cleared in the dense relations, its
// closure row is folded into slot 0, the survivors that read it are
// re-pointed at the frontier, and the slot goes back on a free list —
// as does the transaction's record, which a later commit reuses once
// the collapse has left no live pointer to it.
//
// # One record per object
//
// Everything the monitor keeps about an object — the value index, the
// version chain, the readers of the current version, every live
// reader, the frontier value — is one objState record, looked up by
// name once per distinct object when a commit is summarised and
// carried from there. Only a read of an object the retired prefix
// wrote can break a collapse condition or need re-pointing, so
// collapseOK and collapseInPlace visit the prefix's own operations and
// the live readers of the objects it wrote. A commit therefore costs
// the operations of the transaction it adds and of the one it retires,
// plus the readers of what that one wrote — not a replay of the window,
// nor a pass over its reads.
package monitor

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"sian/internal/check"
	"sian/internal/depgraph"
	"sian/internal/model"
	"sian/internal/obs"
	"sian/internal/obs/eventlog"
	"sian/internal/relation"
)

// Config parameterises a Monitor.
type Config struct {
	// Model is the consistency model to certify against. Zero means
	// depgraph.SI.
	Model depgraph.Model
	// Window bounds the number of committed transactions kept live.
	// Non-positive keeps every transaction (exact offline agreement,
	// unbounded memory).
	Window int
	// Budget bounds each slow-path certification, as check.Options.
	Budget int
	// InitValue is the value every object holds before any write;
	// reads of it resolve to the (virtual) init transaction.
	InitValue model.Value
	// Metrics receives monitor counters and gauges. Nil disables.
	Metrics *obs.Registry
	// OnViolation, when set, is called synchronously for each
	// violation as it is detected.
	OnViolation func(Violation)

	// now stubs time.Now in tests.
	now func() time.Time
}

// Violation is one detected (or suspected) anomaly.
type Violation struct {
	// Seq is the event sequence number of the commit that revealed
	// it (0 for the end-of-stream certification).
	Seq int64
	// Txn is the committing transaction's id.
	Txn string
	// Model the verdict is about.
	Model depgraph.Model
	// Axiom names the violated axiom group, as check.Explanation.
	Axiom string
	// Cycle renders the witnessing forbidden cycle, when one exists,
	// and Edges is its structured form.
	Cycle string
	Edges []depgraph.Edge
	// Detail carries free-text context.
	Detail string
	// Definitive reports whether the verdict necessarily extends to
	// the full stream: true only when every read resolved to a
	// unique writer (no pending reads, no duplicate values) and no
	// window collapse has discarded context.
	Definitive bool
}

func (v Violation) String() string {
	verdict := "possible violation"
	if v.Definitive {
		verdict = "violation"
	}
	s := fmt.Sprintf("%s of %s at commit %s (event %d): %s", verdict, v.Model, v.Txn, v.Seq, v.Axiom)
	if v.Cycle != "" {
		s += ": " + v.Cycle
	}
	if v.Detail != "" {
		s += " — " + v.Detail
	}
	return s
}

// Verdict is the per-commit answer from Ingest.
type Verdict struct {
	// Seq and Txn identify the commit.
	Seq int64
	Txn string
	// Member reports whether the live window (plus frontier) is
	// still allowed by the model. Reads whose writer has not yet
	// committed are held pending and counted optimistically; the
	// Finish certification settles them.
	Member bool
	// Checked reports that this commit triggered a slow-path
	// certification (the fast arrival-order candidate failed).
	Checked bool
	// Violation is non-nil when this commit revealed an anomaly.
	Violation *Violation
	// Pending and Window snapshot the monitor state after the
	// commit.
	Pending int
	Window  int
}

// Report is the end-of-stream summary from Finish.
type Report struct {
	Model depgraph.Model
	// Member is the final verdict for the live window. When GCd is
	// zero it is exactly check.Certify's verdict on the assembled
	// history; after collapses it stays sound one-sidedly (Member
	// true still implies the full stream is a member).
	Member bool
	// Definitive reports whether Member is exact for the full
	// stream (no collapse happened, or the verdict is positive).
	Definitive bool
	Events     int64
	Commits    int64
	GCd        int64
	Pending    int
	DupVals    bool
	Rechecks   int64
	// Violations lists every anomaly reported during the stream.
	Violations []Violation
	// Final is the end-of-stream certification's explanation when it
	// rejected the window.
	Final *check.Explanation
}

// winTx is one committed transaction in the live window. A collapse
// retires the record to the monitor's free list, and the next commit
// takes it back with the capacity of its slices.
type winTx struct {
	id   string
	sess *sessState
	tx   model.Transaction
	seq  int64
	// ord numbers commits in arrival order; the window is sorted by it,
	// so "t is among the k oldest" is one comparison.
	ord int64
	// idx is the carrier slot, stable while the transaction is live;
	// slot 0 is the init/frontier transaction.
	idx int
	// prevSame links the previous committed transaction of the same
	// session still in the window (nil at the window edge).
	prevSame *winTx
	// ext lists the external reads (T ⊢ read(x, v)) and fin the final
	// writes (T ⊢ write(x, v)), each sorted by object.
	ext, fin []version
	// reads records how each external read resolved (nil writer =
	// init/frontier); rebuilt on every replay.
	reads []resolvedRead
}

// objState is everything the monitor keeps about one object. The
// record is looked up by name once per distinct object when a commit
// is summarised, and carried from there in version, resolvedRead and
// pendingRead.
type objState struct {
	name model.Obj
	// byVal indexes the live versions: value → the writer reads of it
	// resolve to (the first in chain order).
	byVal map[model.Value]*winTx
	// chain is the version chain: every live writer, oldest version
	// first.
	chain []*winTx
	// cur holds the live readers of the current version, whose
	// anti-dependency on the next writer is not yet recorded.
	cur []*winTx
	// readers holds every live transaction with a resolved read of the
	// object; a collapse visits these for the objects its prefix wrote.
	readers []*winTx
	// front is the value the collapsed prefix (or an absorbed init
	// transaction) left, when hasFront.
	front    model.Value
	hasFront bool
	// visit and last are prefixWrites' scratch: the call that last
	// listed the object, and the prefix's latest writer of it.
	visit int64
	last  *winTx
}

// version is a value an object held.
type version struct {
	obj *objState
	val model.Value
}

// summarize sets t.ext to t's external reads (the first access to the
// object is a read) and t.fin to its final writes, each sorted by
// object name, looking each distinct object's record up once.
func (m *Monitor) summarize(t *winTx) {
	ops := t.tx.Ops
	// Group the operations by object, keeping program order within one.
	order := m.order[:0]
	for i := range ops {
		order = append(order, int32(i))
	}
	m.order = order
	slices.SortFunc(order, func(a, b int32) int {
		if c := strings.Compare(string(ops[a].Obj), string(ops[b].Obj)); c != 0 {
			return c
		}
		return int(a - b)
	})
	ext, fin := t.ext[:0], t.fin[:0]
	for i := 0; i < len(order); {
		first := ops[order[i]]
		st := m.state(first.Obj)
		if first.Kind == model.OpRead {
			ext = append(ext, version{st, first.Val})
		}
		var last *model.Op
		for ; i < len(order) && ops[order[i]].Obj == first.Obj; i++ {
			if op := &ops[order[i]]; op.Kind == model.OpWrite {
				last = op
			}
		}
		if last != nil {
			fin = append(fin, version{st, last.Val})
		}
	}
	t.ext, t.fin = ext, fin
}

// state returns the record of object x, creating it on first sight.
func (m *Monitor) state(x model.Obj) *objState {
	st, ok := m.objects[x]
	if !ok {
		st = &objState{name: x}
		m.objects[x] = st
	}
	return st
}

// finalWrite returns the value t finally writes to x; t must write x.
func (t *winTx) finalWrite(x *objState) model.Value {
	for _, w := range t.fin {
		if w.obj == x {
			return w.val
		}
	}
	panic(fmt.Sprintf("monitor: %s is in the version chain of %s without writing it", t.id, x.name))
}

// readOf returns t's resolved read of x, or nil.
func (t *winTx) readOf(x *objState) *resolvedRead {
	for i := range t.reads {
		if t.reads[i].obj == x {
			return &t.reads[i]
		}
	}
	return nil
}

type resolvedRead struct {
	obj    *objState
	val    model.Value
	writer *winTx
}

// sessState is everything the monitor keeps about one session: its
// in-flight attempts and its live window transactions. Ingest finds it
// with the one map lookup an event costs.
type sessState struct {
	id string
	// open holds the session's in-flight attempts, usually one. The
	// slots past len(open) keep their op buffers for the next attempt.
	open []attempt
	// txs holds the session's live window transactions in commit order.
	txs []*winTx
}

// attempt is one in-flight transaction: its id within the session and
// its operations so far.
type attempt struct {
	txid string
	ops  []model.Op
}

// find returns the index of s's open attempt txid, or -1.
func (s *sessState) find(txid string) int {
	for i := range s.open {
		if s.open[i].txid == txid {
			return i
		}
	}
	return -1
}

// begin returns s's open attempt txid, opening it on first sight.
func (s *sessState) begin(txid string) *attempt {
	if i := s.find(txid); i >= 0 {
		return &s.open[i]
	}
	if len(s.open) < cap(s.open) {
		s.open = s.open[:len(s.open)+1]
	} else {
		s.open = append(s.open, attempt{})
	}
	a := &s.open[len(s.open)-1]
	a.txid, a.ops = txid, a.ops[:0]
	return a
}

// end closes open attempt i; its buffer stays past len(s.open).
func (s *sessState) end(i int) {
	last := len(s.open) - 1
	s.open[i], s.open[last] = s.open[last], s.open[i]
	s.open = s.open[:last]
}

type pendingRead struct {
	reader *winTx
	obj    *objState
	val    model.Value
}

// Monitor is an online certifier. It is not safe for concurrent use;
// feed it from one goroutine (an eventlog merge or NDJSON tail is
// already a serial stream).
type Monitor struct {
	cfg   Config
	model depgraph.Model

	// sess holds every session with an open attempt or a live window
	// transaction.
	sess map[string]*sessState

	win      []*winTx // live transactions in arrival order
	nextOrd  int64
	sessions []*sessState // sessions with live transactions in first-seen order, for deterministic window histories
	// freeTx holds the records of collapsed transactions for reuse;
	// order is summarize's scratch.
	freeTx []*winTx
	order  []int32
	// objects holds the record of every object the stream has touched.
	objects map[model.Obj]*objState
	// strictInit is set when the stream's first commit is the
	// history's own init transaction: it is absorbed into the
	// frontier, and implicit reads of InitValue on objects it did
	// not write no longer resolve.
	strictInit bool
	sawCommit  bool

	// Incremental graph state over carrier slots [0, cap). free is the
	// stack of unoccupied slots. so and wrAll are kept only when pc is
	// set: PC's formula is the one that reads them.
	pc      bool
	cap     int
	free    []int
	cl      *relation.Closure
	so      *relation.Rel
	wrAll   *relation.Rel
	rw      *relation.Rel
	scratch *depgraph.Scratch
	pending []pendingRead
	// visits numbers prefixWrites calls, for objState.visit; written
	// is the slice it returns.
	visits  int64
	written []*objState

	violations []Violation
	dupVals    bool
	tainted    bool // a slow-path check rejected; stop re-searching
	fastOK     bool // the arrival candidate currently satisfies the model
	err        error
	report     *Report
	// collapse retires the k oldest window transactions; always
	// collapseInPlace outside the tests, which swap in a replaying
	// oracle.
	collapse func(m *Monitor, k int)

	nEvents, nCommits, nGCd, nRechecks, nRebuilds int64

	cEvents, cCommits, cViol, cGC, cRecheck, cRebuild *obs.Counter
	gWindow, gPending                                 *obs.Gauge
	hLag                                              *obs.Histogram
}

// New returns a monitor for the given configuration.
func New(cfg Config) *Monitor {
	if cfg.Model == depgraph.ModelInvalid {
		cfg.Model = depgraph.SI
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	m := &Monitor{
		cfg:      cfg,
		model:    cfg.Model,
		pc:       cfg.Model == depgraph.PC,
		sess:     make(map[string]*sessState),
		objects:  make(map[model.Obj]*objState),
		fastOK:   true,
		collapse: (*Monitor).collapseInPlace,
	}
	lbl := obs.L("model", cfg.Model.String())
	reg := cfg.Metrics
	m.cEvents = reg.Counter("monitor_events_ingested_total", lbl)
	m.cCommits = reg.Counter("monitor_commits_total", lbl)
	m.cViol = reg.Counter("monitor_violations_total", lbl)
	m.cGC = reg.Counter("monitor_gc_txns_total", lbl)
	m.cRecheck = reg.Counter("monitor_rechecks_total", lbl)
	m.cRebuild = reg.Counter("monitor_rebuilds_total", lbl)
	m.gWindow = reg.Gauge("monitor_window_txns", lbl)
	m.gPending = reg.Gauge("monitor_pending_reads", lbl)
	m.hLag = reg.Histogram("monitor_ingest_lag_ns", lbl)
	initial := 16
	if cfg.Window > 0 && cfg.Window+2 > initial {
		initial = cfg.Window + 2
	}
	m.rebuild(initial)
	return m
}

// Ingest consumes one event. It returns a non-nil verdict for every
// commit of a non-empty transaction, nil otherwise. After Finish has
// been called further events are ignored.
func (m *Monitor) Ingest(ev eventlog.Event) *Verdict {
	if m.report != nil {
		return nil
	}
	m.nEvents++
	m.cEvents.Inc()
	if ev.TS > 0 && m.hLag != nil {
		if lag := m.cfg.now().UnixNano() - ev.TS; lag > 0 {
			m.hLag.Observe(lag)
		} else {
			m.hLag.Observe(0)
		}
	}
	s := m.sess[ev.Session]
	switch ev.Kind {
	case eventlog.Begin:
		m.session(s, ev.Session).begin(ev.TxID)
	case eventlog.Read:
		a := m.session(s, ev.Session).begin(ev.TxID)
		a.ops = append(a.ops, model.Read(ev.Obj, ev.Val))
	case eventlog.Write:
		a := m.session(s, ev.Session).begin(ev.TxID)
		a.ops = append(a.ops, model.Write(ev.Obj, ev.Val))
	case eventlog.Abort, eventlog.Conflict:
		if s == nil {
			break
		}
		if i := s.find(ev.TxID); i >= 0 {
			s.end(i)
			m.release(s)
		}
	case eventlog.Commit:
		i := -1
		var ops []model.Op
		if s != nil {
			if i = s.find(ev.TxID); i >= 0 {
				ops = s.open[i].ops
			}
		}
		name := ev.Name
		if name == "" {
			name = ev.TxID
		}
		v, spare := m.processCommit(ev.Seq, name, s, ops)
		if i >= 0 {
			s.open[i].ops = spare
			s.end(i)
			m.release(s)
		}
		return v
	}
	return nil
}

// session returns s, the record of session id, or a new one when s is
// nil.
func (m *Monitor) session(s *sessState, id string) *sessState {
	if s == nil {
		s = &sessState{id: id}
		m.sess[id] = s
	}
	return s
}

// release forgets session s once it has neither an open attempt nor a
// live transaction.
func (m *Monitor) release(s *sessState) {
	if len(s.open) == 0 && len(s.txs) == 0 {
		delete(m.sess, s.id)
	}
}

// Violations returns the anomalies reported so far.
func (m *Monitor) Violations() []Violation { return m.violations }

// Window returns the number of committed transactions currently live.
func (m *Monitor) Window() int { return len(m.win) }

// processCommit folds the transaction of session s that committed at
// event seq, named name, into the live graph and re-certifies. A window
// record keeps ops; the buffer returned is the one the caller's attempt
// holds next: the record's previous one, or ops itself when no record
// kept it.
func (m *Monitor) processCommit(seq int64, name string, s *sessState, ops []model.Op) (*Verdict, []model.Op) {
	m.nCommits++
	m.cCommits.Inc()
	first := !m.sawCommit
	m.sawCommit = true
	if len(ops) == 0 {
		return &Verdict{Seq: seq, Txn: name, Member: m.memberNow(), Pending: len(m.pending), Window: len(m.win)}, ops
	}
	if first && name == model.InitTransactionID {
		// The stream carries the history's own init transaction:
		// absorb its writes as the frontier instead of occupying a
		// window slot, mirroring how check pins transaction 0.
		for _, op := range ops {
			if op.Kind == model.OpWrite {
				st := m.state(op.Obj)
				st.front, st.hasFront = op.Val, true // the last write wins
			}
		}
		m.strictInit = true
		return &Verdict{Seq: seq, Txn: name, Member: true, Window: len(m.win)}, ops
	}

	if len(m.free) == 0 {
		m.grow()
	}
	// ops leaves the attempt with this commit and is not shared: the
	// record can own it.
	t := m.newTx()
	spare := t.tx.Ops[:0]
	t.id, t.sess, t.seq, t.ord = name, s, seq, m.nextOrd
	t.tx = model.Transaction{ID: name, Ops: ops}
	m.nextOrd++
	m.summarize(t)
	t.idx = m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	t.prevSame = nil
	if n := len(s.txs); n > 0 {
		t.prevSame = s.txs[n-1]
	} else {
		m.sessions = append(m.sessions, s)
	}
	s.txs = append(s.txs, t)
	m.win = append(m.win, t)
	m.applyTx(t)

	v := &Verdict{Seq: seq, Txn: name}
	m.fastOK = m.fastCheck()
	switch {
	case m.tainted:
		v.Member = false
	case m.fastOK:
		v.Member = true
	default:
		// The arrival-order candidate fails; search all candidates.
		v.Checked = true
		res := m.certifyWindow()
		if res == nil {
			v.Member = false // budget exhausted; m.err carries why
		} else if res.Member {
			v.Member = true
			if res.Graph != nil {
				m.adoptWitness(res.Graph)
				m.fastOK = m.fastCheck()
			}
		} else {
			m.tainted = true
			viol := m.violationFrom(seq, name, res.Explain)
			m.violations = append(m.violations, viol)
			m.cViol.Inc()
			if m.cfg.OnViolation != nil {
				m.cfg.OnViolation(viol)
			}
			v.Violation = &viol
		}
	}
	m.maybeGC()
	v.Pending = len(m.pending)
	v.Window = len(m.win)
	m.gWindow.Set(int64(len(m.win)))
	m.gPending.Set(int64(len(m.pending)))
	return v, spare
}

// newTx returns a window record to fill: a retired one when there is
// one, keeping the capacity of its slices.
func (m *Monitor) newTx() *winTx {
	n := len(m.freeTx)
	if n == 0 {
		return new(winTx)
	}
	t := m.freeTx[n-1]
	m.freeTx[n-1] = nil
	m.freeTx = m.freeTx[:n-1]
	return t
}

func (m *Monitor) memberNow() bool { return m.fastOK && !m.tainted }

// applyTx adds t's session, read and write dependencies to the
// incremental state. It is replay-safe: t.reads is rebuilt.
func (m *Monitor) applyTx(t *winTx) {
	t.reads = t.reads[:0]
	// The so relation carries the full transitive session order (the
	// PC formula composes with it directly); the closure only needs
	// the immediate predecessor edge, transitivity is its job. GSI
	// drops SO from the base relation altogether (Theorem 21's
	// GraphSI variant without session guarantees).
	for p := t.prevSame; p != nil && m.pc; p = p.prevSame {
		m.so.Add(p.idx, t.idx)
	}
	if t.prevSame != nil && m.model != depgraph.GSI {
		m.cl.AddEdge(t.prevSame.idx, t.idx)
	}
	for _, r := range t.ext {
		m.resolveRead(t, r.obj, r.val)
	}
	for _, w := range t.fin {
		m.applyWrite(t, w.obj, w.val)
	}
}

// resolveRead attributes an external read (x, v) to its writer, or
// parks it pending until a matching writer commits.
func (m *Monitor) resolveRead(t *winTx, x *objState, v model.Value) {
	if w, ok := x.byVal[v]; ok {
		m.linkRead(t, x, v, w)
		return
	}
	if x.hasFront {
		if x.front == v {
			m.linkRead(t, x, v, nil)
			return
		}
		// The frontier overwrote whatever wrote v; fall through to
		// pending (a conservative EXT rejection if never resolved).
	} else if !m.strictInit && v == m.cfg.InitValue {
		m.linkRead(t, x, v, nil) // virtual init wrote v
		return
	}
	m.pending = append(m.pending, pendingRead{reader: t, obj: x, val: v})
}

// linkRead records reader t of version (x, v) written by w (nil for
// the init/frontier transaction): a WR edge into the base relation,
// plus the immediate-successor anti-dependency when the version has
// already been overwritten.
func (m *Monitor) linkRead(t *winTx, x *objState, v model.Value, w *winTx) {
	wi := 0
	if w != nil {
		wi = w.idx
	}
	t.reads = append(t.reads, resolvedRead{obj: x, val: v, writer: w})
	x.readers = append(x.readers, t)
	if m.pc {
		m.wrAll.Add(wi, t.idx)
	}
	m.cl.AddEdge(wi, t.idx)
	if m.linkSuccessor(t, x, w) {
		x.cur = append(x.cur, t)
	}
}

// linkSuccessor places reader t of w's version of x (nil: the
// frontier's) against the version chain. If a later version exists, t
// anti-depends on the writer of the next one and the result is false;
// otherwise t reads the current version — the caller keeps it in
// x.cur for the next writer — and the result is true.
func (m *Monitor) linkSuccessor(t *winTx, x *objState, w *winTx) bool {
	ch := x.chain
	next := 0
	if w != nil {
		next = slices.Index(ch, w) + 1
	}
	if next == len(ch) {
		return true
	}
	if succ := ch[next]; succ != t {
		m.rw.Add(t.idx, succ.idx)
	}
	return false
}

// applyWrite appends t to x's version chain: a WW edge from the
// previous version, anti-dependencies from its readers, and
// resolution of any reads waiting for this value.
func (m *Monitor) applyWrite(t *winTx, x *objState, v model.Value) {
	m.indexValue(t, x, v)
	prev := 0
	if len(x.chain) > 0 {
		prev = x.chain[len(x.chain)-1].idx
	}
	m.cl.AddEdge(prev, t.idx)
	for _, r := range x.cur {
		if r != t {
			m.rw.Add(r.idx, t.idx)
		}
	}
	clear(x.cur)
	x.cur = x.cur[:0]
	x.chain = append(x.chain, t)
	if len(m.pending) > 0 {
		kept := m.pending[:0]
		for _, p := range m.pending {
			if p.obj == x && p.val == v && p.reader != t {
				m.linkRead(p.reader, x, v, t)
			} else {
				kept = append(kept, p)
			}
		}
		m.pending = kept
	}
}

// indexValue enters t as a writer of version (x, v) in the value index,
// where the first writer of a version stays the one reads resolve to.
// A second writer, or a collision with the frontier or the virtual
// init, makes WR resolution ambiguous: verdicts stay sound (the slow
// path searches all attributions) but lose definitiveness.
func (m *Monitor) indexValue(t *winTx, x *objState, v model.Value) {
	if x.byVal == nil {
		x.byVal = make(map[model.Value]*winTx)
	}
	if _, dup := x.byVal[v]; dup {
		m.dupVals = true
	} else {
		x.byVal[v] = t
	}
	if x.hasFront {
		if x.front == v {
			m.dupVals = true
		}
	} else if !m.strictInit && v == m.cfg.InitValue {
		m.dupVals = true
	}
}

// fastCheck tests the arrival-order candidate graph against the
// model over the incremental closure, with the certification search's
// own membership test.
func (m *Monitor) fastCheck() bool {
	return depgraph.ClosureInModel(m.model, m.cl, m.rw, m.so, m.wrAll, m.scratch) == nil
}

// certifyWindow runs the offline checker over the assembled window
// history. A nil result means the certification errored (budget); the
// error is kept for Finish.
func (m *Monitor) certifyWindow() *check.Result {
	m.nRechecks++
	m.cRecheck.Inc()
	h, opts := m.windowHistory()
	res, err := check.Certify(h, m.model, opts)
	if err != nil {
		if m.err == nil {
			m.err = fmt.Errorf("monitor: window certification: %w", err)
		}
		m.tainted = true
		return nil
	}
	return res
}

// windowHistory assembles the live window as a history: an init
// transaction holding the frontier (plus, without an absorbed
// in-stream init, InitValue for every other observed object),
// followed by each session's surviving transactions in commit order.
func (m *Monitor) windowHistory() (*model.History, check.Options) {
	opts := check.Options{InitValue: m.cfg.InitValue, Budget: m.cfg.Budget}
	var objs []*objState
	for _, st := range m.objects {
		if st.hasFront || !m.strictInit {
			objs = append(objs, st)
		}
	}
	slices.SortFunc(objs, func(a, b *objState) int { return strings.Compare(string(a.name), string(b.name)) })
	initOps := make([]model.Op, 0, len(objs))
	for _, st := range objs {
		v := m.cfg.InitValue
		if st.hasFront {
			v = st.front
		}
		initOps = append(initOps, model.Write(st.name, v))
	}
	var sessions []model.Session
	if len(initOps) > 0 {
		opts.NoInit = true
		opts.PinInit = true
		sessions = append(sessions, model.Session{
			ID:           model.InitTransactionID,
			Transactions: []model.Transaction{model.NewTransaction(model.InitTransactionID, initOps...)},
		})
	}
	for _, s := range m.sessions {
		sess := model.Session{ID: s.id, Transactions: make([]model.Transaction, 0, len(s.txs))}
		for _, t := range s.txs {
			sess.Transactions = append(sess.Transactions, t.tx)
		}
		sessions = append(sessions, sess)
	}
	return model.NewHistory(sessions...), opts
}

// adoptWitness replaces the arrival-order candidate state with the
// witness dependency graph of a successful window certification. The
// fast path tests just one candidate extension; when duplicate values
// make it misattribute a read, that candidate fails permanently (the
// closure cannot unlearn the spurious edge) even though the window is
// a member, which would force a full search on every later commit and
// block GC — whose precondition is a passing fast state. Rebuilding
// the carrier from the certified witness restores a passing candidate
// so both recover. Reads parked pending are resolved by the witness's
// WR attribution as a side effect.
func (m *Monitor) adoptWitness(g *depgraph.Graph) {
	// History index -> window transaction, mirroring windowHistory's
	// assembly order: the synthetic init transaction first (when one
	// was emitted), then each session's survivors.
	h := g.History
	var histTx []*winTx
	if h.NumTransactions() > 0 && h.Transaction(0).ID == model.InitTransactionID {
		histTx = append(histTx, nil)
	}
	for _, s := range m.sessions {
		histTx = append(histTx, s.txs...)
	}
	histIdx := make(map[*winTx]int, len(histTx))
	for i, t := range histTx {
		if t != nil {
			histIdx[t] = i
		}
	}
	m.cl = relation.NewClosure(m.cap)
	m.wrAll = relation.New(m.cap)
	m.rw = relation.New(m.cap)
	m.forgetVersions()
	for _, t := range m.win {
		t.reads = t.reads[:0]
		if t.prevSame != nil && m.model != depgraph.GSI {
			m.cl.AddEdge(t.prevSame.idx, t.idx)
		}
	}
	for _, name := range g.Objects() {
		x := m.objects[name]
		// Version chain: the window's writers of x in the witness's
		// per-object total write order (indegree within a total order
		// ranks its elements; a single writer needs no pairs).
		indeg := make(map[int]int)
		for _, p := range g.WWObj(name).Pairs() {
			indeg[p[1]]++
		}
		var chain []*winTx
		for _, t := range m.win {
			if _, ok := t.tx.FinalWrite(name); ok {
				chain = append(chain, t)
			}
		}
		sort.SliceStable(chain, func(i, j int) bool {
			return indeg[histIdx[chain[i]]] < indeg[histIdx[chain[j]]]
		})
		prev := 0
		for _, w := range chain {
			m.cl.AddEdge(prev, w.idx)
			prev = w.idx
			m.indexValue(w, x, w.finalWrite(x))
		}
		x.chain = chain
		for _, p := range g.WRObj(name).Pairs() {
			w, r := histTx[p[0]], histTx[p[1]]
			v, ok := r.tx.ReadsBeforeWrites(name)
			if !ok {
				continue
			}
			m.linkRead(r, x, v, w)
		}
	}
}

func (m *Monitor) violationFrom(seq int64, txn string, e *check.Explanation) Violation {
	v := Violation{
		Seq: seq, Txn: txn, Model: m.model,
		Definitive: len(m.pending) == 0 && !m.dupVals && m.nGCd == 0,
	}
	if e != nil {
		v.Axiom = e.Axiom
		v.Detail = e.Detail
		v.Edges = e.Cycle
		if len(e.Cycle) > 0 && e.Graph != nil {
			v.Cycle = e.Graph.FormatCycle(e.Cycle)
		}
	}
	return v
}

// maybeGC collapses the oldest transactions into the frontier when
// the window exceeds its bound and the collapse is provably safe: the
// fast state is a certified member, no read is pending, and no
// dependency edge would cross back into the collapsed prefix.
func (m *Monitor) maybeGC() {
	if m.cfg.Window <= 0 || len(m.win) <= m.cfg.Window {
		return
	}
	if !m.fastOK || m.tainted || len(m.pending) > 0 {
		return
	}
	k := len(m.win) - m.cfg.Window
	for ; k > 0; k-- {
		if m.collapseOK(k) {
			break
		}
	}
	if k <= 0 {
		return
	}
	m.collapse(m, k)
	m.nGCd += int64(k)
	m.cGC.Add(int64(k))
}

// cut returns the arrival ordinal separating the k oldest window
// transactions (below it) from the survivors; a collapse always leaves
// survivors, so k < len(m.win).
func (m *Monitor) cut(k int) int64 { return m.win[k].ord }

// collapseOK reports whether the k oldest window transactions can be
// collapsed without losing a dependency edge that could still matter:
//
//  1. every collapsed read resolved inside the prefix or frontier, so
//     no WR edge points from a survivor back into the prefix;
//  2. every survivor read of a prefix writer reads the value the
//     prefix leaves behind (its per-object final write), so the WR
//     edge re-targets the new frontier exactly;
//  3. no survivor read of the current frontier/init version is being
//     overwritten by the prefix.
//
// Under these conditions all remaining edges leave the prefix and
// never re-enter it, so its (already certified) verdict is stable —
// the PREFIX/Theorem 9 argument — and the prefix reduces to its final
// values.
//
// A survivor read can only break conditions 2 and 3 on an object the
// prefix writes, so the check visits the prefix's own reads and then
// the live readers of the objects the prefix wrote, nothing else.
func (m *Monitor) collapseOK(k int) bool {
	cut := m.cut(k)
	for _, t := range m.win[:k] {
		for _, r := range t.reads {
			if r.writer != nil && r.writer.ord >= cut {
				return false
			}
		}
	}
	for _, x := range m.prefixWrites(k) {
		for _, t := range x.readers {
			if t.ord < cut {
				continue // a prefix read: condition 1
			}
			// Conditions 2 and 3 in one: a read of a prefix writer or of
			// the frontier must be of the version the prefix ends on.
			if r := t.readOf(x); (r.writer == nil || r.writer.ord < cut) && r.writer != x.last {
				return false
			}
		}
	}
	return true
}

// prefixWrites returns the objects the k oldest window transactions
// write, each once, with x.last set to the latest of them to write x.
// The slice is reused by the next call.
func (m *Monitor) prefixWrites(k int) []*objState {
	m.visits++
	m.written = m.written[:0]
	for _, t := range m.win[:k] {
		for _, w := range t.fin {
			x := w.obj
			if x.visit != m.visits {
				x.visit = m.visits
				m.written = append(m.written, x)
			}
			x.last = t // the window is in arrival order: the latest wins
		}
	}
	return m.written
}

// collapseInPlace retires the k oldest window transactions, which
// collapseOK has cleared, without touching the rest of the graph.
//
// The three collapseOK conditions say that no WR, WW or RW edge leads
// from a survivor into the prefix (session order never does), so the
// prefix together with slot 0 is a source set of the graph: survivors
// reach exactly what they reached before, and clearing the prefix's
// rows and columns leaves their closure rows exact. What the prefix
// reached now hangs off the frontier, so slot 0 absorbs its closure
// rows; that may credit slot 0 with more than the frontier's own edges
// reach, but slot 0 has no in-edges and a node without in-edges is on
// no cycle of any composite fastCheck tests. Survivors that read a
// collapsed writer read, by condition 2, the value that becomes the
// frontier's: their WR edge moves to slot 0 and their anti-dependency
// on the next version stays where it is.
//
// After a witness adoption a chain need not be in arrival order and a
// survivor may precede a collapsed writer in it. The same edits then
// leave supersets in survivor rows (and re-derive the affected
// anti-dependencies), which can only fail the fast check early — the
// slow path decides, and its adoption rebuilds the state exactly.
func (m *Monitor) collapseInPlace(k int) {
	cut := m.cut(k)
	var reordered []*objState // chains where a survivor preceded a prefix writer
	written := m.prefixWrites(k)
	for _, t := range m.win[:k] {
		for _, w := range t.fin {
			x := w.obj
			pos := slices.Index(x.chain, t)
			if pos > 0 && x.chain[pos-1].ord >= cut {
				reordered = append(reordered, x)
			}
			x.chain = slices.Delete(x.chain, pos, pos+1)
			if x.byVal[w.val] == t {
				delete(x.byVal, w.val)
			}
		}
		for _, r := range t.reads {
			r.obj.cur = without(r.obj.cur, t)
			r.obj.readers = without(r.obj.readers, t)
		}
		if m.pc {
			m.so.Isolate(t.idx)
			m.wrAll.Isolate(t.idx)
		}
		m.rw.Isolate(t.idx)
		m.cl.Absorb(0, t.idx)
		m.free = append(m.free, t.idx)
	}
	m.advanceFrontier(k)
	if m.dupVals {
		// A collision may have left with the prefix, and a collapsed
		// first writer of a duplicated version hands it to the next.
		m.dupVals = false
		for _, x := range m.objects {
			clear(x.byVal)
			for _, w := range x.chain {
				m.indexValue(w, x, w.finalWrite(x))
			}
		}
	}
	for _, x := range reordered {
		clear(x.cur)
		x.cur = x.cur[:0]
	}
	// Only reads of an object the prefix wrote can have lost their
	// writer or their place in the chain. The collapsed records are on
	// the free list by now, but nothing takes one back before the next
	// commit, so their ord still tells them apart; the loop re-points
	// every survivor read of one.
	for _, x := range written {
		x.last = nil
		relink := slices.Contains(reordered, x)
		for _, t := range x.readers {
			r := t.readOf(x)
			if r.writer != nil && r.writer.ord < cut {
				// The collapsed writer left r.val in the frontier. The
				// read resolves as it would on arrival (and as a replay
				// of the window would resolve it): to an earlier live
				// writer of a duplicate of that version if there is
				// one, to the frontier otherwise.
				r.writer = nil
				wi := 0
				if w := x.byVal[r.val]; w != nil && w.ord < t.ord {
					r.writer, wi = w, w.idx
				}
				if m.pc {
					m.wrAll.Add(wi, t.idx)
				}
				m.cl.AddEdge(wi, t.idx)
			} else if !relink {
				continue
			}
			cur := without(x.cur, t)
			if m.linkSuccessor(t, x, r.writer) {
				cur = append(cur, t)
			}
			x.cur = cur
		}
	}
}

// without removes t from s in place, keeping the order.
func without(s []*winTx, t *winTx) []*winTx {
	if i := slices.Index(s, t); i >= 0 {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// advanceFrontier is the bookkeeping of a collapse outside the graph:
// the k oldest window transactions leave their final values in the
// frontier (the latest arrival wins), leave their sessions — a session
// whose last transaction collapsed is forgotten altogether unless it
// has an attempt open, the others keep their first-seen order — and
// leave the window for the free list.
func (m *Monitor) advanceFrontier(k int) {
	for _, t := range m.win[:k] {
		for _, w := range t.fin {
			w.obj.front, w.obj.hasFront = w.val, true
		}
		// The window is in arrival order, so t heads its session.
		s := t.sess
		n := copy(s.txs, s.txs[1:])
		s.txs[n] = nil
		if s.txs = s.txs[:n]; n > 0 {
			s.txs[0].prevSame = nil
		} else {
			j := slices.Index(m.sessions, s)
			m.sessions = slices.Delete(m.sessions, j, j+1)
			m.release(s)
		}
	}
	m.freeTx = append(m.freeTx, m.win[:k]...)
	n := copy(m.win, m.win[k:])
	clear(m.win[n:])
	m.win = m.win[:n]
}

// forgetVersions clears every object's versions and readers, and the
// pending reads, before the window is replayed or a witness adopted.
func (m *Monitor) forgetVersions() {
	for _, x := range m.objects {
		clear(x.byVal)
		x.chain, x.cur, x.readers = nil, nil, nil
	}
	m.pending = m.pending[:0]
	m.dupVals = false
}

// grow doubles the carrier when every slot is taken — a window that
// outgrew Config.Window+2 because a collapse was refused, or an
// unbounded one — and replays the window into it.
func (m *Monitor) grow() {
	m.nRebuilds++
	m.cRebuild.Inc()
	m.rebuild(m.cap * 2)
}

// rebuild resets the incremental graph state to the given carrier
// size, renumbers the window into slots 1, 2, … and replays every
// window transaction through applyTx. Pending reads re-accumulate
// naturally during the replay.
func (m *Monitor) rebuild(newCap int) {
	m.cap = newCap
	m.cl = relation.NewClosure(newCap)
	m.so = relation.New(newCap)
	m.wrAll = relation.New(newCap)
	m.rw = relation.New(newCap)
	m.scratch = depgraph.NewScratch(newCap)
	m.forgetVersions()
	for i, t := range m.win {
		t.idx = i + 1
	}
	m.free = m.free[:0]
	for slot := newCap - 1; slot > len(m.win); slot-- {
		m.free = append(m.free, slot)
	}
	for _, t := range m.win {
		m.applyTx(t)
	}
}

// Finish runs the authoritative end-of-stream certification and
// returns the summary. It is idempotent; subsequent Ingest calls are
// ignored. The error reports a budget-exhausted certification, whose
// verdict would otherwise be silently unreliable.
func (m *Monitor) Finish() (*Report, error) {
	if m.report != nil {
		return m.report, m.err
	}
	rep := &Report{
		Model:      m.model,
		Member:     true,
		Events:     m.nEvents,
		Commits:    m.nCommits,
		GCd:        m.nGCd,
		Pending:    len(m.pending),
		DupVals:    m.dupVals,
		Violations: m.violations,
	}
	if len(m.win) > 0 && m.err == nil {
		res := m.certifyWindow()
		if res != nil {
			rep.Member = res.Member
			if !res.Member {
				rep.Final = res.Explain
				if len(m.violations) == 0 {
					viol := m.violationFrom(0, "(end of stream)", res.Explain)
					m.violations = append(m.violations, viol)
					rep.Violations = m.violations
					m.cViol.Inc()
					if m.cfg.OnViolation != nil {
						m.cfg.OnViolation(viol)
					}
				}
			}
		} else {
			rep.Member = false
		}
	} else if len(m.win) > 0 {
		rep.Member = false
	}
	rep.Rechecks = m.nRechecks
	rep.Definitive = m.err == nil && (m.nGCd == 0 || rep.Member)
	m.report = rep
	return rep, m.err
}
