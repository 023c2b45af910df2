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
// re-pointed at the frontier, and the slot goes back on a free list. A
// commit therefore costs the operations of the transaction it adds and
// of the one it retires, not a replay of the window.
package monitor

import (
	"fmt"
	"slices"
	"sort"
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
	// Parallelism is passed to slow-path certifications. Non-positive
	// means 1: the monitor runs on the ingest goroutine and the
	// search stays sequential unless the caller asks otherwise.
	Parallelism int
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

// winTx is one committed transaction in the live window.
type winTx struct {
	id      string
	session string
	tx      model.Transaction
	seq     int64
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

// version is a value an object held.
type version struct {
	obj model.Obj
	val model.Value
}

// summarize extracts a transaction's external reads (the first access
// to the object is a read) and final writes, each sorted by object.
func summarize(ops []model.Op) (ext, fin []version) {
	// Group the operations by object, keeping program order within one.
	order := make([]int, len(ops))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if oa, ob := ops[order[a]].Obj, ops[order[b]].Obj; oa != ob {
			return oa < ob
		}
		return order[a] < order[b]
	})
	for i := 0; i < len(order); {
		first := ops[order[i]]
		if first.Kind == model.OpRead {
			ext = append(ext, version{first.Obj, first.Val})
		}
		var last *model.Op
		for ; i < len(order) && ops[order[i]].Obj == first.Obj; i++ {
			if op := &ops[order[i]]; op.Kind == model.OpWrite {
				last = op
			}
		}
		if last != nil {
			fin = append(fin, version{last.Obj, last.Val})
		}
	}
	return ext, fin
}

// finalWrite returns the value t finally writes to x; t must write x.
func (t *winTx) finalWrite(x model.Obj) model.Value {
	for _, w := range t.fin {
		if w.obj == x {
			return w.val
		}
	}
	panic(fmt.Sprintf("monitor: %s is in the version chain of %s without writing it", t.id, x))
}

type resolvedRead struct {
	obj    model.Obj
	val    model.Value
	writer *winTx
}

// txKey identifies an in-flight transaction.
type txKey struct{ session, txid string }

type pendingRead struct {
	reader *winTx
	obj    model.Obj
	val    model.Value
}

// Monitor is an online certifier. It is not safe for concurrent use;
// feed it from one goroutine (an eventlog merge or NDJSON tail is
// already a serial stream).
type Monitor struct {
	cfg   Config
	model depgraph.Model

	open map[txKey][]model.Op // in-flight transactions

	win      []*winTx // live transactions in arrival order
	nextOrd  int64
	sessions []string // live sessions in first-seen order, for deterministic window histories
	sessTxs  map[string][]*winTx
	sessLast map[string]*winTx
	frontier map[model.Obj]model.Value
	objs     map[model.Obj]bool
	// strictInit is set when the stream's first commit is the
	// history's own init transaction: it is absorbed into the
	// frontier, and implicit reads of InitValue on objects it did
	// not write no longer resolve.
	strictInit bool
	sawCommit  bool

	// Incremental graph state over carrier slots [0, cap). free is the
	// stack of unoccupied slots.
	cap        int
	free       []int
	cl         *relation.Closure
	so         *relation.Rel
	wrAll      *relation.Rel
	rw         *relation.Rel
	s1, s2, s3 *relation.Rel
	valueIdx   map[model.Obj]map[model.Value]*winTx
	chain      map[model.Obj][]*winTx
	curReaders map[model.Obj][]*winTx
	pending    []pendingRead

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
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 1
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	m := &Monitor{
		cfg:      cfg,
		model:    cfg.Model,
		open:     make(map[txKey][]model.Op),
		sessTxs:  make(map[string][]*winTx),
		sessLast: make(map[string]*winTx),
		frontier: make(map[model.Obj]model.Value),
		objs:     make(map[model.Obj]bool),
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
	if ev.TS > 0 {
		if lag := m.cfg.now().UnixNano() - ev.TS; lag > 0 {
			m.hLag.Observe(lag)
		} else {
			m.hLag.Observe(0)
		}
	}
	key := txKey{ev.Session, ev.TxID}
	switch ev.Kind {
	case eventlog.Begin:
		if _, ok := m.open[key]; !ok {
			m.open[key] = nil
		}
	case eventlog.Read:
		m.open[key] = append(m.open[key], model.Read(ev.Obj, ev.Val))
	case eventlog.Write:
		m.open[key] = append(m.open[key], model.Write(ev.Obj, ev.Val))
	case eventlog.Abort, eventlog.Conflict:
		delete(m.open, key)
	case eventlog.Commit:
		ops := m.open[key]
		delete(m.open, key)
		return m.processCommit(ev, ops)
	}
	return nil
}

// Violations returns the anomalies reported so far.
func (m *Monitor) Violations() []Violation { return m.violations }

// Window returns the number of committed transactions currently live.
func (m *Monitor) Window() int { return len(m.win) }

// processCommit folds one committed transaction into the live graph
// and re-certifies.
func (m *Monitor) processCommit(ev eventlog.Event, ops []model.Op) *Verdict {
	m.nCommits++
	m.cCommits.Inc()
	name := ev.Name
	if name == "" {
		name = ev.TxID
	}
	first := !m.sawCommit
	m.sawCommit = true
	if len(ops) == 0 {
		return &Verdict{Seq: ev.Seq, Txn: name, Member: m.memberNow(), Pending: len(m.pending), Window: len(m.win)}
	}
	if first && name == model.InitTransactionID {
		// The stream carries the history's own init transaction:
		// absorb its writes as the frontier instead of occupying a
		// window slot, mirroring how check pins transaction 0.
		for _, op := range ops {
			if op.Kind == model.OpWrite {
				m.frontier[op.Obj] = op.Val // the last write wins
				m.objs[op.Obj] = true
			}
		}
		m.strictInit = true
		return &Verdict{Seq: ev.Seq, Txn: name, Member: true, Window: len(m.win)}
	}

	if len(m.free) == 0 {
		m.grow()
	}
	// ops left the open map with this commit and is not shared: the
	// transaction can own it.
	t := &winTx{id: name, session: ev.Session, tx: model.Transaction{ID: name, Ops: ops}, seq: ev.Seq, ord: m.nextOrd}
	m.nextOrd++
	t.ext, t.fin = summarize(ops)
	t.idx = m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	t.prevSame = m.sessLast[ev.Session]
	m.sessLast[ev.Session] = t
	if _, ok := m.sessTxs[ev.Session]; !ok {
		m.sessions = append(m.sessions, ev.Session)
	}
	m.sessTxs[ev.Session] = append(m.sessTxs[ev.Session], t)
	m.win = append(m.win, t)
	m.applyTx(t)

	v := &Verdict{Seq: ev.Seq, Txn: name}
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
			viol := m.violationFrom(ev.Seq, name, res.Explain)
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
	return v
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
	for p := t.prevSame; p != nil; p = p.prevSame {
		m.so.Add(p.idx, t.idx)
	}
	if t.prevSame != nil && m.model != depgraph.GSI {
		m.cl.AddEdge(t.prevSame.idx, t.idx)
	}
	for _, r := range t.ext {
		m.objs[r.obj] = true
		m.resolveRead(t, r.obj, r.val)
	}
	for _, w := range t.fin {
		m.objs[w.obj] = true
		m.applyWrite(t, w.obj, w.val)
	}
}

// resolveRead attributes an external read (x, v) to its writer, or
// parks it pending until a matching writer commits.
func (m *Monitor) resolveRead(t *winTx, x model.Obj, v model.Value) {
	if w, ok := m.valueIdx[x][v]; ok {
		m.linkRead(t, x, v, w)
		return
	}
	if fv, ok := m.frontier[x]; ok {
		if fv == v {
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
func (m *Monitor) linkRead(t *winTx, x model.Obj, v model.Value, w *winTx) {
	wi := 0
	if w != nil {
		wi = w.idx
	}
	t.reads = append(t.reads, resolvedRead{obj: x, val: v, writer: w})
	m.wrAll.Add(wi, t.idx)
	m.cl.AddEdge(wi, t.idx)
	if m.linkSuccessor(t, x, w) {
		m.curReaders[x] = append(m.curReaders[x], t)
	}
}

// linkSuccessor places reader t of w's version of x (nil: the
// frontier's) against the version chain. If a later version exists, t
// anti-depends on the writer of the next one and the result is false;
// otherwise t reads the current version — the caller keeps it in
// curReaders[x] for the next writer — and the result is true.
func (m *Monitor) linkSuccessor(t *winTx, x model.Obj, w *winTx) bool {
	ch := m.chain[x]
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
func (m *Monitor) applyWrite(t *winTx, x model.Obj, v model.Value) {
	m.indexValue(t, x, v)
	ch := m.chain[x]
	prev := 0
	if len(ch) > 0 {
		prev = ch[len(ch)-1].idx
	}
	m.cl.AddEdge(prev, t.idx)
	for _, r := range m.curReaders[x] {
		if r != t {
			m.rw.Add(r.idx, t.idx)
		}
	}
	m.curReaders[x] = nil
	m.chain[x] = append(ch, t)
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
func (m *Monitor) indexValue(t *winTx, x model.Obj, v model.Value) {
	byVal, ok := m.valueIdx[x]
	if !ok {
		byVal = make(map[model.Value]*winTx)
		m.valueIdx[x] = byVal
	}
	if _, dup := byVal[v]; dup {
		m.dupVals = true
	} else {
		byVal[v] = t
	}
	if fv, ok := m.frontier[x]; ok {
		if fv == v {
			m.dupVals = true
		}
	} else if !m.strictInit && v == m.cfg.InitValue {
		m.dupVals = true
	}
}

// fastCheck tests the arrival-order candidate graph against the
// model, mirroring depgraph.Builder.InModel over the incremental
// closure.
func (m *Monitor) fastCheck() bool {
	if m.cl.HasCycle() {
		return false
	}
	switch m.model {
	case depgraph.SER:
		m.cl.ComposeMaybeInto(m.s1, m.rw)
		return m.s1.IsAcyclic()
	case depgraph.SI, depgraph.GSI:
		m.cl.ComposeInto(m.s1, m.rw)
		return m.s1.IsAcyclic()
	case depgraph.PSI:
		ok := true
		for a := 0; a < m.cap; a++ {
			m.rw.EachSuccessor(a, func(c int) {
				if ok && m.cl.Reaches(c, a) {
					ok = false
				}
			})
			if !ok {
				return false
			}
		}
		return true
	case depgraph.PC:
		m.cl.ComposeMaybeInto(m.s1, m.rw)
		m.s2.CopyFrom(m.so).UnionInPlace(m.wrAll)
		return m.s3.ComposeOf(m.s1, m.s2).IsAcyclic()
	}
	return false
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
	opts := check.Options{
		InitValue:   m.cfg.InitValue,
		Budget:      m.cfg.Budget,
		Parallelism: m.cfg.Parallelism,
	}
	var objs []model.Obj
	if m.strictInit {
		for x := range m.frontier {
			objs = append(objs, x)
		}
	} else {
		for x := range m.objs {
			objs = append(objs, x)
		}
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	initOps := make([]model.Op, 0, len(objs))
	for _, x := range objs {
		v, ok := m.frontier[x]
		if !ok {
			v = m.cfg.InitValue
		}
		initOps = append(initOps, model.Write(x, v))
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
	for _, sid := range m.sessions {
		txs := m.sessTxs[sid]
		if len(txs) == 0 {
			continue
		}
		sess := model.Session{ID: sid, Transactions: make([]model.Transaction, 0, len(txs))}
		for _, t := range txs {
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
	for _, sid := range m.sessions {
		histTx = append(histTx, m.sessTxs[sid]...)
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
	m.valueIdx = make(map[model.Obj]map[model.Value]*winTx)
	m.chain = make(map[model.Obj][]*winTx)
	m.curReaders = make(map[model.Obj][]*winTx)
	m.pending = m.pending[:0]
	m.dupVals = false
	for _, t := range m.win {
		t.reads = t.reads[:0]
		if t.prevSame != nil && m.model != depgraph.GSI {
			m.cl.AddEdge(t.prevSame.idx, t.idx)
		}
	}
	for _, x := range g.Objects() {
		// Version chain: the window's writers of x in the witness's
		// per-object total write order (indegree within a total order
		// ranks its elements; a single writer needs no pairs).
		indeg := make(map[int]int)
		for _, p := range g.WWObj(x).Pairs() {
			indeg[p[1]]++
		}
		var chain []*winTx
		for _, t := range m.win {
			if _, ok := t.tx.FinalWrite(x); ok {
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
		m.chain[x] = chain
		for _, p := range g.WRObj(x).Pairs() {
			w, r := histTx[p[0]], histTx[p[1]]
			v, ok := r.tx.ReadsBeforeWrites(x)
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

// lastPrefixWriter returns the latest-arrived writer of x below the
// cut, or nil if no transaction below it writes x.
func (m *Monitor) lastPrefixWriter(x model.Obj, cut int64) *winTx {
	var last *winTx
	for _, w := range m.chain[x] {
		if w.ord < cut && (last == nil || w.ord > last.ord) {
			last = w
		}
	}
	return last
}

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
func (m *Monitor) collapseOK(k int) bool {
	cut := m.cut(k)
	for _, t := range m.win[:k] {
		for _, r := range t.reads {
			if r.writer != nil && r.writer.ord >= cut {
				return false
			}
		}
	}
	for _, t := range m.win[k:] {
		for _, r := range t.reads {
			// Conditions 2 and 3 in one: a read of a prefix writer or of
			// the frontier must be of the version the prefix ends on.
			if (r.writer == nil || r.writer.ord < cut) && m.lastPrefixWriter(r.obj, cut) != r.writer {
				return false
			}
		}
	}
	return true
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
	var reordered []model.Obj // chains where a survivor preceded a prefix writer
	for _, t := range m.win[:k] {
		for _, w := range t.fin {
			ch := m.chain[w.obj]
			pos := slices.Index(ch, t)
			if pos > 0 && ch[pos-1].ord >= cut {
				reordered = append(reordered, w.obj)
			}
			m.chain[w.obj] = slices.Delete(ch, pos, pos+1)
			if byVal := m.valueIdx[w.obj]; byVal[w.val] == t {
				delete(byVal, w.val)
			}
		}
		for _, r := range t.reads {
			if cur := m.curReaders[r.obj]; len(cur) > 0 {
				m.curReaders[r.obj] = without(cur, t)
			}
		}
		m.so.Isolate(t.idx)
		m.wrAll.Isolate(t.idx)
		m.rw.Isolate(t.idx)
		m.cl.Absorb(0, t.idx)
		m.free = append(m.free, t.idx)
	}
	m.advanceFrontier(k)
	if m.dupVals {
		// A collision may have left with the prefix, and a collapsed
		// first writer of a duplicated version hands it to the next.
		m.dupVals = false
		for x, ch := range m.chain {
			clear(m.valueIdx[x])
			for _, w := range ch {
				m.indexValue(w, x, w.finalWrite(x))
			}
		}
	}
	for _, x := range reordered {
		m.curReaders[x] = nil
	}
	for _, t := range m.win {
		for i := range t.reads {
			r := &t.reads[i]
			if r.writer != nil && r.writer.ord < cut {
				// The collapsed writer left r.val in the frontier. The
				// read resolves as it would on arrival (and as a replay
				// of the window would resolve it): to an earlier live
				// writer of a duplicate of that version if there is
				// one, to the frontier otherwise.
				r.writer = nil
				wi := 0
				if w := m.valueIdx[r.obj][r.val]; w != nil && w.ord < t.ord {
					r.writer, wi = w, w.idx
				}
				m.wrAll.Add(wi, t.idx)
				m.cl.AddEdge(wi, t.idx)
			} else if !slices.Contains(reordered, r.obj) {
				continue
			}
			cur := without(m.curReaders[r.obj], t)
			if m.linkSuccessor(t, r.obj, r.writer) {
				cur = append(cur, t)
			}
			m.curReaders[r.obj] = cur
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
// whose last transaction collapsed is forgotten altogether, the others
// keep their first-seen order — and leave the window.
func (m *Monitor) advanceFrontier(k int) {
	for i, t := range m.win[:k] {
		for _, w := range t.fin {
			m.frontier[w.obj] = w.val
		}
		// The window is in arrival order, so t heads its session.
		txs := m.sessTxs[t.session]
		txs[0] = nil
		if txs = txs[1:]; len(txs) > 0 {
			m.sessTxs[t.session] = txs
			txs[0].prevSame = nil
		} else {
			delete(m.sessTxs, t.session)
			delete(m.sessLast, t.session)
			j := slices.Index(m.sessions, t.session)
			m.sessions = slices.Delete(m.sessions, j, j+1)
		}
		m.win[i] = nil
	}
	m.win = m.win[k:]
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
	m.s1 = relation.New(newCap)
	m.s2 = relation.New(newCap)
	m.s3 = relation.New(newCap)
	m.valueIdx = make(map[model.Obj]map[model.Value]*winTx)
	m.chain = make(map[model.Obj][]*winTx)
	m.curReaders = make(map[model.Obj][]*winTx)
	m.pending = m.pending[:0]
	m.dupVals = false
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
