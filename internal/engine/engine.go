// Package engine implements in-process transactional storage engines
// for the three consistency models the paper analyses — two of them for
// serializability:
//
//   - SI: multi-version concurrency control with start-timestamp
//     snapshots and first-committer-wins write-conflict detection —
//     the idealised algorithm of §1 of the paper;
//   - SSI: that same commit path plus a run-time veto on Theorem 19's
//     signature of non-serializable SI executions (two adjacent
//     anti-dependencies between concurrent transactions), so its
//     histories are serializable;
//   - SER: strict two-phase locking over a single-version store
//     (serializable) — the independent oracle SSI is compared against;
//   - PSI: one replica per session with local snapshots, global
//     write-conflict detection and asynchronous causal propagation of
//     commit logs (parallel snapshot isolation [31]).
//
// Every engine records the operations of committed transactions,
// session by session, and produces a model.History that the certifier
// in internal/check can judge against the dependency-graph
// characterisations — closing the loop between the paper's operational
// and declarative views of the models.
package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"sian/internal/model"
	"sian/internal/obs"
	"sian/internal/obs/eventlog"
	"sian/internal/obs/txtrace"
	"sian/internal/storage"
)

// Kind selects the concurrency-control protocol of a DB.
type Kind int

// Engine kinds. SSI is serializable snapshot isolation (Cahill et
// al.): the SI protocol with run-time dangerous-structure detection,
// guaranteeing serializable histories.
const (
	KindInvalid Kind = iota
	SI
	SER
	PSI
	SSI
)

// String returns "SI", "SER", "PSI" or "SSI".
func (k Kind) String() string {
	switch k {
	case SI:
		return "SI"
	case SER:
		return "SER"
	case PSI:
		return "PSI"
	case SSI:
		return "SSI"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Sentinel errors.
var (
	// ErrConflict aborts a transaction that lost a write-conflict or
	// lock-conflict race; Transact retries such transactions
	// automatically (per §5 of the paper, aborted pieces are
	// resubmitted until they commit).
	ErrConflict = errors.New("engine: transaction aborted by conflict")
	// ErrUninitialized is returned when reading an object that has
	// never been written; call DB.Initialize first.
	ErrUninitialized = errors.New("engine: object not initialised")
	// ErrClosed is returned for operations on a closed DB.
	ErrClosed = errors.New("engine: database closed")
	// ErrTooManyRetries is returned by Transact when a transaction
	// keeps conflicting beyond the retry limit.
	ErrTooManyRetries = errors.New("engine: too many conflict retries")
)

// Config tunes a DB. The zero value is usable.
type Config struct {
	// Driver selects the storage driver backing the engine (SI and SSI
	// only; PSI manages one in-memory store per replica and SER keeps
	// no multi-version store at all). Nil selects a fresh in-memory
	// driver (storage.NewMem). Passing a storage/wal driver makes
	// commits durable: the commit window SI and SSI share appends one
	// CRC-framed record per transaction (full op list included) and
	// fsyncs it before the commit timestamp is published, and commit
	// events then carry the durable log sequence number. The DB owns
	// the driver: Close closes it.
	Driver storage.Driver
	// MaxRetries bounds Transact's automatic conflict retries;
	// defaults to 10000.
	MaxRetries int
	// ManualPropagation (PSI only) disables the background
	// propagators; commits then become visible at other replicas only
	// via DB.Propagate or DB.Flush. Used by tests and examples to
	// stage anomalies deterministically.
	ManualPropagation bool
	// Sites (PSI only) fixes the number of replicas; by default each
	// new session gets its own replica.
	Sites int
	// Metrics receives the engine's counters and histograms, labelled
	// engine="<kind>". When nil the DB uses a private registry,
	// reachable via DB.Metrics, so instrumentation is always on and
	// the hot path never branches on "is observability enabled?".
	Metrics *obs.Registry
	// Recorder, when non-nil, receives a structured event for every
	// transaction lifecycle point (begin, read, write, commit, abort,
	// conflict) across all sessions — the flight-recorder stream that
	// internal/monitor certifies online and eventlog.WriteChromeTrace
	// renders as a timeline. Recording is lock-light and never blocks
	// commits; nil keeps the hot path free of event appends.
	Recorder *eventlog.Recorder
	// TxTracer, when non-nil, assigns every transaction attempt a
	// trace ID and records per-stage commit-pipeline spans (begin
	// wait, reads, lock wait, validate, install, WAL append, fsync
	// wait, publish, ack) retained for GET /trace/{id} and the slow
	// log. Tracing is off by default and free when off: with a nil
	// tracer the commit path carries only nil-pointer checks, no
	// clock reads and no allocations.
	TxTracer *txtrace.Tracer
	// RetryBackoffBase and RetryBackoffMax shape the capped
	// exponential backoff (with jitter) Transact applies between
	// conflict retries, after a few initial pure yields. Zero values
	// default to 1µs base and 1ms cap; a negative RetryBackoffMax
	// disables sleeping entirely (every retry just yields, the seed
	// behaviour). Backoff de-synchronises retry storms: without it,
	// contending sessions re-collide in lockstep and the conflict
	// counters grow superlinearly with the session count.
	RetryBackoffBase time.Duration
	RetryBackoffMax  time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxRetries <= 0 {
		c.MaxRetries = 10000
	}
	if c.RetryBackoffBase <= 0 {
		c.RetryBackoffBase = time.Microsecond
	}
	if c.RetryBackoffMax == 0 {
		c.RetryBackoffMax = time.Millisecond
	}
	return c
}

// protocol is the engine-specific part of a DB.
type protocol interface {
	// begin starts a transaction for a session pinned to a site.
	begin(site int) (txProtocol, error)
	// ensureSite makes the site index valid (PSI allocates replicas
	// lazily; others ignore it).
	ensureSite(site int)
	// close releases protocol resources (stops goroutines).
	close() error
}

// txProtocol is a live transaction inside a protocol. Reads ignore the
// transaction's own writes — read-your-writes buffering is handled by
// Tx.
type txProtocol interface {
	read(x model.Obj) (model.Value, error)
	// commit atomically applies the buffered writes. It returns the
	// durable log sequence number when the storage driver persists the
	// commit (zero otherwise).
	commit(req commitReq) (lsn uint64, err error)
	abort()
}

// commitReq carries everything a protocol needs to commit: the
// coalesced write set (writes, with order listing the written objects
// deterministically), plus the full operation list and attribution
// that durable drivers persist with the commit record
// (storage.CommitRecord) so that log replay re-certifies the history.
type commitReq struct {
	writes  map[model.Obj]model.Value
	order   []model.Obj
	ops     []model.Op
	session string
	txid    string
	// trace is the attempt's stage-span trace; nil when tracing is
	// off. Protocols Mark pipeline stages on it as they pass them.
	trace *txtrace.Trace
}

// DB is a transactional database handle. Create with New, use Session
// to obtain per-client sessions, and Close when done.
type DB struct {
	kind Kind
	cfg  Config
	impl protocol

	mu       sync.Mutex
	closed   bool
	sessions []*Session
	sites    int

	reg *obs.Registry
	// Counter/histogram handles are resolved once at New; the hot path
	// is a single atomic op per event.
	mCommits   *obs.Counter
	mConflicts *obs.Counter
	mAborts    *obs.Counter
	mRetries   *obs.Counter
	gSessions  *obs.Gauge
	hCommitLat *obs.Histogram
	hSnapAge   *obs.Histogram
}

// Stats reports the database's cumulative counters. Conflicts counts
// only protocol-level losses (first-committer-wins write conflicts,
// lock conflicts, SSI dangerous structures); user-initiated rollbacks
// — a Transact callback returning a non-conflict error, or
// ManualTx.Abort — count as Aborts, so a workload's conflict rate is
// not inflated by explicit business-logic rollbacks. Retries counts
// the automatic re-runs Transact performed after conflicts.
type Stats struct {
	Commits   int64
	Conflicts int64
	Aborts    int64
	Retries   int64
}

// Stats returns a snapshot of the database's counters.
func (db *DB) Stats() Stats {
	return Stats{
		Commits:   db.mCommits.Value(),
		Conflicts: db.mConflicts.Value(),
		Aborts:    db.mAborts.Value(),
		Retries:   db.mRetries.Value(),
	}
}

// Metrics returns the registry holding the engine's metric series
// (Config.Metrics when one was supplied, a private registry
// otherwise): engine_{commits,conflicts,aborts,retries}_total
// counters, an engine_sessions gauge, and
// engine_{commit_latency,snapshot_age}_ns histograms, all labelled
// engine="<kind>".
func (db *DB) Metrics() *obs.Registry { return db.reg }

// New creates a database of the given kind.
func New(kind Kind, cfg Config) (*DB, error) {
	cfg = cfg.withDefaults()
	db := &DB{kind: kind, cfg: cfg}
	db.reg = cfg.Metrics
	if db.reg == nil {
		db.reg = obs.NewRegistry()
	}
	lbl := obs.L("engine", kind.String())
	db.mCommits = db.reg.Counter("engine_commits_total", lbl)
	db.mConflicts = db.reg.Counter("engine_conflicts_total", lbl)
	db.mAborts = db.reg.Counter("engine_aborts_total", lbl)
	db.mRetries = db.reg.Counter("engine_retries_total", lbl)
	db.gSessions = db.reg.Gauge("engine_sessions", lbl)
	db.hCommitLat = db.reg.Histogram("engine_commit_latency_ns", lbl)
	db.hSnapAge = db.reg.Histogram("engine_snapshot_age_ns", lbl)
	if cfg.Driver != nil && kind != SI && kind != SSI {
		return nil, fmt.Errorf("engine: Config.Driver is not supported for %v (SI and SSI only)", kind)
	}
	switch kind {
	case SI:
		db.impl = newSIProtocol(cfg)
	case SER:
		db.impl = newSERProtocol()
	case PSI:
		db.impl = newPSIProtocol(cfg)
	case SSI:
		p := newSIProtocol(cfg)
		p.ssi = newSSITracker()
		db.impl = p
	default:
		return nil, fmt.Errorf("engine: unknown kind %v", kind)
	}
	return db, nil
}

// Kind returns the engine's protocol kind.
func (db *DB) Kind() Kind { return db.kind }

// Initialize commits a single initialising transaction writing the
// given values, recorded in its own session named
// model.InitTransactionID. Call it once, before starting sessions.
func (db *DB) Initialize(vals map[model.Obj]model.Value) error {
	s := db.Session(model.InitTransactionID)
	err := s.Transact(func(tx *Tx) error {
		objs := make([]model.Obj, 0, len(vals))
		for x := range vals {
			objs = append(objs, x)
		}
		sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
		for _, x := range objs {
			if err := tx.Write(x, vals[x]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Make the initial values visible at every replica before the
	// workload starts (no-op for single-site engines).
	db.Flush()
	return nil
}

// Session opens a new client session. Sessions are safe to use from
// one goroutine each; distinct sessions may run concurrently.
func (db *DB) Session(id string) *Session {
	db.mu.Lock()
	defer db.mu.Unlock()
	site := db.sites
	if db.cfg.Sites > 0 {
		site = db.sites % db.cfg.Sites
	}
	db.sites++
	db.impl.ensureSite(site)
	s := &Session{db: db, id: id, site: site}
	db.sessions = append(db.sessions, s)
	db.gSessions.Add(1)
	return s
}

// History snapshots the committed transactions of every session, in
// session-creation order. Call it after the workload has quiesced; it
// is safe at any time but reflects only commits that completed before
// the call.
func (db *DB) History() *model.History {
	db.mu.Lock()
	sessions := make([]*Session, len(db.sessions))
	copy(sessions, db.sessions)
	db.mu.Unlock()
	specs := make([]model.Session, 0, len(sessions))
	for _, s := range sessions {
		txs := s.committed()
		if len(txs) == 0 {
			continue
		}
		specs = append(specs, model.Session{ID: s.id, Transactions: txs})
	}
	return model.NewHistory(specs...)
}

// Close shuts the database down, stopping any background propagation.
// Further transactions fail with ErrClosed.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	db.mu.Unlock()
	return db.impl.close()
}

func (db *DB) isClosed() bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.closed
}

// Compact garbage-collects storage versions that no live transaction
// can read — versions older than the oldest active snapshot (per
// replica, for PSI). It returns the number of versions discarded; the
// single-version SER engine has nothing to compact and returns 0.
// Safe to call concurrently with running transactions.
func (db *DB) Compact() int {
	switch p := db.impl.(type) {
	case *siProtocol:
		return p.gc()
	case *psiProtocol:
		return p.gc()
	default:
		return 0
	}
}

// Session is a client session: an ordered sequence of transactions
// (§2). Use Transact to run each transaction.
type Session struct {
	db   *DB
	id   string
	site int

	// rng drives retry-backoff jitter; created lazily on the first
	// backed-off retry and used only from the session's goroutine.
	rng *rand.Rand

	mu       sync.Mutex
	txs      []model.Transaction
	seq      int
	attempts int
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// Site returns the replica index the session is pinned to (meaningful
// for PSI).
func (s *Session) Site() int { return s.site }

// beginAttempt records a Begin event for a fresh transaction attempt
// and returns the attempt id ("<session>#<n>"; conflict retries get
// fresh attempts). Without a recorder it returns "" and stays off the
// session mutex.
func (s *Session) beginAttempt() string {
	rec := s.db.cfg.Recorder
	if rec == nil {
		return ""
	}
	s.mu.Lock()
	s.attempts++
	n := s.attempts
	s.mu.Unlock()
	txid := fmt.Sprintf("%s#%d", s.id, n)
	rec.Record(eventlog.Event{Kind: eventlog.Begin, Session: s.id, TxID: txid})
	return txid
}

// event records a lifecycle event for the attempt; a no-op without a
// recorder.
func (s *Session) event(kind eventlog.Kind, txid, name string) {
	if s.db.cfg.Recorder == nil {
		return
	}
	s.db.cfg.Recorder.Record(eventlog.Event{Kind: kind, Session: s.id, TxID: txid, Name: name})
}

// commitEvent records the Commit event, carrying the durable log
// sequence number when the storage driver persisted the commit so the
// flight-recorder timeline and /events frames can correlate publish
// order with log order. A no-op without a recorder.
func (s *Session) commitEvent(txid, name string, lsn uint64) {
	if s.db.cfg.Recorder == nil {
		return
	}
	s.db.cfg.Recorder.Record(eventlog.Event{Kind: eventlog.Commit, Session: s.id, TxID: txid, Name: name, LSN: lsn})
}

func (s *Session) committed() []model.Transaction {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]model.Transaction, len(s.txs))
	copy(out, s.txs)
	return out
}

// Transact runs fn inside a transaction. Conflicts abort and retry the
// whole transaction automatically (up to Config.MaxRetries); any other
// error from fn aborts without retry and is returned. On success the
// transaction's operations are recorded into the session's history.
func (s *Session) Transact(fn func(tx *Tx) error) error {
	return s.TransactNamed("", fn)
}

// TransactNamed is Transact with a diagnostic transaction label.
func (s *Session) TransactNamed(name string, fn func(tx *Tx) error) error {
	for attempt := 0; ; attempt++ {
		if s.db.isClosed() {
			return ErrClosed
		}
		if attempt > s.db.cfg.MaxRetries {
			return fmt.Errorf("%w (transaction %q, %d attempts)", ErrTooManyRetries, name, attempt)
		}
		if attempt > 0 {
			s.backoff(attempt)
		}
		tr := s.db.cfg.TxTracer.Begin(s.id)
		inner, err := s.db.impl.begin(s.site)
		if err != nil {
			return err
		}
		tr.Mark(txtrace.StageBeginWait)
		began := time.Now()
		txid := s.beginAttempt()
		tr.SetTxID(txid)
		tx := &Tx{inner: inner, writes: make(map[model.Obj]model.Value), rec: s.db.cfg.Recorder, session: s.id, txid: txid}
		err = fn(tx)
		if err != nil {
			inner.abort()
			if errors.Is(err, ErrConflict) {
				s.event(eventlog.Conflict, txid, "")
				s.db.mConflicts.Inc()
				s.db.mRetries.Inc()
				tr.Finish(txtrace.OutcomeConflict, 0)
				continue // fn surfaced a conflict from a read; retry
			}
			s.event(eventlog.Abort, txid, "")
			s.db.mAborts.Inc() // user-initiated rollback, not a conflict
			tr.Finish(txtrace.OutcomeAbort, 0)
			return err
		}
		tr.Mark(txtrace.StageReads)
		commitStart := time.Now()
		lsn, err := inner.commit(commitReq{writes: tx.writes, order: tx.writeOrder, ops: tx.ops, session: s.id, txid: txid, trace: tr})
		if err != nil {
			if errors.Is(err, ErrConflict) {
				s.event(eventlog.Conflict, txid, "")
				s.db.mConflicts.Inc()
				s.db.mRetries.Inc()
				tr.Finish(txtrace.OutcomeConflict, 0)
				continue
			}
			tr.Finish(txtrace.OutcomeError, 0)
			return err
		}
		s.db.mCommits.Inc()
		s.observeCommitLatency(time.Since(commitStart).Nanoseconds(), tr)
		s.db.hSnapAge.Observe(commitStart.Sub(began).Nanoseconds())
		id := s.record(name, tx.ops)
		if txid == "" {
			tr.SetTxID(id)
		}
		s.commitEvent(txid, id, lsn)
		if tr != nil {
			tr.Mark(txtrace.StageAck)
			tr.Finish(txtrace.OutcomeCommit, lsn)
		}
		return nil
	}
}

// observeCommitLatency records the commit latency; traced commits go
// through ObserveExemplar so the histogram bucket links back to the
// trace ID (resolvable via GET /trace/{id}).
func (s *Session) observeCommitLatency(ns int64, tr *txtrace.Trace) {
	if tr != nil {
		s.db.hCommitLat.ObserveExemplar(ns, tr.ID())
		return
	}
	s.db.hCommitLat.Observe(ns)
}

// yieldRetries is the number of initial conflict retries that only
// yield the processor: a couple of immediate re-runs resolve most
// transient races cheaper than any sleep would.
const yieldRetries = 3

// backoff delays the attempt-th conflict retry: pure yields first,
// then capped exponential backoff with jitter so contending sessions
// spread out instead of re-colliding in lockstep.
func (s *Session) backoff(attempt int) {
	cfg := s.db.cfg
	if attempt <= yieldRetries || cfg.RetryBackoffMax < 0 {
		// Yield so competing sessions and the PSI propagator make
		// progress instead of livelocking.
		runtime.Gosched()
		return
	}
	if s.rng == nil {
		// Sessions run on one goroutine each, so an unlocked
		// per-session source is safe; seeding from the global source
		// de-correlates sessions created in the same nanosecond.
		s.rng = rand.New(rand.NewSource(time.Now().UnixNano() ^ rand.Int63()))
	}
	time.Sleep(backoffDelay(attempt-yieldRetries, cfg.RetryBackoffBase, cfg.RetryBackoffMax, s.rng.Int63n))
}

// backoffDelay computes the n-th (1-based) backoff delay: base·2ⁿ⁻¹
// capped at max, with full jitter drawn from [d/2, d] so the expected
// delay keeps growing while synchronised storms decorrelate. randn
// samples uniformly from [0, k).
func backoffDelay(n int, base, max time.Duration, randn func(int64) int64) time.Duration {
	d := base
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if half := int64(d / 2); half > 0 {
		d = d/2 + time.Duration(randn(half+1))
	}
	return d
}

// record appends the committed transaction to the session's history
// and returns the canonical id it was recorded under.
func (s *Session) record(name string, ops []model.Op) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	var id string
	switch {
	case s.id == model.InitTransactionID && s.seq == 1 && name == "":
		// The canonical initialisation transaction keeps its bare name
		// so that certifiers and tools recognise it (PinInit).
		id = model.InitTransactionID
	case name != "":
		id = fmt.Sprintf("%s/%s", s.id, name)
	default:
		id = fmt.Sprintf("%s/%d", s.id, s.seq)
	}
	s.txs = append(s.txs, model.NewTransaction(id, ops...))
	return id
}

// Begin starts a manually controlled transaction on the session. Use
// it when a test or example must stage a specific interleaving (e.g.
// two overlapping snapshots for a write skew); prefer Transact for
// normal workloads, which also handles retry. The caller must finish
// the transaction with exactly one of Commit or Abort.
func (s *Session) Begin(name string) (*ManualTx, error) {
	return s.BeginTraced(name, 0)
}

// BeginTraced is Begin with a caller-provided trace ID: when the DB has
// a TxTracer, the transaction's trace is created under that ID instead
// of a fresh one, so a trace ID propagated over the wire joins the
// client's spans with the server's pipeline spans. A zero ID assigns a
// fresh one; without a TxTracer the ID is ignored.
func (s *Session) BeginTraced(name string, traceID uint64) (*ManualTx, error) {
	if s.db.isClosed() {
		return nil, ErrClosed
	}
	tr := s.db.cfg.TxTracer.BeginWithID(traceID, s.id)
	inner, err := s.db.impl.begin(s.site)
	if err != nil {
		return nil, err
	}
	tr.Mark(txtrace.StageBeginWait)
	txid := s.beginAttempt()
	tr.SetTxID(txid)
	return &ManualTx{
		s:     s,
		name:  name,
		began: time.Now(),
		trace: tr,
		tx:    &Tx{inner: inner, writes: make(map[model.Obj]model.Value), rec: s.db.cfg.Recorder, session: s.id, txid: txid},
	}, nil
}

// ManualTx is an explicitly controlled transaction created by
// Session.Begin.
type ManualTx struct {
	s     *Session
	name  string
	began time.Time
	tx    *Tx
	trace *txtrace.Trace
	done  bool
	lsn   uint64
}

// TraceID returns the transaction's trace ID (0 when tracing is off).
func (m *ManualTx) TraceID() uint64 { return m.trace.ID() }

// TraceData returns the finished trace after Commit or Abort, or nil
// when tracing is off or the transaction is still live. The networked
// server sends it back inside the commit response so the client can
// merge server pipeline spans into its own timeline.
func (m *ManualTx) TraceData() *txtrace.TraceData { return m.trace.Data() }

// LSN returns the write-ahead-log sequence number the transaction's
// commit record was fsynced at: non-zero only after a successful
// Commit of a writing transaction on a durable storage driver. The
// networked server reports it to clients as the commit's durability
// token.
func (m *ManualTx) LSN() uint64 { return m.lsn }

// Read reads x at the transaction's snapshot.
func (m *ManualTx) Read(x model.Obj) (model.Value, error) { return m.tx.Read(x) }

// Write buffers a write.
func (m *ManualTx) Write(x model.Obj, v model.Value) error { return m.tx.Write(x, v) }

// Promote promotes a read of x to a write (see Tx.Promote).
func (m *ManualTx) Promote(x model.Obj) error { return m.tx.Promote(x) }

// Commit attempts to commit. A commit that loses a conflict race
// returns ErrConflict (wrapped); unlike Transact, ManualTx does not
// retry. The transaction is finished either way.
func (m *ManualTx) Commit() error {
	if m.done {
		return fmt.Errorf("engine: transaction %q already finished", m.name)
	}
	m.done = true
	tr := m.trace
	tr.Mark(txtrace.StageReads)
	commitStart := time.Now()
	lsn, err := m.tx.inner.commit(commitReq{writes: m.tx.writes, order: m.tx.writeOrder, ops: m.tx.ops, session: m.s.id, txid: m.tx.txid, trace: tr})
	if err != nil {
		if errors.Is(err, ErrConflict) {
			m.s.event(eventlog.Conflict, m.tx.txid, "")
			m.s.db.mConflicts.Inc()
			tr.Finish(txtrace.OutcomeConflict, 0)
		} else {
			tr.Finish(txtrace.OutcomeError, 0)
		}
		return err
	}
	m.lsn = lsn
	m.s.db.mCommits.Inc()
	m.s.observeCommitLatency(time.Since(commitStart).Nanoseconds(), tr)
	m.s.db.hSnapAge.Observe(commitStart.Sub(m.began).Nanoseconds())
	id := m.s.record(m.name, m.tx.ops)
	if m.tx.txid == "" {
		tr.SetTxID(id)
	}
	m.s.commitEvent(m.tx.txid, id, lsn)
	if tr != nil {
		tr.Mark(txtrace.StageAck)
		tr.Finish(txtrace.OutcomeCommit, lsn)
	}
	return nil
}

// Abort abandons the transaction. Safe to call at most once, and only
// if Commit was not called.
func (m *ManualTx) Abort() {
	if m.done {
		return
	}
	m.done = true
	m.tx.inner.abort()
	m.s.event(eventlog.Abort, m.tx.txid, "")
	m.s.db.mAborts.Inc()
	m.trace.Finish(txtrace.OutcomeAbort, 0)
}

// Tx is a live transaction handle passed to Transact callbacks. It
// buffers writes (read-your-writes) and records the operation log that
// becomes the transaction's history entry.
type Tx struct {
	inner      txProtocol
	ops        []model.Op
	writes     map[model.Obj]model.Value
	writeOrder []model.Obj

	// Flight-recorder plumbing; rec is nil when no recorder is
	// attached, keeping the operation hot path event-free.
	rec     *eventlog.Recorder
	session string
	txid    string
}

// Read returns the value of x as of the transaction's snapshot (or its
// own buffered write).
func (t *Tx) Read(x model.Obj) (model.Value, error) {
	v, ok := t.writes[x]
	if !ok {
		var err error
		v, err = t.inner.read(x)
		if err != nil {
			return 0, err
		}
	}
	t.ops = append(t.ops, model.Read(x, v))
	if t.rec != nil {
		t.rec.Record(eventlog.Event{Kind: eventlog.Read, Session: t.session, TxID: t.txid, Obj: x, Val: v})
	}
	return v, nil
}

// Promote promotes a read of x to a write: it reads x and writes the
// observed value back unchanged. The write materialises a write-write
// conflict with any concurrent writer of x, so first-committer-wins
// orders the two transactions — the §6 remedy that restores robustness
// against SI for write-skew shapes (see DESIGN.md §14). silint's
// repair advisor suggests inserting exactly this call.
func (t *Tx) Promote(x model.Obj) error {
	v, err := t.Read(x)
	if err != nil {
		return err
	}
	return t.Write(x, v)
}

// Write buffers a write of v to x.
func (t *Tx) Write(x model.Obj, v model.Value) error {
	if _, seen := t.writes[x]; !seen {
		t.writeOrder = append(t.writeOrder, x)
	}
	t.writes[x] = v
	t.ops = append(t.ops, model.Write(x, v))
	if t.rec != nil {
		t.rec.Record(eventlog.Event{Kind: eventlog.Write, Session: t.session, TxID: t.txid, Obj: x, Val: v})
	}
	return nil
}
