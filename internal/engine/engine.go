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
	"sync/atomic"
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
	// conflict) across all sessions — the history's event stream that
	// internal/monitor certifies online (timelines are TxTracer's).
	// Recording is lock-light and never blocks commits; nil keeps the
	// hot path free of event appends.
	Recorder *eventlog.Recorder
	// TxTracer, when non-nil, assigns every transaction attempt a
	// trace ID and records per-stage commit-pipeline spans (begin
	// wait, reads, lock wait, validate, install, WAL append, fsync
	// wait, publish, ack) retained for GET /trace/{id} and the slow
	// log. Tracing is off by default and free when off: with a nil
	// tracer the commit path carries only nil-pointer checks, no
	// clock reads and no allocations.
	TxTracer *txtrace.Tracer
}

func (c Config) withDefaults() Config {
	if c.MaxRetries <= 0 {
		c.MaxRetries = 10000
	}
	return c
}

// protocol is the engine-specific part of a DB.
type protocol interface {
	// begin starts a transaction for a session pinned to a site. prev,
	// when non-nil, is the session's previous attempt, finished, which
	// the protocol may re-initialise and return instead of allocating.
	begin(site int, prev txProtocol) (txProtocol, error)
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
// coalesced write set (order lists the written objects in first-write
// order, vals[i] the last value written to order[i]), plus the full
// operation list and attribution that durable drivers persist with the
// commit record (storage.CommitRecord) so that log replay re-certifies
// the history. Its slices belong to the session's reused attempt and
// are valid only during commit: a protocol copies what it keeps.
type commitReq struct {
	order   []model.Obj
	vals    []model.Value
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

	closed atomic.Bool

	mu       sync.Mutex
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
// counters (plus engine_publish_parks_total on the kinds with an
// ordered-publish gate: SI, SSI, PSI), an engine_sessions gauge, and
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
	var parks *obs.Counter // the ordered-publish gate's; SER has none
	if kind != SER {
		parks = db.reg.Counter("engine_publish_parks_total", lbl)
	}
	switch kind {
	case SI:
		db.impl = newSIProtocol(cfg, parks)
	case SER:
		db.impl = newSERProtocol()
	case PSI:
		db.impl = newPSIProtocol(cfg, parks)
	case SSI:
		p := newSIProtocol(cfg, parks)
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
// the call. Sessions keep their history as encoded byte logs, so each
// call decodes it afresh: O(ops) time and allocation per call.
func (db *DB) History() *model.History {
	db.mu.Lock()
	sessions := make([]*Session, len(db.sessions))
	copy(sessions, db.sessions)
	db.mu.Unlock()
	specs := make([]model.Session, 0, len(sessions))
	intern := make(map[string]model.Obj)
	for _, s := range sessions {
		txs := s.committed(intern)
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
	if !db.closed.CompareAndSwap(false, true) {
		return nil
	}
	return db.impl.close()
}

// Compact garbage-collects storage versions that no live transaction
// can read — versions older than the oldest active snapshot (per
// replica, for PSI). It returns the number of versions discarded; the
// single-version SER engine has nothing to compact and returns 0.
// Safe to call concurrently with running transactions.
//
// SI and SSI also compact on their own: a commit that brings the
// versions superseded since the last pass to a threshold runs the same
// pass inline (see siProtocol.compactIfDue), so their chains stay short
// without any caller. For them Compact forces a pass now.
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

	// attempt is the ManualTx every Transact attempt re-initialises;
	// inTransact marks it in use, so a Transact nested in a callback on
	// the same session runs on a fresh one instead. Both are used only
	// from the session's goroutine.
	attempt    ManualTx
	inTransact bool

	mu       sync.Mutex
	log      histLog
	attempts int
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// Site returns the replica index the session is pinned to (meaningful
// for PSI).
func (s *Session) Site() int { return s.site }

// emit records a lifecycle event of the session; a no-op without a
// recorder, which keeps the operation hot path event-free.
func (s *Session) emit(e eventlog.Event) {
	if rec := s.db.cfg.Recorder; rec != nil {
		e.Session = s.id
		rec.Record(e)
	}
}

// committed decodes the session's history. Only the copy of the log's
// chunk headers is taken under the session lock; intern deduplicates
// object names across the sessions of one DB.History call.
func (s *Session) committed(intern map[string]model.Obj) []model.Transaction {
	s.mu.Lock()
	l := s.log.snapshot()
	s.mu.Unlock()
	return l.decode(s.id, intern)
}

// Transact runs fn inside a transaction. Conflicts abort and retry the
// whole transaction automatically (up to Config.MaxRetries); any other
// error from fn aborts without retry and is returned. On success the
// transaction's operations are recorded into the session's history.
func (s *Session) Transact(fn func(tx *Tx) error) error {
	return s.TransactNamed("", fn)
}

// TransactNamed is Transact with a diagnostic transaction label. It is
// only the retry loop: every attempt is begun, committed or abandoned
// by the same functions as a ManualTx, which do all of the attempt's
// bookkeeping. The attempts run on the session's one reused ManualTx,
// so a transaction allocates nothing of its own.
func (s *Session) TransactNamed(name string, fn func(tx *Tx) error) error {
	if s.inTransact {
		return s.transact(new(ManualTx), name, fn)
	}
	s.inTransact = true
	err := s.transact(&s.attempt, name, fn)
	s.inTransact = false
	s.attempt.recycle()
	return err
}

// transact runs TransactNamed's retry loop with every attempt begun on m.
func (s *Session) transact(m *ManualTx, name string, fn func(tx *Tx) error) error {
	for attempt := 0; ; attempt++ {
		if s.db.closed.Load() {
			return ErrClosed
		}
		if attempt > s.db.cfg.MaxRetries {
			return fmt.Errorf("%w (transaction %q, %d attempts)", ErrTooManyRetries, name, attempt)
		}
		if attempt > 0 {
			s.backoff(attempt)
		}
		err := s.begin(m, name, 0)
		if err != nil {
			return err
		}
		if err = fn(&m.tx); err != nil {
			// A conflict fn surfaced from a read is retried like one
			// lost at commit; any other error is a rollback.
			m.tx.inner.abort()
			m.end(errors.Is(err, ErrConflict))
		} else {
			err = m.Commit()
		}
		if !errors.Is(err, ErrConflict) {
			return err
		}
		s.db.mRetries.Inc()
	}
}

// Retry backoff: the first yieldRetries conflict retries only yield
// the processor — a couple of immediate re-runs resolve most transient
// races cheaper than any sleep would — and later ones sleep a capped
// exponential delay with jitter, from backoffBase up to backoffMax.
// Backoff de-synchronises retry storms: without it, contending
// sessions re-collide in lockstep and the conflict counters grow
// superlinearly with the session count.
const (
	yieldRetries = 3
	backoffBase  = time.Microsecond
	backoffMax   = time.Millisecond
)

// backoff delays the attempt-th conflict retry.
func (s *Session) backoff(attempt int) {
	if attempt <= yieldRetries {
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
	time.Sleep(backoffDelay(attempt-yieldRetries, backoffBase, backoffMax, s.rng.Int63n))
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
// and returns its sequence number in the session (see txID).
func (s *Session) record(name string, ops []model.Op) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.append(name, ops)
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
	if s.db.closed.Load() {
		return nil, ErrClosed
	}
	m := new(ManualTx)
	if err := s.begin(m, name, traceID); err != nil {
		return nil, err
	}
	return m, nil
}

// begin starts one transaction attempt on m, a fresh ManualTx or a
// finished one to re-initialise: its trace, its protocol snapshot and,
// with a recorder, its attempt id ("<session>#<n>"; conflict retries
// get fresh attempts) and Begin event. A re-initialised m hands its
// finished protocol transaction to the protocol for reuse.
func (s *Session) begin(m *ManualTx, name string, traceID uint64) error {
	tr := s.db.cfg.TxTracer.BeginWithID(traceID, s.id)
	inner, err := s.db.impl.begin(s.site, m.tx.inner)
	if err != nil {
		return err
	}
	tr.Mark(txtrace.StageBeginWait)
	m.name, m.began, m.trace, m.done, m.lsn = name, monoNow(), tr, false, 0
	m.recycle()
	m.tx = Tx{s: s, inner: inner, ops: m.tx.ops, writeOrder: m.tx.writeOrder, vals: m.tx.vals}
	if s.db.cfg.Recorder != nil {
		s.mu.Lock()
		s.attempts++
		n := s.attempts
		s.mu.Unlock()
		m.tx.txid = fmt.Sprintf("%s#%d", s.id, n)
		s.emit(eventlog.Event{Kind: eventlog.Begin, TxID: m.tx.txid})
		tr.SetTxID(m.tx.txid)
	}
	return nil
}

// keepCap bounds the capacity of the buffers a reused attempt keeps: a
// session's one large transaction (Initialize's, say) does not pin its
// buffers for the session's lifetime.
const keepCap = 64

// recycle empties m's buffers for its next attempt. A buffer that is
// unset (a fresh m) or has outgrown keepCap goes back to its in-line
// array, and so does the write-set index.
func (m *ManualTx) recycle() {
	m.tx.ops = recycled(m.tx.ops, m.opBuf[:0])
	m.tx.writeOrder = recycled(m.tx.writeOrder, m.orderBuf[:0])
	m.tx.vals = recycled(m.tx.vals, m.valBuf[:0])
	m.tx.index = nil
}

func recycled[T any](buf, seed []T) []T {
	if cap(buf) < cap(seed) || cap(buf) > keepCap {
		return seed
	}
	return buf[:0]
}

// epoch anchors monoNow.
var epoch = time.Now()

// monoNow reads the monotonic clock, in nanoseconds since epoch. The
// commit path measures only durations, and time.Since on a time with a
// monotonic reading skips the wall clock read time.Now pays for.
func monoNow() int64 { return int64(time.Since(epoch)) }

// ManualTx is an explicitly controlled transaction created by
// Session.Begin.
type ManualTx struct {
	tx    Tx
	name  string
	began int64 // monoNow at begin
	trace *txtrace.Trace
	done  bool
	lsn   uint64
	// opBuf, orderBuf and valBuf seed tx.ops, tx.writeOrder and tx.vals,
	// so small transactions append without growing them. Transact
	// re-initialises one ManualTx per session for every attempt, so
	// these buffers are reused: commitReq's slices are valid only during
	// commit, and a protocol copies what it keeps.
	opBuf    [8]model.Op
	orderBuf [4]model.Obj
	valBuf   [4]model.Value
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
	s, tr := m.tx.s, m.trace
	tr.Mark(txtrace.StageReads)
	commitStart := monoNow()
	lsn, err := m.tx.inner.commit(commitReq{order: m.tx.writeOrder, vals: m.tx.vals, ops: m.tx.ops, session: s.id, txid: m.tx.txid, trace: tr})
	if err != nil {
		if errors.Is(err, ErrConflict) {
			m.end(true)
		} else {
			tr.Finish(txtrace.OutcomeError, 0)
		}
		return err
	}
	m.lsn = lsn
	s.db.mCommits.Inc()
	// A traced commit links its latency bucket to the trace ID
	// (resolvable via GET /trace/{id}).
	if lat := monoNow() - commitStart; tr != nil {
		s.db.hCommitLat.ObserveExemplar(lat, tr.ID())
	} else {
		s.db.hCommitLat.Observe(lat)
	}
	s.db.hSnapAge.Observe(commitStart - m.began)
	seq := s.record(m.name, m.tx.ops)
	if tr != nil || s.db.cfg.Recorder != nil {
		id := txID(s.id, seq, m.name)
		if m.tx.txid == "" {
			tr.SetTxID(id)
		}
		// The durable log sequence number lets the timeline and /events
		// frames correlate publish order with log order.
		s.emit(eventlog.Event{Kind: eventlog.Commit, TxID: m.tx.txid, Name: id, LSN: lsn})
	}
	tr.Mark(txtrace.StageAck)
	tr.Finish(txtrace.OutcomeCommit, lsn)
	return nil
}

// Abort abandons the transaction. Safe to call at most once, and only
// if Commit was not called. A transaction one of whose reads returned
// ErrConflict ends as a conflict, not as a rollback.
func (m *ManualTx) Abort() {
	if m.done {
		return
	}
	m.tx.inner.abort()
	m.end(m.tx.conflict)
}

// end finishes a transaction that did not commit: as a conflict the
// protocol decided, or as a rollback its caller asked for.
func (m *ManualTx) end(conflict bool) {
	m.done = true
	kind, outcome, n := eventlog.Abort, txtrace.OutcomeAbort, m.tx.s.db.mAborts
	if conflict {
		kind, outcome, n = eventlog.Conflict, txtrace.OutcomeConflict, m.tx.s.db.mConflicts
	}
	m.tx.s.emit(eventlog.Event{Kind: kind, TxID: m.tx.txid})
	n.Inc()
	m.trace.Finish(outcome, 0)
}

// Tx is a live transaction handle passed to Transact callbacks. It
// buffers writes (read-your-writes) and records the operation log that
// becomes the transaction's history entry. Transact reuses the Tx of
// its session for the next transaction, so a *Tx must not be kept
// after its callback returns.
type Tx struct {
	s     *Session
	txid  string // attempt id; "" without a recorder
	inner txProtocol
	ops   []model.Op
	// The write set: writeOrder lists the written objects in
	// first-write order and vals[i] is the last value written to
	// writeOrder[i]. Lookups scan writeOrder until it holds more than
	// indexAfter objects; from then on index maps each object to its
	// position.
	writeOrder []model.Obj
	vals       []model.Value
	index      map[model.Obj]int
	conflict   bool // a read returned ErrConflict
}

// indexAfter is the write-set size beyond which Tx indexes its writes:
// a linear scan of a few objects beats hashing, and the index keeps a
// large write set (Initialize's) linear overall.
const indexAfter = 8

// written returns the position of x in the write set, or -1.
func (t *Tx) written(x model.Obj) int {
	if t.index != nil {
		if i, ok := t.index[x]; ok {
			return i
		}
		return -1
	}
	for i, y := range t.writeOrder {
		if y == x {
			return i
		}
	}
	return -1
}

// Read returns the value of x as of the transaction's snapshot (or its
// own buffered write).
func (t *Tx) Read(x model.Obj) (model.Value, error) {
	var v model.Value
	if i := t.written(x); i >= 0 {
		v = t.vals[i]
	} else {
		var err error
		v, err = t.inner.read(x)
		if err != nil {
			t.conflict = t.conflict || errors.Is(err, ErrConflict)
			return 0, err
		}
	}
	t.ops = append(t.ops, model.Read(x, v))
	t.s.emit(eventlog.Event{Kind: eventlog.Read, TxID: t.txid, Obj: x, Val: v})
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
	if i := t.written(x); i >= 0 {
		t.vals[i] = v
	} else {
		t.writeOrder = append(t.writeOrder, x)
		t.vals = append(t.vals, v)
		switch n := len(t.writeOrder); {
		case t.index != nil:
			t.index[x] = n - 1
		case n > indexAfter:
			t.index = make(map[model.Obj]int, 2*n)
			for i, y := range t.writeOrder {
				t.index[y] = i
			}
		}
	}
	t.ops = append(t.ops, model.Write(x, v))
	t.s.emit(eventlog.Event{Kind: eventlog.Write, TxID: t.txid, Obj: x, Val: v})
	return nil
}
