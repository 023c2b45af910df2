package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"sian/internal/engine"
	"sian/internal/model"
	"sian/internal/obs"
	"sian/internal/siwire"
	"sian/internal/storage"
	"sian/internal/storage/wal"
)

// The five engine workloads. certify is built in certify.go.
const (
	wlMemDisjoint   = "mem_disjoint"
	wlMemHot        = "mem_hot"
	wlMemReadMostly = "mem_readmostly"
	wlWalFsync      = "wal_fsync"
	wlWireVolatile  = "wire_volatile"
	wlCertify       = "certify"
)

// system is one freshly built instance of the stack under a workload:
// an SI engine over its storage driver, optionally behind a siwire
// server, plus the two closed-loop sessions that will drive it.
type system struct {
	workload string
	db       *engine.DB
	drv      storage.Driver // what the engine was given (decorated when traced)
	logics   []logic
	exec     []func() error // one per session: run logics[i] as one transaction
	txnKind  spanKind       // the span kind of one exec call
	tr       *tracer        // nil on a bare (untraced) system
	counts   *driverCounts  // decorator counters; nil on a bare system
	initial  engine.Stats   // counters after the initial load

	// wal_fsync only.
	walDir string
	walReg *obs.Registry
	walDrv *wal.Driver

	// wire_volatile only.
	srv     *siwire.Server
	addr    string
	wire    []*wireWorker
	srvDone chan error
	// httpCommits counts the side-phase transactions committed through
	// the HTTP fallback, which no closed-loop session acknowledged.
	httpCommits int64

	closed bool
}

// buildSystem sets a workload's system up. A non-nil tracer wraps the
// storage driver in the timing decorator and arms the client timers; a
// nil one builds exactly what a user of the packages would.
func buildSystem(workload string, tr *tracer, scratch string) (*system, error) {
	sys := &system{workload: workload, tr: tr, txnKind: spTransact}
	if err := sys.build(scratch); err != nil {
		return nil, errors.Join(err, sys.close())
	}
	return sys, nil
}

func (sys *system) build(scratch string) (err error) {
	workload, tr := sys.workload, sys.tr
	var drv storage.Driver
	if workload == wlWalFsync {
		fs, ferr := fsType(scratch)
		if ferr != nil {
			return ferr
		}
		if fs == "tmpfs" || fs == "ramfs" {
			return fmt.Errorf("%s: scratch dir %s is on %s; an fsync there measures nothing", workload, scratch, fs)
		}
		sys.walDir = filepath.Join(scratch, "wal")
		if err := os.RemoveAll(sys.walDir); err != nil {
			return err
		}
		sys.walReg = obs.NewRegistry()
		sys.walDrv, err = wal.Open(walOptions(sys.walDir, sys.walReg))
		if err != nil {
			return err
		}
		drv = sys.walDrv
	} else {
		drv = storage.NewMem()
	}
	if tr != nil {
		drv, sys.counts = timeDriver(drv, tr, keyOwner)
	}
	sys.drv = drv
	sys.db, err = engine.New(engine.SI, engine.Config{Driver: drv})
	if err != nil {
		return errors.Join(err, drv.Close())
	}

	init := make(map[model.Obj]model.Value)
	switch workload {
	case wlMemDisjoint, wlWalFsync, wlWireVolatile:
		for w := 0; w < sessions; w++ {
			l := newDisjointLogic(w)
			sys.logics = append(sys.logics, l)
			for _, k := range l.keys {
				init[k] = 0
			}
		}
	case wlMemHot:
		for i := 0; i < hotCounters; i++ {
			init[hotKey(i)] = 0
		}
		for w := 0; w < sessions; w++ {
			l := newHotLogic(w)
			sys.logics = append(sys.logics, l)
			for _, k := range l.keys {
				init[k] = 0
			}
		}
	case wlMemReadMostly:
		pool := poolKeySet()
		for _, k := range pool {
			init[k] = 0
		}
		for w := 0; w < sessions; w++ {
			sys.logics = append(sys.logics, &readMostlyLogic{pool: pool, sess: w})
		}
	default:
		return fmt.Errorf("unknown engine workload %q", workload)
	}
	if err := sys.db.Initialize(init); err != nil {
		return err
	}
	sys.initial = sys.db.Stats()

	if workload == wlWireVolatile {
		return sys.serve()
	}
	for w := 0; w < sessions; w++ {
		sess, l := sys.db.Session(fmt.Sprintf("s%d", w)), sys.logics[w]
		body := func(tx *engine.Tx) error { return l.body(tx) }
		sys.exec = append(sys.exec, func() error { return sess.Transact(body) })
	}
	return nil
}

// walSnapshotEvery is wal_fsync's snapshot-rotation period in records.
// The driver's default (65536) is about what one run commits on this
// class of host, so rotation would fire once or not at all depending on
// the run's speed, and recovery would replay 60 000 commits or none;
// at 8192 rotation completes several cycles in every run.
const walSnapshotEvery = 8192

// walOptions fixes wal_fsync's flush policy: fsync on, on both sides
// of any comparison.
func walOptions(dir string, reg *obs.Registry) wal.Options {
	return wal.Options{Dir: dir, SnapshotEvery: walSnapshotEvery, Metrics: reg}
}

// serve puts the engine behind a siwire server on a loopback listener
// in this process and dials one client connection per session.
func (sys *system) serve() error {
	sys.txnKind = spClientTxn
	sys.srv = siwire.NewServer(siwire.ServerConfig{
		DB:   sys.db,
		Info: func() siwire.Info { return siwire.Info{Name: "benchmark", Engine: "si"} },
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	sys.addr = ln.Addr().String()
	sys.srvDone = make(chan error, 1)
	go func() { sys.srvDone <- sys.srv.Serve(ln) }()
	for w := 0; w < sessions; w++ {
		c, err := siwire.Dial(sys.addr)
		if err != nil {
			return err
		}
		ww := &wireWorker{c: c, l: sys.logics[w], tr: sys.tr, sess: w}
		ww.fn = func(*siwire.ClientTx) error { return ww.attempt() }
		// One round trip proves the connection is served before timing.
		if _, err := c.Info(); err != nil {
			c.Close()
			return err
		}
		sys.wire = append(sys.wire, ww)
		sys.exec = append(sys.exec, ww.exec)
	}
	return nil
}

// close tears the system down in dependency order. The engine owns the
// storage driver and closes it.
func (sys *system) close() error {
	if sys.closed {
		return nil
	}
	sys.closed = true
	var errs []error
	for _, ww := range sys.wire {
		errs = append(errs, ww.c.Close())
	}
	if sys.srv != nil {
		errs = append(errs, sys.srv.Close())
		if sys.srvDone != nil {
			errs = append(errs, <-sys.srvDone)
		}
	}
	if sys.db != nil {
		errs = append(errs, sys.db.Close())
	}
	return errors.Join(errs...)
}

// wireWorker drives one siwire.Client. Untraced it goes through
// Client.Transact, as a user would; traced it runs the same
// begin/body/commit/retry sequence by hand so each call can be timed.
// It is the kvTx the transaction body sees either way, which is where
// round trips are counted.
type wireWorker struct {
	c    *siwire.Client
	l    logic
	tr   *tracer
	sess int
	fn   func(*siwire.ClientTx) error

	calls    int64 // round trips issued, retried attempts included
	attempts int64
}

func (w *wireWorker) attempt() error {
	w.attempts++
	w.calls += 2 // begin + commit
	return w.l.body(w)
}

func (w *wireWorker) Read(x model.Obj) (model.Value, error) {
	w.calls++
	if !w.tr.on() {
		return w.c.Read(x)
	}
	t0 := nanos()
	v, err := w.c.Read(x)
	w.tr.add(spRead, w.sess, t0, nanos())
	return v, err
}

func (w *wireWorker) Write(x model.Obj, v model.Value) error {
	w.calls++
	if !w.tr.on() {
		return w.c.Write(x, v)
	}
	t0 := nanos()
	err := w.c.Write(x, v)
	w.tr.add(spWrite, w.sess, t0, nanos())
	return err
}

func (w *wireWorker) exec() error {
	if !w.tr.on() {
		_, err := w.c.Transact(w.fn)
		return err
	}
	// Client.Transact, call by call (same retry bound and backoff).
	for attempt := 0; attempt < 10000; attempt++ {
		t0 := nanos()
		err := w.c.Begin()
		w.tr.add(spBegin, w.sess, t0, nanos())
		if err != nil {
			return err
		}
		if err := w.attempt(); err != nil {
			if aerr := w.c.Abort(); aerr != nil {
				return aerr
			}
			return err
		}
		t0 = nanos()
		_, err = w.c.Commit()
		w.tr.add(spCommit, w.sess, t0, nanos())
		if err == nil {
			return nil
		}
		if !errors.Is(err, siwire.ErrConflict) {
			return err
		}
		if attempt > 3 {
			time.Sleep(time.Microsecond << uint(min(attempt, 10)))
		}
	}
	return errors.New("wire: too many conflict retries")
}
