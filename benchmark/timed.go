package main

import (
	"sync/atomic"

	"sian/internal/model"
	"sian/internal/obs/txtrace"
	"sian/internal/storage"
)

// driverCounts are the decorator's plain counters; they are kept with
// tracing off too (one atomic add per call), so count-based layer
// metrics do not depend on the tracer.
type driverCounts struct {
	reads       atomic.Int64 // objects read via ReadAt/ReadAtBatch
	soloWindows atomic.Int64 // LockObjs windows
	batchWins   atomic.Int64 // LockBatch windows
	batchRecs   atomic.Int64 // records staged via LogCommitBatch
}

// timedDriver measures a storage.Driver from outside: it forwards every
// call and, while the tracer is on, records a span around the calls the
// layer table names. ownerOf maps a key to the session that owns it
// (-1 for shared keys), which is how a driver call finds the Transact
// span that caused it.
//
// The engine discovers optional driver and window capabilities by type
// assertion, so wrapping must not hide any: timeDriver returns a type
// that implements exactly the optional interfaces the inner driver has,
// and lock windows do the same. A window that lost LogCommit would make
// the wal log raw installs instead of commit records — a different
// system from the one being measured.
type timedDriver struct {
	inner   storage.Driver
	tr      *tracer
	ownerOf func(model.Obj) int
	counts  *driverCounts
}

// timeDriver wraps d and returns the decorator's counters with it.
func timeDriver(d storage.Driver, tr *tracer, ownerOf func(model.Obj) int) (storage.Driver, *driverCounts) {
	td := &timedDriver{inner: d, tr: tr, ownerOf: ownerOf, counts: &driverCounts{}}
	_, cloner := d.(storage.Cloner)
	_, recovered := d.(storage.Recovered)
	switch {
	case cloner && recovered:
		return struct {
			*timedDriver
			clonerPart
			recoveredPart
		}{td, clonerPart{td}, recoveredPart{td}}, td.counts
	case cloner:
		return struct {
			*timedDriver
			clonerPart
		}{td, clonerPart{td}}, td.counts
	case recovered:
		return struct {
			*timedDriver
			recoveredPart
		}{td, recoveredPart{td}}, td.counts
	}
	return td, td.counts
}

type clonerPart struct{ d *timedDriver }

// Clone wraps the clone the same way; the clone gets counters of its
// own.
func (c clonerPart) Clone() storage.Driver {
	cl, _ := timeDriver(c.d.inner.(storage.Cloner).Clone(), c.d.tr, c.d.ownerOf)
	return cl
}

type recoveredPart struct{ d *timedDriver }

func (r recoveredPart) RecoveredMaxTS() uint64 {
	return r.d.inner.(storage.Recovered).RecoveredMaxTS()
}

func (d *timedDriver) owner(objs []model.Obj) int {
	if len(objs) == 0 {
		return -1
	}
	return d.ownerOf(objs[0])
}

func (d *timedDriver) Install(x model.Obj, v storage.Version) error { return d.inner.Install(x, v) }
func (d *timedDriver) InstallBatch(ws []storage.Write) error        { return d.inner.InstallBatch(ws) }

func (d *timedDriver) ReadAt(x model.Obj, ts uint64) (storage.Version, bool) {
	d.counts.reads.Add(1)
	if !d.tr.on() {
		return d.inner.ReadAt(x, ts)
	}
	t0 := nanos()
	v, ok := d.inner.ReadAt(x, ts)
	d.tr.add(spReadAt, d.ownerOf(x), t0, nanos())
	return v, ok
}

func (d *timedDriver) ReadAtBatch(objs []model.Obj, ts uint64) ([]storage.Version, []bool) {
	d.counts.reads.Add(int64(len(objs)))
	if !d.tr.on() {
		return d.inner.ReadAtBatch(objs, ts)
	}
	t0 := nanos()
	vs, oks := d.inner.ReadAtBatch(objs, ts)
	d.tr.add(spReadAt, d.owner(objs), t0, nanos())
	return vs, oks
}

func (d *timedDriver) Latest(x model.Obj) (storage.Version, bool)     { return d.inner.Latest(x) }
func (d *timedDriver) LatestTS(x model.Obj) uint64                    { return d.inner.LatestTS(x) }
func (d *timedDriver) LatestTSBatch(objs []model.Obj) []uint64        { return d.inner.LatestTSBatch(objs) }
func (d *timedDriver) Compact(watermark uint64) int                   { return d.inner.Compact(watermark) }
func (d *timedDriver) Objects() []model.Obj                           { return d.inner.Objects() }
func (d *timedDriver) VersionCount(x model.Obj) int                   { return d.inner.VersionCount(x) }
func (d *timedDriver) Close() error                                   { return d.inner.Close() }
func (d *timedDriver) LockObjs(objs []model.Obj) storage.Locked       { return d.lock(objs, false) }
func (d *timedDriver) LockBatch(objs []model.Obj) storage.BatchLocked { return d.lock(objs, true) }

// lock opens either kind of window. The inner window of LockBatch is a
// BatchLocked; LockObjs's is wrapped with the same type, whose
// LogCommitBatch is then never called by the engine.
func (d *timedDriver) lock(objs []model.Obj, batch bool) storage.BatchLocked {
	if batch {
		d.counts.batchWins.Add(1)
	} else {
		d.counts.soloWindows.Add(1)
	}
	w := timedWindow{d: d, sess: -1}
	var t0 int64
	if w.traced = d.tr.on(); w.traced {
		w.sess = d.owner(objs)
		t0 = nanos()
	}
	if batch {
		bl := d.inner.LockBatch(objs)
		w.inner, w.batch = bl, bl
	} else {
		w.inner = d.inner.LockObjs(objs)
	}
	if w.traced {
		w.locked = nanos()
		d.tr.add(spLock, w.sess, t0, w.locked)
	}
	_, logs := w.inner.(storage.CommitLogger)
	_, durable := w.inner.(storage.DurableWindow)
	if w.logs = logs || durable; w.logs {
		return &durableTimedWindow{w}
	}
	return &w
}

// timedWindow decorates a commit window of a driver without a log.
type timedWindow struct {
	d      *timedDriver
	inner  storage.Locked
	batch  storage.BatchLocked // inner as a group-commit window, or nil
	sess   int
	traced bool
	logs   bool  // the inner window writes a log: its Unlock is wal time
	locked int64 // when the lock call returned (nanos)
	// members are the sessions whose commits a logging window carries,
	// learnt from the staged records: each of them waits for this
	// window's append and fsync, so each is charged its span.
	members []int
}

func (w *timedWindow) LatestTS(x model.Obj) uint64 { return w.inner.LatestTS(x) }

func (w *timedWindow) ReadAt(x model.Obj, ts uint64) (storage.Version, bool) {
	return w.inner.ReadAt(x, ts)
}

func (w *timedWindow) Install(x model.Obj, v storage.Version) error {
	if !w.traced {
		return w.inner.Install(x, v)
	}
	t0 := nanos()
	err := w.inner.Install(x, v)
	w.d.tr.add(spInstall, w.sess, t0, nanos())
	return err
}

// member notes the session a staged commit record belongs to, by the
// owner of the first key it wrote.
func (w *timedWindow) member(rec storage.CommitRecord) {
	if !w.traced || !w.logs {
		return
	}
	for _, op := range rec.Ops {
		if op.Kind == model.OpWrite {
			w.members = append(w.members, w.d.ownerOf(op.Obj))
			return
		}
	}
}

func (w *timedWindow) LogCommitBatch(recs []storage.CommitRecord) {
	w.d.counts.batchRecs.Add(int64(len(recs)))
	for _, rec := range recs {
		w.member(rec)
	}
	if w.batch != nil {
		w.batch.LogCommitBatch(recs)
	}
}

func (w *timedWindow) Unlock() {
	if !w.traced {
		w.inner.Unlock()
		return
	}
	t0 := nanos()
	w.inner.Unlock()
	end := nanos()
	switch {
	case !w.logs:
		w.d.tr.add(spUnlock, w.sess, t0, end)
		w.d.tr.add(spHold, w.sess, w.locked, end)
	case len(w.members) == 0: // raw installs, no commit record
		w.d.tr.add(spWalUnlock, w.sess, t0, end)
	default:
		for _, m := range w.members {
			w.d.tr.add(spWalUnlock, m, t0, end)
		}
	}
}

// durableTimedWindow adds the optional interfaces of a logging driver's
// window. The wal window implements all three; a missing one degrades
// to what the engine would have seen without it.
type durableTimedWindow struct{ timedWindow }

func (w *durableTimedWindow) LogCommit(rec storage.CommitRecord) {
	w.member(rec)
	if lg, ok := w.inner.(storage.CommitLogger); ok {
		lg.LogCommit(rec)
	}
}

func (w *durableTimedWindow) Durable() (uint64, error) {
	if dw, ok := w.inner.(storage.DurableWindow); ok {
		return dw.Durable()
	}
	return 0, nil
}

func (w *durableTimedWindow) AttachTrace(tr *txtrace.Trace) {
	if ta, ok := w.inner.(storage.TraceAttacher); ok {
		ta.AttachTrace(tr)
	}
}
