package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sian/internal/engine"
	"sian/internal/model"
	"sian/internal/storage/wal"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	measure  time.Duration // measured time (cut into ten windows)
	trace    bool
	// setupBudget is how long set-up may be repeated for its median.
	setupBudget time.Duration
	sizes       certifySizes
	scratch     string // WAL directories live here, and only here
	out         string // traces and result files
}

// runWorkload measures one workload. Untraced, it times set-up, runs
// the bare system for the full measured time and checks its outputs.
// Traced, it splits the measured time in two halves — a bare system
// first, a fresh system behind the timing decorator and client timers
// second — so the per-layer numbers and trace_overhead_ratio come from
// one process on one host minute.
func runWorkload(cfg runConfig) (*runResult, error) {
	res := &runResult{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.measure.Seconds(), Traced: cfg.trace,
		Host: gatherHost(cfg.scratch), Correct: true,
		EndToEnd: map[string]metric{}, PerLayer: map[string]metric{},
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		// Allocated before anything is measured so that both halves run
		// over the same heap.
		tr = newTracer()
	}
	var err error
	if cfg.workload == wlCertify {
		err = runCertify(cfg, tr, res)
	} else {
		err = runEngine(cfg, tr, res)
	}
	if err != nil {
		return nil, err
	}
	if tr != nil {
		path := filepath.Join(cfg.out, "trace-"+cfg.workload+".json")
		if err := tr.write(path); err != nil {
			return nil, err
		}
		res.note("trace: %d spans recorded, %d dropped, head written to %s", tr.recorded(), tr.dropped.Load(), path)
	}
	return res, os.RemoveAll(cfg.scratch)
}

// Set-up is timed several times per run and the median reported: at
// least setupMinReps, then more until the run's set-up budget is spent or
// setupMaxReps reached, so that millisecond set-ups get the most
// repetitions.
const (
	setupMinReps = 3
	setupMaxReps = 15
)

// timeSetup builds and tears down the workload's system repeatedly and
// reports the median build time: what a user waits before the first
// transaction (initial load included).
func timeSetup(budget time.Duration, build func() (func() error, error)) (metric, error) {
	var secs []float64
	for begun := time.Now(); len(secs) < setupMinReps || (len(secs) < setupMaxReps && time.Since(begun) < budget); {
		t0 := time.Now()
		closeFn, err := build()
		secs = append(secs, time.Since(t0).Seconds())
		if err != nil {
			return metric{}, fmt.Errorf("set-up: %w", err)
		}
		if err := closeFn(); err != nil {
			return metric{}, fmt.Errorf("set-up teardown: %w", err)
		}
	}
	runtime.GC() // the discarded systems should not weigh on the measured one
	return metric{Value: median(secs), Unit: "s", Windows: secs}, nil
}

func runEngine(cfg runConfig, tr *tracer, res *runResult) error {
	setup, err := timeSetup(cfg.setupBudget, func() (func() error, error) {
		sys, err := buildSystem(cfg.workload, nil, cfg.scratch)
		if err != nil {
			return nil, err
		}
		return sys.close, nil
	})
	if err != nil {
		return err
	}
	res.EndToEnd["setup_s"] = setup

	measure := cfg.measure
	if cfg.trace {
		measure /= 2
	}
	tm := timingFor(measure)

	bare, err := buildSystem(cfg.workload, nil, cfg.scratch)
	if err != nil {
		return err
	}
	seg := runLoop(bare, cfg.seed, tm)
	if err := finishEngine(cfg, bare, seg, res, res.EndToEnd); err != nil {
		return err
	}
	_, res.Attempted, res.Failed, _ = seg.totals()
	bareRate := res.EndToEnd["txs_per_sec"].Value
	res.PerLayer["engine.allocs_per_txn"] = metric{Value: seg.perCommit(seg.memBefore.Mallocs, seg.memAfter.Mallocs), Unit: "count"}
	res.PerLayer["engine.alloc_bytes_per_txn"] = metric{Value: seg.perCommit(seg.memBefore.TotalAlloc, seg.memAfter.TotalAlloc), Unit: "B"}
	if !cfg.trace {
		return nil
	}

	runtime.GC()
	traced, err := buildSystem(cfg.workload, tr, cfg.scratch)
	if err != nil {
		return err
	}
	tseg := runLoop(traced, cfg.seed, tm)
	if err := sidePhases(traced, tm.windowLen); err != nil {
		return err
	}
	layerMetrics(traced, tseg, res.PerLayer)
	// The traced half's own end-to-end numbers matter only for the
	// overhead ratio; its checks still count.
	tracedE2E := map[string]metric{}
	if err := finishEngine(cfg, traced, tseg, res, tracedE2E); err != nil {
		return err
	}
	_, attempted, failed, _ := tseg.totals()
	res.Attempted += attempted
	res.Failed += failed
	if bareRate > 0 {
		res.PerLayer["trace_overhead_ratio"] = metric{Value: tracedE2E["txs_per_sec"].Value / bareRate, Unit: "ratio"}
	}
	return nil
}

// finishEngine turns a finished closed-loop segment into the workload's
// end-to-end metrics, checks the system's outputs and closes it. On
// wal_fsync closing is part of the measurement: the log is reopened
// with certification to time recovery and to check what it kept.
func finishEngine(cfg runConfig, sys *system, seg *segment, res *runResult, e2e map[string]metric) error {
	acked, attempted, failed, loopErr := seg.totals()
	suffix := ""
	if sys.tr != nil {
		suffix = " (traced half)"
	}
	res.check("no transaction failed"+suffix, loopErr)
	segmentMetrics(seg, e2e)
	e2e["failed_ratio"] = metric{Value: float64(failed) / float64(max(attempted, 1)), Unit: "ratio"}
	e2e["mem_bytes_per_commit"] = metric{Value: seg.perCommit(seg.memBefore.HeapAlloc, seg.memAfter.HeapAlloc), Unit: "B", Samples: int(seg.commitsAfter - seg.commitsBefore)}
	if commits, _ := seg.commits(); commits > 0 {
		e2e["rss_bytes_per_commit"] = metric{Value: float64(seg.rssPeak-seg.rssWarm) / float64(commits), Unit: "B"}
	}
	e2e["peak_rss_mb"] = metric{Value: float64(seg.rssPeak) / (1 << 20), Unit: "MB"}

	stats := sys.db.Stats()
	res.check("acked commits == engine commit counter"+suffix, checkCommitCount(acked+sys.httpCommits, stats.Commits-sys.initial.Commits))

	// Final values, read in one snapshot through a fresh session.
	values := map[model.Obj]model.Value{}
	final := func(x model.Obj) (model.Value, bool) { v, ok := values[x]; return v, ok }
	readAll := func(keys []model.Obj) error {
		return sys.db.Session("verify").Transact(func(tx *engine.Tx) error {
			for _, k := range keys {
				v, err := tx.Read(k)
				if err != nil {
					return err
				}
				values[k] = v
			}
			return nil
		})
	}
	var userBytes int64
	for _, l := range sys.logics {
		if o, ok := l.(keyOwning); ok {
			own := o.owned()
			if err := readAll(own.keys); err != nil {
				return err
			}
			res.check("no lost update on private keys"+suffix, checkOwnKeys(final, own.keys, own.expect))
			for _, k := range own.keys {
				userBytes += int64(len(k)) + bytesPerVal // the initial load
			}
		}
		if dl, ok := l.(*disjointLogic); ok {
			userBytes += dl.userBytes
		}
	}
	switch sys.workload {
	case wlMemHot:
		var total [hotCounters]model.Value
		var hot []model.Obj
		for i := range total {
			hot = append(hot, hotKey(i))
			for _, l := range sys.logics {
				total[i] += l.(*hotLogic).hotAcked[i]
			}
		}
		if err := readAll(hot); err != nil {
			return err
		}
		res.check("hot counters == acked increments"+suffix, checkHotCounters(final, total))
	case wlMemReadMostly:
		first := sys.logics[0].(*readMostlyLogic)
		var torn int64
		var example string
		for _, l := range sys.logics {
			rl := l.(*readMostlyLogic)
			torn += rl.torn
			if rl.tornEx != "" {
				example = rl.tornEx
			}
		}
		if err := readAll(first.pool); err != nil {
			return err
		}
		res.check("pairs always read equal"+suffix, checkPairs(final, first.pool, torn, example))
	}

	if sys.tr != nil {
		compactMetrics(sys, res.PerLayer)
	}
	if sys.workload == wlWalFsync {
		walStats(sys, acked, res.PerLayer)
	}
	if err := sys.close(); err != nil {
		return fmt.Errorf("closing %s: %w", sys.workload, err)
	}
	if sys.workload != wlWalFsync {
		return nil
	}
	return finishWal(cfg, sys, acked, userBytes, res, e2e, suffix)
}

// segmentMetrics derives the throughput and latency metrics of one
// segment. Each latency statistic is taken per window and the median
// across windows is reported, so one scheduler stall cannot move it.
func segmentMetrics(seg *segment, e2e map[string]metric) {
	commits, perWindow := seg.commits()
	for i := range perWindow {
		perWindow[i] /= seg.timing.windowLen.Seconds()
	}
	e2e["txs_per_sec"] = metric{Value: float64(commits) / seg.timing.measured().Seconds(), Unit: "1/s", Windows: perWindow, Samples: int(commits)}
	latency := func(prefix string, w windowed) {
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50", 0.5}, {"p99", 0.99}} {
			if m, ok := w.latencyMetric(q.q); ok {
				e2e[prefix+q.name+"_us"] = m
			}
		}
	}
	rw := seg.latencies(false)
	if m, ok := rw.meanMetric(); ok {
		e2e["txn_mean_us"] = m
	}
	latency("txn_", rw)
	latency("ro_txn_", seg.latencies(true))
}

// finishWal measures what the closed log cost and proves what it
// kept: bytes written per user byte, and a certified reopen that must
// account for every acknowledged commit and reproduce every final
// value. A reopen keeps the OS page cache, so this shows nothing about
// bytes that were written but never flushed; the SIGKILL e2e test in
// internal/engine owns that.
func finishWal(cfg runConfig, sys *system, acked, userBytes int64, res *runResult, e2e map[string]metric, suffix string) error {
	// What is on disk at close depends on where in a rotation cycle the
	// run stopped, so the log's cost is taken as what was written over
	// the run: every record at the size of those still in the segments,
	// plus one snapshot file per rotation.
	segBytes, snapBytes, err := walDirBytes(sys.walDir)
	if err != nil {
		return err
	}
	snapshots := sys.walReg.Counter("wal_snapshots_total").Value()
	res.note("wal_fsync%s: log dir %s holds %d bytes (%d in segments, %d snapshot) after %d acknowledged commits and %d rotations",
		suffix, sys.walDir, segBytes+snapBytes, segBytes, snapBytes, acked, snapshots)

	var replay time.Duration
	if sys.tr != nil {
		// Replay alone, on a copy, so certification's share can be told
		// apart.
		cp := filepath.Join(cfg.scratch, "wal-copy")
		if err := copyDir(sys.walDir, cp); err != nil {
			return err
		}
		t0 := time.Now()
		opts := walOptions(cp, nil)
		opts.SkipCertify = true
		d, err := wal.Open(opts)
		replay = time.Since(t0)
		if err != nil {
			return fmt.Errorf("replaying log copy: %w", err)
		}
		if err := d.Close(); err != nil {
			return err
		}
		if err := os.RemoveAll(cp); err != nil {
			return err
		}
	}

	t0 := time.Now()
	d, err := wal.Open(walOptions(sys.walDir, nil))
	recovery := time.Since(t0)
	if err != nil {
		res.check("recovery certified and complete"+suffix, err)
		return nil
	}
	info := d.Recovery()
	// The initial load is an acknowledged commit too.
	res.check("recovery certified and complete"+suffix, checkRecovery(info, acked+1))
	final := func(x model.Obj) (model.Value, bool) {
		v, ok := d.Latest(x)
		return v.Val, ok
	}
	for _, l := range sys.logics {
		dl := l.(*disjointLogic)
		res.check("recovered values == acked values"+suffix, checkOwnKeys(final, dl.keys, dl.expect))
	}
	if records := info.Records + info.Skipped; records > 0 && userBytes > 0 {
		perRecord := float64(segBytes) / float64(records)
		written := perRecord*float64(info.LastLSN) + float64(snapBytes*snapshots)
		e2e["log_bytes_per_user_byte"] = metric{Value: written / float64(userBytes), Unit: "ratio"}
		res.PerLayer["wal.log_bytes_per_commit"] = metric{Value: perRecord, Unit: "B", Samples: int(records)}
	}
	if info.Commits > 0 {
		e2e["recovery_us_per_commit"] = metric{Value: float64(recovery.Microseconds()) / float64(info.Commits), Unit: "us", Samples: int(info.Commits)}
		if sys.tr != nil {
			res.PerLayer["wal.replay_us_per_commit"] = metric{Value: float64(replay.Microseconds()) / float64(info.Commits), Unit: "us"}
			res.PerLayer["wal.recover_certify_us_per_commit"] = metric{Value: float64((recovery - replay).Microseconds()) / float64(info.Commits), Unit: "us"}
		}
	}
	return d.Close()
}

// walDirBytes sizes a closed log directory: its segment files and its
// snapshot file (0 when none was taken).
func walDirBytes(dir string) (segments, snapshot int64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		switch {
		case e.Name() == "snapshot":
			snapshot = info.Size()
		case info.Mode().IsRegular():
			segments += info.Size()
		}
	}
	return segments, snapshot, nil
}

func copyDir(from, to string) error {
	if err := os.RemoveAll(to); err != nil {
		return err
	}
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
