package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"sian/internal/model"
	"sian/internal/siwire"
)

// layerMetrics turns the traced half of an engine workload into the
// per-layer table: percentiles of each timed call, counts per commit,
// and each layer's share of the time the sessions spent in their
// transactions. Self time is by aggregate subtraction: a layer's spans
// minus the spans of the layer below that ran inside them.
func layerMetrics(sys *system, seg *segment, out map[string]metric) {
	agg := sys.tr.aggregate()
	ns := func(v float64) metric { return metric{Value: v, Unit: "ns"} }
	ratio := func(num, den float64) metric {
		if den == 0 {
			return metric{Unit: "ratio"}
		}
		return metric{Value: num / den, Unit: "ratio"}
	}
	count := func(v float64) metric { return metric{Value: v, Unit: "count"} }
	acked, _, _, _ := seg.totals()
	perAck := func(v float64) metric { return count(v / float64(max(acked, 1))) }

	// Time the sessions spent inside transactions, and the driver time
	// inside it. window_hold overlaps install and unlock, so it is not
	// part of the sum.
	txn := agg[sys.txnKind]
	memTime := agg[spReadAt].sum + agg[spLock].sum + agg[spInstall].sum + agg[spUnlock].sum
	walTime := agg[spWalUnlock].sum
	driverTime := memTime + walTime

	stats := sys.db.Stats()
	commits := float64(stats.Commits - sys.initial.Commits)
	conflicts := float64(stats.Conflicts - sys.initial.Conflicts)
	out["engine.conflicts_per_commit"] = ratio(conflicts, commits)
	out["engine.retries_per_commit"] = ratio(float64(stats.Retries-sys.initial.Retries), commits)
	out["engine.useful_attempt_ratio"] = ratio(commits, commits+conflicts)
	if c := sys.counts; c != nil {
		out["engine.batch_size_mean"] = ratio(float64(c.batchRecs.Load()), float64(c.batchWins.Load()))
		out["engine.solo_window_share"] = ratio(float64(c.soloWindows.Load()), float64(c.soloWindows.Load()+c.batchWins.Load()))
		out["mem.reads_per_txn"] = perAck(float64(c.reads.Load()))
	}
	if sys.txnKind == spTransact {
		out["engine.transact_ns_p50"] = ns(txn.p50)
		out["engine.transact_ns_p99"] = ns(txn.p99)
		out["engine.self_ns_per_txn"] = ns((txn.sum - driverTime) / float64(max(txn.count, 1)))
		out["engine.self_share"] = ratio(txn.sum-driverTime, txn.sum)
	}
	out["mem.read_at_ns_p50"] = ns(agg[spReadAt].p50)
	out["mem.read_at_ns_p99"] = ns(agg[spReadAt].p99)
	out["mem.lock_wait_ns_p50"] = ns(agg[spLock].p50)
	out["mem.lock_wait_ns_p99"] = ns(agg[spLock].p99)
	out["mem.install_ns_p50"] = ns(agg[spInstall].p50)
	out["mem.busy_share"] = ratio(memTime, txn.sum)
	if sys.walDrv == nil {
		out["mem.window_hold_ns_p50"] = ns(agg[spHold].p50)
	} else {
		out["wal.unlock_ns_p50"] = ns(agg[spWalUnlock].p50)
		out["wal.unlock_ns_p99"] = ns(agg[spWalUnlock].p99)
		out["wal.busy_share"] = ratio(walTime, txn.sum)
		out["wal.device_busy_share"] = ratio(sys.tr.busyNS(spWalUnlock), float64(seg.timing.measured()))
	}
	if len(sys.wire) > 0 {
		var calls, attempts int64
		for _, w := range sys.wire {
			calls += w.calls
			attempts += w.attempts
		}
		clientTime := agg[spBegin].sum + agg[spRead].sum + agg[spWrite].sum + agg[spCommit].sum
		out["siwire.rtt_ns_p50"] = ns(agg[spInfo].p50)
		out["siwire.rtt_ns_p99"] = ns(agg[spInfo].p99)
		out["siwire.begin_ns_p50"] = ns(agg[spBegin].p50)
		out["siwire.read_ns_p50"] = ns(agg[spRead].p50)
		out["siwire.write_ns_p50"] = ns(agg[spWrite].p50)
		out["siwire.commit_ns_p50"] = ns(agg[spCommit].p50)
		out["siwire.commit_ns_p99"] = ns(agg[spCommit].p99)
		out["siwire.roundtrips_per_commit"] = perAck(float64(calls))
		out["siwire.client_retries_per_commit"] = perAck(float64(attempts - acked))
		out["siwire.self_share"] = ratio(clientTime-driverTime, clientTime)
		out["siwire.http_transact_ns_p50"] = ns(agg[spHTTP].p50)
	}
}

// compactMetrics samples version-chain length and then times one
// db.Compact() on the quiesced system: what the retained versions cost
// to keep and to drop.
func compactMetrics(sys *system, out map[string]metric) {
	var keys int
	var versions int64
	sample := func(ks []model.Obj, step int) {
		for i := 0; i < len(ks); i += step {
			versions += int64(sys.drv.VersionCount(ks[i]))
			keys++
		}
	}
	for _, l := range sys.logics {
		switch l := l.(type) {
		case keyOwning:
			sample(l.owned().keys, 1)
		case *readMostlyLogic:
			if keys == 0 { // the pool is shared; sample it once
				sample(l.pool, len(l.pool)/1000)
			}
		}
	}
	if keys > 0 {
		out["mem.versions_per_obj"] = metric{Value: float64(versions) / float64(keys), Unit: "count", Samples: keys}
	}
	t0 := time.Now()
	dropped := sys.db.Compact()
	if dur := time.Since(t0); dropped > 0 {
		out["mem.gc_ns_per_version"] = metric{Value: float64(dur.Nanoseconds()) / float64(dropped), Unit: "ns", Samples: dropped}
	}
}

// walStats reads the wal driver's own counters (the registry passed as
// wal.Options.Metrics) and its segment index.
func walStats(sys *system, acked int64, out map[string]metric) {
	commits := float64(acked + 1) // the initial load is one logged commit
	out["wal.fsyncs_per_commit"] = metric{Value: float64(sys.walReg.Counter("wal_syncs_total").Value()) / commits, Unit: "count"}
	out["wal.appends_per_commit"] = metric{Value: float64(sys.walReg.Counter("wal_appends_total").Value()) / commits, Unit: "count"}
	out["wal.segments"] = metric{Value: float64(sys.walDrv.Stats().Segment), Unit: "count"}
}

// sidePhases measures, on the quiesced traced wire system, two things
// the closed loop cannot: the bare round-trip time (Client.Info does no
// engine work) and the same transaction sent as one POST /v1/transact
// to the server's HTTP fallback. Each runs for one window length.
func sidePhases(sys *system, each time.Duration) error {
	if len(sys.wire) == 0 {
		return nil
	}
	sys.tr.enabled.Store(true)
	defer sys.tr.enabled.Store(false)

	c, err := siwire.Dial(sys.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	for end := time.Now().Add(each); time.Now().Before(end); {
		t0 := nanos()
		if _, err := c.Info(); err != nil {
			return fmt.Errorf("rtt phase: %w", err)
		}
		sys.tr.add(spInfo, -1, t0, nanos())
	}

	hs := httptest.NewServer(sys.srv.HTTPHandler())
	defer hs.Close()
	// mem_disjoint's transaction on keys of session 0; the increments
	// are mirrored into its bookkeeping so the final-value check holds.
	l := sys.logics[0].(*disjointLogic)
	for end, i := time.Now().Add(each), 0; time.Now().Before(end); i++ {
		p := [4]int{i % ownKeys, (i + 1) % ownKeys, (i + 2) % ownKeys, (i + 3) % ownKeys}
		req := siwire.HTTPRequest{Ops: []siwire.HTTPOp{
			{Op: "read", Obj: string(l.keys[p[0]])}, {Op: "read", Obj: string(l.keys[p[1]])},
			{Op: "read", Obj: string(l.keys[p[2]])}, {Op: "write", Obj: string(l.keys[p[2]]), Val: l.expect[p[2]] + 1},
			{Op: "read", Obj: string(l.keys[p[3]])}, {Op: "write", Obj: string(l.keys[p[3]]), Val: l.expect[p[3]] + 1},
		}}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		t0 := nanos()
		resp, err := http.Post(hs.URL+"/v1/transact", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("http phase: %w", err)
		}
		_, cerr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		sys.tr.add(spHTTP, -1, t0, nanos())
		if cerr != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("http phase: status %d, %v", resp.StatusCode, cerr)
		}
		l.expect[p[2]]++
		l.expect[p[3]]++
		sys.httpCommits++
	}
	return nil
}
