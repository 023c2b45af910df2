package main

import (
	"fmt"
	"runtime"

	"sian/internal/check"
	"sian/internal/depgraph"
	"sian/internal/monitor"
	"sian/internal/obs/eventlog"
)

// monitorWindow is the online monitor's live window in phase B — the
// same 62 that wal recovery certifies with (64-bit writer mask minus
// the certifying transaction and the init frontier).
const monitorWindow = 62

// certifyOutcome is what judging the fixed inputs for a while produced.
type certifyOutcome struct {
	callSecs []float64 // phase A: one entry per check.Certify(H_off)
	passSecs []float64 // phase B: one entry per monitor pass over H_on
	verdict  windowed  // phase B: latency of each commit's Ingest, ns
	rssPeak  int64
	// Bytes allocated by one Certify call and by one monitor pass.
	certifyAlloc, monitorAlloc uint64

	examined int   // check.Result.Examined, identical on every call
	slowPath int64 // commits whose verdict needed the slow path, per pass
	rechecks int64
	gcd      int64
	failed   int64
	firstErr error
}

func certifyOnce(in *certifyInputs) (*check.Result, error) {
	// The history carries its own initialising transaction.
	return check.Certify(in.hOff, depgraph.SI, check.Options{NoInit: true, PinInit: true})
}

// monitorPass streams H_on through a fresh monitor. With a tracer every
// Ingest and the Finish get a span; without one only commit events are
// timed (two clock reads against a verdict that costs microseconds).
func monitorPass(in *certifyInputs, tr *tracer, each func(v *monitor.Verdict, at, lat int64)) (*monitor.Report, error) {
	m := monitor.New(monitor.Config{Window: monitorWindow})
	for _, ev := range in.hOn {
		if !tr.on() && ev.Kind != eventlog.Commit {
			m.Ingest(ev)
			continue
		}
		t0 := nanos()
		v := m.Ingest(ev)
		t1 := nanos()
		if tr.on() {
			tr.add(spIngest, -1, t0, t1)
		}
		if ev.Kind == eventlog.Commit {
			each(v, t1, t1-t0)
		}
	}
	t0 := nanos()
	rep, err := m.Finish()
	if tr.on() {
		tr.add(spFinish, -1, t0, nanos())
	}
	return rep, err
}

// judge runs phase A then phase B, each for about half of tm's measured
// time (a phase ends with the call that crosses its deadline), after
// one discarded call of each as warm-up. Every verdict is checked.
func judge(in *certifyInputs, tm timing, tr *tracer, res *runResult, suffix string) *certifyOutcome {
	out := &certifyOutcome{verdict: make(windowed, tm.windows/2), examined: -1}
	half := tm.measured() / 2

	// The discarded warm-up calls are where allocation is measured:
	// reading the heap statistics stops the world, which the timed calls
	// should not pay for.
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := certifyOnce(in); err != nil {
		out.failed++
	}
	runtime.ReadMemStats(&m1)
	if _, err := monitorPass(in, nil, func(*monitor.Verdict, int64, int64) {}); err != nil {
		out.failed++
	}
	runtime.ReadMemStats(&m2)
	out.certifyAlloc, out.monitorAlloc = m1.TotalAlloc-m0.TotalAlloc, m2.TotalAlloc-m1.TotalAlloc
	if tr != nil {
		tr.enabled.Store(true)
		defer tr.enabled.Store(false)
	}

	var offErr, onErr error
	for start := nanos(); nanos()-start < int64(half); {
		t0 := nanos()
		r, err := certifyOnce(in)
		t1 := nanos()
		if tr != nil {
			tr.add(spCertify, -1, t0, t1)
		}
		out.callSecs = append(out.callSecs, float64(t1-t0)/1e9)
		switch {
		case err != nil:
			out.failed++
			offErr = err
		case out.examined >= 0 && r.Examined != out.examined:
			offErr = fmt.Errorf("examined %d candidate graphs, then %d, on the same input", out.examined, r.Examined)
		default:
			out.examined = r.Examined
			if verr := checkOfflineVerdict(r); verr != nil {
				offErr = verr
			}
		}
	}
	res.check("H_off certified a member of SI on every call"+suffix, offErr)

	for start := nanos(); nanos()-start < int64(half); {
		var slow int64
		t0 := nanos()
		rep, err := monitorPass(in, tr, func(v *monitor.Verdict, at, lat int64) {
			if v != nil && v.Checked {
				slow++
			}
			if w := int((at - start) / int64(tm.windowLen)); w < len(out.verdict) {
				out.verdict[w] = append(out.verdict[w], uint32(min(lat, int64(^uint32(0)))))
			}
		})
		out.passSecs = append(out.passSecs, float64(nanos()-t0)/1e9)
		if err != nil {
			out.failed++
			onErr = err
			continue
		}
		out.slowPath, out.rechecks, out.gcd = slow, rep.Rechecks, rep.GCd
		if verr := checkMonitorVerdict(rep, in.onCommits); verr != nil {
			onErr = verr
		}
	}
	res.check("H_on judged a member of SI with no violation on every pass"+suffix, onErr)
	out.rssPeak = peakRSSBytes()
	return out
}

func runCertify(cfg runConfig, tr *tracer, res *runResult) error {
	setup, err := timeSetup(cfg.setupBudget, func() (func() error, error) {
		_, err := genCertifyInputs(cfg.seed, cfg.sizes)
		return func() error { return nil }, err
	})
	if err != nil {
		return err
	}
	res.EndToEnd["setup_s"] = setup
	in, err := genCertifyInputs(cfg.seed, cfg.sizes)
	if err != nil {
		return err
	}
	nOff, nOn := float64(in.hOff.NumTransactions()), float64(in.onCommits)
	res.note("certify inputs: H_off %d transactions, H_on %d events / %d commits", in.hOff.NumTransactions(), len(in.hOn), in.onCommits)
	res.check("the lost-update history is rejected", checkRejectsLostUpdate())

	measure := cfg.measure
	if cfg.trace {
		measure /= 2
	}
	tm := timingFor(measure)

	bare := judge(in, tm, nil, res, "")
	e2e := res.EndToEnd
	rate := certifyMetrics(bare, nOff, nOn, e2e)
	// The certifiers retain nothing between calls; their memory cost is
	// what they allocate to judge both inputs once, per transaction
	// judged (exact on fixed inputs, where a peak RSS depends on when
	// the collector happened to run).
	e2e["mem_bytes_per_commit"] = metric{Value: float64(bare.certifyAlloc+bare.monitorAlloc) / (nOff + nOn), Unit: "B"}
	e2e["peak_rss_mb"] = metric{Value: float64(bare.rssPeak) / (1 << 20), Unit: "MB"}
	res.Attempted = int64(len(bare.callSecs) + len(bare.passSecs))
	res.Failed = bare.failed
	e2e["failed_ratio"] = metric{Value: float64(res.Failed) / float64(max(res.Attempted, 1)), Unit: "ratio"}
	if !cfg.trace {
		return nil
	}

	traced := judge(in, tm, tr, res, " (traced half)")
	res.Attempted += int64(len(traced.callSecs) + len(traced.passSecs))
	res.Failed += traced.failed
	agg := tr.aggregate()
	pl := res.PerLayer
	passes := float64(max(len(traced.passSecs), 1))
	pl["monitor.ingest_ns_per_commit"] = metric{Value: agg[spIngest].sum / (passes * nOn), Unit: "ns"}
	pl["monitor.finish_ns"] = metric{Value: agg[spFinish].p50, Unit: "ns", Samples: agg[spFinish].count}
	pl["monitor.slowpath_ratio"] = metric{Value: float64(traced.slowPath) / nOn, Unit: "ratio"}
	pl["monitor.rechecks"] = metric{Value: float64(traced.rechecks), Unit: "count"}
	pl["monitor.gcd_per_commit"] = metric{Value: float64(traced.gcd) / nOn, Unit: "ratio"}
	pl["check.certify_ns_per_txn"] = metric{Value: agg[spCertify].p50 / nOff, Unit: "ns", Samples: agg[spCertify].count}
	pl["check.examined"] = metric{Value: float64(traced.examined), Unit: "count"}
	pl["check.alloc_bytes_per_txn"] = metric{Value: float64(traced.certifyAlloc) / nOff, Unit: "B"}
	if tracedRate := certifyMetrics(traced, nOff, nOn, map[string]metric{}); rate > 0 {
		pl["trace_overhead_ratio"] = metric{Value: tracedRate / rate, Unit: "ratio"}
	}
	return nil
}

// certifyMetrics maps the certifiers' speed onto the end-to-end names.
// txs_per_sec is the rate at which both inputs are judged once each —
// (|H_off| + |H_on|) / (median Certify call + median monitor pass) — so
// a slowdown of either certifier moves it by that certifier's share of
// the time. txn_mean_us/txn_p50_us/txn_p99_us are the monitor's
// per-commit verdict latency, the certifier's counterpart of a
// transaction's latency.
func certifyMetrics(o *certifyOutcome, nOff, nOn float64, e2e map[string]metric) (rate float64) {
	if len(o.callSecs) == 0 || len(o.passSecs) == 0 {
		return 0
	}
	perCall, perPass := make([]float64, len(o.callSecs)), make([]float64, len(o.passSecs))
	for i, s := range o.callSecs {
		perCall[i] = nOff / s
	}
	for i, s := range o.passSecs {
		perPass[i] = nOn / s
	}
	medCall, medPass := median(o.callSecs), median(o.passSecs)
	e2e["offline_certify_txs_per_sec"] = metric{Value: nOff / medCall, Unit: "1/s", Windows: perCall, Samples: len(perCall)}
	e2e["monitor_commits_per_sec"] = metric{Value: nOn / medPass, Unit: "1/s", Windows: perPass, Samples: len(perPass)}
	var both []float64
	for i := 0; i < min(len(o.callSecs), len(o.passSecs)); i++ {
		both = append(both, (nOff+nOn)/(o.callSecs[i]+o.passSecs[i]))
	}
	rate = (nOff + nOn) / (medCall + medPass)
	e2e["txs_per_sec"] = metric{Value: rate, Unit: "1/s", Windows: both, Samples: len(o.callSecs) + len(o.passSecs)}
	if m, ok := o.verdict.meanMetric(); ok {
		e2e["txn_mean_us"] = m
	}
	for name, q := range map[string]float64{"txn_p50_us": 0.5, "txn_p99_us": 0.99} {
		if m, ok := o.verdict.latencyMetric(q); ok {
			e2e[name] = m
		}
	}
	return rate
}
