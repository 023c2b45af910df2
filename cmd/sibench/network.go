package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sian/internal/cliutil"
	"sian/internal/model"
	"sian/internal/obs"
	"sian/internal/obs/txtrace"
	"sian/internal/siwire"
)

// runNetwork drives the closed-loop workload against a running siserve
// over the siwire binary protocol: one client connection per session,
// each firing the next read-modify-write transaction the moment the
// previous one finishes, with the standard client-side conflict retry.
// It is the network-mode twin of workload.RunClosedLoop — same pool
// naming (-objects, -disjoint, -hotkeys) and the same globally-unique
// written values — but the commits land on the server's engine, and
// the latency quantiles are client-observed commit round-trips (wire
// plus fsync), not engine-internal commit latencies. The report
// carries Mode "network" and the server's git revision.
func (cfg runConfig) runNetwork(o *cliutil.Obs, ct *txtrace.Tracer, stdout io.Writer) (int, benchReport, error) {
	const hotFraction = 800 // per-mille hot-set probability, as in workload.ClosedLoopConfig

	objName := func(worker, n int) model.Obj {
		if cfg.disjoint {
			return model.Obj(fmt.Sprintf("cl%d_%d", worker, n))
		}
		return model.Obj(fmt.Sprintf("cl%d", n))
	}
	pick := func(rng *rand.Rand) int {
		if !cfg.disjoint && cfg.hotkeys > 0 && rng.Intn(1000) < hotFraction {
			return rng.Intn(min(cfg.hotkeys, cfg.objects))
		}
		return rng.Intn(cfg.objects)
	}

	probe, err := siwire.Dial(cfg.addr)
	if err != nil {
		return 2, benchReport{}, fmt.Errorf("network: %w", err)
	}
	info, err := probe.Info()
	if err != nil {
		probe.Close()
		return 2, benchReport{}, fmt.Errorf("network: info: %w", err)
	}
	fmt.Fprintf(stdout, "network: server %s engine=%s durable=%v rev=%s\n",
		cfg.addr, info.Engine, info.Durable, shortRev(info.GitRev))

	// Initialise every pool object to 0 in one transaction, like the
	// in-process runner does, so workload reads never hit an
	// uninitialised object.
	pools := 1
	if cfg.disjoint {
		pools = cfg.sessions
	}
	if _, err := probe.Transact(func(tx *siwire.ClientTx) error {
		for w := 0; w < pools; w++ {
			for n := 0; n < cfg.objects; n++ {
				if err := tx.Write(objName(w, n), 0); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		probe.Close()
		return 2, benchReport{}, fmt.Errorf("network: initialising pool: %w", err)
	}
	probe.Close()

	commitLat := o.Registry.Histogram("siwire_client_commit_latency_ns", obs.L("mode", "network"))
	var counter, commits, conflicts atomic.Int64
	var stopFlag atomic.Bool
	if cfg.duration > 0 {
		timer := time.AfterFunc(cfg.duration, func() { stopFlag.Store(true) })
		defer timer.Stop()
	}

	errs := make([]error, cfg.sessions)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := siwire.Dial(cfg.addr)
			if err != nil {
				errs[w] = err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)*6364136223846793005))
			pool := 0
			if cfg.disjoint {
				pool = w
			}
			for n := 0; ; n++ {
				if cfg.duration > 0 {
					if stopFlag.Load() {
						return
					}
				} else if n >= cfg.txs {
					return
				}
				// One transaction, retried on conflict with a fresh
				// object draw — the same shape as Session.Transact.
				// With a tracer every transaction carries a
				// client-assigned trace ID across the wire; the
				// server's pipeline spans ride back on the commit
				// response and merge into the client's trace, so one
				// span tree covers the full round trip. Every txtrace
				// call below is a nil-safe no-op when tracing is off
				// (ct nil ⇒ tr nil).
				for {
					var tr *txtrace.Trace
					if ct != nil {
						tr = ct.Begin(fmt.Sprintf("w%d", w))
					}
					if err := c.BeginTraced(tr.ID()); err != nil {
						tr.Finish(txtrace.OutcomeError, 0)
						errs[w] = err
						return
					}
					tr.Mark(txtrace.StageWireBegin)
					ok := true
					for i := 0; i < cfg.ops; i++ {
						x := objName(pool, pick(rng))
						if _, err := c.Read(x); err != nil {
							errs[w] = fmt.Errorf("read %s: %w", x, err)
							ok = false
							break
						}
						if err := c.Write(x, model.Value(counter.Add(1))); err != nil {
							errs[w] = fmt.Errorf("write %s: %w", x, err)
							ok = false
							break
						}
					}
					tr.Mark(txtrace.StageWireOps)
					if !ok {
						tr.Finish(txtrace.OutcomeAbort, 0)
						c.Abort()
						return
					}
					t0 := time.Now()
					res, err := c.CommitTraced()
					if err == nil {
						tr.Mark(txtrace.StageWireCommit)
						tr.AddSpans(res.ServerSpans)
						commitLat.ObserveExemplar(time.Since(t0).Nanoseconds(), tr.ID())
						tr.Finish(txtrace.OutcomeCommit, res.LSN)
						commits.Add(1)
						break
					}
					if errors.Is(err, siwire.ErrConflict) {
						tr.Finish(txtrace.OutcomeConflict, 0)
						conflicts.Add(1)
						continue
					}
					tr.Finish(txtrace.OutcomeError, 0)
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 2, benchReport{}, fmt.Errorf("network: %w", err)
		}
	}

	fmt.Fprintf(stdout, "network closedloop: %d commits, %d conflicts in %v\n",
		commits.Load(), conflicts.Load(), elapsed.Round(time.Microsecond))
	rep := benchReport{
		Schema:             benchSchema,
		Engine:             info.Engine,
		Workload:           cfg.workload,
		Mode:               "network",
		ServerRev:          info.GitRev,
		Sessions:           cfg.sessions,
		CPUs:               runtime.NumCPU(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		ElapsedNS:          elapsed.Nanoseconds(),
		Commits:            commits.Load(),
		Conflicts:          conflicts.Load(),
		Retries:            conflicts.Load(), // every conflict costs exactly one retry here
		P50CommitLatencyNS: commitLat.Quantile(0.50),
		P99CommitLatencyNS: commitLat.Quantile(0.99),
	}
	if rep.Engine == "" {
		rep.Engine = cfg.engine
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rep.TxsPerSec = float64(rep.Commits) / secs
	}
	return 0, rep, nil
}

// shortRev abbreviates a git revision for log lines.
func shortRev(rev string) string {
	if len(rev) > 12 {
		return rev[:12]
	}
	if rev == "" {
		return "unknown"
	}
	return rev
}
