package main

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"sian/internal/cliutil"
	"sian/internal/obs"
	"sian/internal/obs/txtrace"
	"sian/internal/siwire"
	"sian/internal/workload"
)

// runNetwork drives the closed-loop workload against a running siserve
// over the siwire binary protocol: workload.ClosedLoopConfig.Drive, the
// loop RunClosedLoop runs in process, over one client connection per
// session, with the standard client-side conflict retry. The commits
// land on the server's engine, and the latency histogram holds
// client-observed commit round trips (wire plus fsync), not
// engine-internal commit latencies.
func (cfg runConfig) runNetwork(o *cliutil.Obs, ct *txtrace.Tracer, stdout io.Writer) error {
	lc := cfg.closedLoop()
	probe, err := siwire.Dial(cfg.addr)
	if err != nil {
		return fmt.Errorf("network: %w", err)
	}
	info, err := probe.Info()
	if err != nil {
		probe.Close()
		return fmt.Errorf("network: info: %w", err)
	}
	// The full revision identifies the serving build this run measured.
	fmt.Fprintf(stdout, "network: server %s engine=%s durable=%v rev=%s\n",
		cfg.addr, info.Engine, info.Durable, info.GitRev)

	// Initialise every pool object to 0 in one transaction, like the
	// in-process runner does, so workload reads never hit an
	// uninitialised object.
	_, err = probe.Transact(func(tx *siwire.ClientTx) error {
		for _, x := range lc.Pool() {
			if err := tx.Write(x, 0); err != nil {
				return err
			}
		}
		return nil
	})
	probe.Close()
	if err != nil {
		return fmt.Errorf("network: initialising pool: %w", err)
	}

	commitLat := o.Registry.Histogram("siwire_client_commit_latency_ns", obs.L("mode", "network"))
	var commits, conflicts atomic.Int64
	var conns []*siwire.Client
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	out, err := lc.Drive(func(w int) (workload.Transactor, error) {
		c, err := siwire.Dial(cfg.addr)
		if err != nil {
			return nil, err
		}
		conns = append(conns, c)
		name := fmt.Sprintf("w%d", w)
		// One wire transaction, retried on conflict. With a tracer
		// every attempt carries a client-assigned trace ID across the
		// wire; the server's pipeline spans ride back on the commit
		// response and merge into the client's trace, so one span tree
		// covers the full round trip. Every txtrace call below is a
		// nil-safe no-op when tracing is off (ct nil ⇒ tr nil).
		return func(body func(workload.Tx) error) error {
			for {
				tr := ct.Begin(name)
				if err := c.BeginTraced(tr.ID()); err != nil {
					tr.Finish(txtrace.OutcomeError, 0)
					return err
				}
				tr.Mark(txtrace.StageWireBegin)
				err := body(c)
				tr.Mark(txtrace.StageWireOps)
				if err != nil {
					tr.Finish(txtrace.OutcomeAbort, 0)
					c.Abort()
					return err
				}
				t0 := time.Now()
				res, err := c.CommitTraced()
				switch {
				case err == nil:
					tr.Mark(txtrace.StageWireCommit)
					tr.AddSpans(res.ServerSpans)
					commitLat.ObserveExemplar(time.Since(t0).Nanoseconds(), tr.ID())
					tr.Finish(txtrace.OutcomeCommit, res.LSN)
					commits.Add(1)
					return nil
				case errors.Is(err, siwire.ErrConflict):
					tr.Finish(txtrace.OutcomeConflict, 0)
					conflicts.Add(1)
				default:
					tr.Finish(txtrace.OutcomeError, 0)
					return err
				}
			}
		}, nil
	})
	if err != nil {
		return fmt.Errorf("network: %w", err)
	}
	fmt.Fprintf(stdout, "network closedloop: %d commits, %d conflicts in %v\n",
		commits.Load(), conflicts.Load(), out.Elapsed.Round(time.Microsecond))
	return nil
}
