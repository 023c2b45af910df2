package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"sian/internal/check"
	"sian/internal/cliutil"
	"sian/internal/engine"
	"sian/internal/obs"
	"sian/internal/obs/eventlog"
	"sian/internal/obs/ledger"
	"sian/internal/workload"
)

// parseSweep parses a comma-separated GOMAXPROCS list like "1,2,4".
func parseSweep(spec string) ([]int, error) {
	var procs []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -sweep entry %q (want positive integers, e.g. 1,2,4)", f)
		}
		procs = append(procs, n)
	}
	return procs, nil
}

// repOutcome is one repetition of one sweep point: the recorded point
// plus the certification statistics needed for reporting.
type repOutcome struct {
	pt       ledger.SweepPoint
	examined int
}

// runSweep executes the closed-loop workload once (or -sweep-reps
// times) per GOMAXPROCS value in the sweep, each repetition against a
// fresh database and metrics registry, and reports a scaling table.
// With reps > 1 the recorded point is the repetition with median
// throughput, annotated with the spread — a single noisy run on a
// shared host can then neither poison the ledger nor trip the
// -compare gate. With -certify every repetition's recorded history is
// certified against the engine's model; a non-member history fails
// the sweep. The live plane (when serving) tracks the current
// repetition's registry.
func runSweep(cfg runConfig, o *cliutil.Obs, rec *eventlog.Recorder, stdout io.Writer) (int, ledger.BenchReport, error) {
	procsList, err := parseSweep(cfg.sweep)
	if err != nil {
		return 2, ledger.BenchReport{}, err
	}
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)

	exit := 0
	points := make([]ledger.SweepPoint, 0, len(procsList))
	for _, procs := range procsList {
		runtime.GOMAXPROCS(procs)
		outcomes := make([]repOutcome, 0, cfg.sweepReps)
		pointFailed := false
		for r := 0; r < cfg.sweepReps; r++ {
			reg := obs.NewRegistry()
			o.SetRegistry(reg)
			db, err := engine.New(cfg.kind, engine.Config{Metrics: reg, Recorder: rec})
			if err != nil {
				return 2, ledger.BenchReport{}, err
			}
			out, err := workload.RunClosedLoop(db, workload.ClosedLoopConfig{
				Sessions: cfg.sessions, Ops: cfg.txs, OpsPerTx: cfg.ops,
				Objects: cfg.objects, Duration: cfg.duration,
				HotKeys: cfg.hotkeys, Disjoint: cfg.disjoint, Seed: cfg.seed,
			})
			if err != nil {
				db.Close()
				return 2, ledger.BenchReport{}, fmt.Errorf("sweep procs=%d: %w", procs, err)
			}
			commitLat := reg.Histogram("engine_commit_latency_ns", obs.L("engine", cfg.kind.String()))
			oc := repOutcome{pt: ledger.SweepPoint{
				Procs:              procs,
				Sessions:           cfg.sessions,
				ElapsedNS:          out.Elapsed.Nanoseconds(),
				Commits:            out.Commits,
				Conflicts:          out.Conflicts,
				Retries:            out.Retries,
				P50CommitLatencyNS: commitLat.Quantile(0.50),
				P99CommitLatencyNS: commitLat.Quantile(0.99),
			}}
			if secs := out.Elapsed.Seconds(); secs > 0 {
				oc.pt.TxsPerSec = float64(out.Commits) / secs
			}
			if cfg.sweepReps > 1 {
				fmt.Fprintf(stdout, "  rep %d/%d procs=%d txs/sec=%.0f\n", r+1, cfg.sweepReps, procs, oc.pt.TxsPerSec)
			}
			if cfg.certify {
				db.Flush()
				res, cerr := check.Certify(db.History(), cfg.model, check.Options{
					NoInit: true, PinInit: true, Budget: 10_000_000, Parallelism: cfg.parallel,
				})
				if cerr != nil {
					db.Close()
					return 2, ledger.BenchReport{}, fmt.Errorf("sweep procs=%d certify: %w", procs, cerr)
				}
				if !res.Member {
					fmt.Fprintf(stdout, "CERTIFICATION FAILED at procs=%d: history not allowed by %v\n", procs, cfg.model)
					if res.Explain != nil {
						fmt.Fprintf(stdout, "  explain: %s\n", res.Explain)
					}
					exit = 1
					pointFailed = true
				}
				oc.examined = res.Examined
			}
			if err := db.Close(); err != nil {
				return 2, ledger.BenchReport{}, err
			}
			outcomes = append(outcomes, oc)
		}

		// Record the median-throughput repetition, annotated with the
		// spread when there was more than one.
		sort.Slice(outcomes, func(i, j int) bool { return outcomes[i].pt.TxsPerSec < outcomes[j].pt.TxsPerSec })
		med := outcomes[(len(outcomes)-1)/2]
		if cfg.sweepReps > 1 {
			med.pt.Reps = cfg.sweepReps
			med.pt.MinTxsPerSec = outcomes[0].pt.TxsPerSec
			med.pt.MaxTxsPerSec = outcomes[len(outcomes)-1].pt.TxsPerSec
		}
		points = append(points, med.pt)
		fmt.Fprintf(stdout, "sweep procs=%d sessions=%d commits=%d conflicts=%d retries=%d elapsed=%v txs/sec=%.0f\n",
			procs, cfg.sessions, med.pt.Commits, med.pt.Conflicts, med.pt.Retries,
			time.Duration(med.pt.ElapsedNS).Round(time.Microsecond), med.pt.TxsPerSec)
		if cfg.sweepReps > 1 {
			fmt.Fprintf(stdout, "  median of %d reps, spread %.0f..%.0f txs/sec\n",
				cfg.sweepReps, med.pt.MinTxsPerSec, med.pt.MaxTxsPerSec)
		}
		if cfg.certify && !pointFailed {
			fmt.Fprintf(stdout, "  history certified %v (%d candidate graphs examined)\n", cfg.model, med.examined)
		}
	}
	if len(points) > 1 {
		base := points[0]
		for _, pt := range points[1:] {
			if base.TxsPerSec > 0 {
				fmt.Fprintf(stdout, "scaling: procs=%d is %.2fx procs=%d\n",
					pt.Procs, pt.TxsPerSec/base.TxsPerSec, base.Procs)
			}
		}
	}

	rep := ledger.BenchReport{
		Schema:     benchSchema,
		Engine:     cfg.engine,
		Workload:   "closedloop",
		Sessions:   cfg.sessions,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: orig,
		Sweep:      points,
	}
	// Headline the best point so single-run consumers of the schema
	// still see throughput fields.
	best := points[0]
	for _, pt := range points[1:] {
		if pt.TxsPerSec > best.TxsPerSec {
			best = pt
		}
	}
	rep.ElapsedNS = best.ElapsedNS
	rep.Commits = best.Commits
	rep.Conflicts = best.Conflicts
	rep.Retries = best.Retries
	rep.TxsPerSec = best.TxsPerSec
	rep.P50CommitLatencyNS = best.P50CommitLatencyNS
	rep.P99CommitLatencyNS = best.P99CommitLatencyNS
	return exit, rep, nil
}
