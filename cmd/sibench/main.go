// Command sibench exercises the reference transactional engines (SI,
// SER, PSI) with the built-in workloads, reports commit/conflict
// statistics, and optionally certifies the recorded history against
// the engine's own consistency model.
//
// Usage:
//
//	sibench -engine si|ser|psi|ssi -workload registers|writeskew|transfers|longfork|banking|smallbank|closedloop
//	        [-sessions N] [-txs N] [-ops N] [-objects N] [-rounds N]
//	        [-accounts N] [-hops N] [-chopped] [-seed N] [-certify]
//	        [-duration D] [-hotkeys N] [-disjoint] [-sweep 1,2,4]
//	        [-sweep-reps N] [-parallel N] [-trace] [-metrics file|-]
//	        [-bench-json file] [-ledger file.ndjson] [-compare file]
//	        [-compare-threshold F] [-serve addr] [-pprof addr]
//	        [-record file.ndjson] [-timeline file.json]
//	        [-addr host:port] [-trace-txns]
//
// The closedloop workload is the concurrent benchmark driver: one
// goroutine per session, each firing its next transaction the moment
// the previous one finishes. -disjoint gives each session a private
// object pool (the scaling workload); -hotkeys N skews accesses onto N
// shared objects (the contention workload); -duration bounds the run
// by wall clock instead of -txs. -sweep 1,2,4 repeats the workload at
// each GOMAXPROCS value against a fresh database and reports the
// scaling table (recorded under the sweep key of -bench-json).
//
// -metrics dumps the metrics registry (engine counters,
// commit-latency and snapshot-age histograms, phase durations) on
// exit in Prometheus text format ('-' for stdout, *.json for JSON).
// In a sweep the dump reflects the last point's registry (each point
// gets a fresh one). -trace prints per-phase timing lines on stderr.
// -bench-json writes a machine-readable benchmark summary
// (throughput, p50/p99 commit latency) to the named file. -pprof
// serves net/http/pprof on the given address (for example
// localhost:6060) for the duration of the run.
//
// -record attaches a flight recorder to the engine and dumps the
// transactional event stream as NDJSON on exit — feed it to simon for
// online certification. -timeline renders the same stream (plus the
// -trace certifier phases) as Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing. -record-cap bounds
// the recorder ring (older events are overwritten beyond it).
//
// -serve starts the live observability plane (internal/obs/obshttp)
// for the duration of the run: /metrics, /metrics.json, /healthz, an
// /events SSE tail of the flight recorder (attached automatically
// while serving), /timeline and /debug/pprof — so a long -duration or
// -sweep run can be watched from a browser or curl while in flight.
//
// -addr switches sibench into network client mode: instead of an
// in-process engine it drives a running siserve (cmd/siserve) over the
// siwire binary protocol, one client connection per session running
// the closed-loop workload with client-side conflict retry. The
// report then carries mode "network" and the server's git revision
// (from its info document), and -compare baselines match mode — a
// ledger shared between in-process and network runs always gates like
// against like. -certify, -sweep and -record are unavailable in
// network mode (there is no in-process engine); -timeline is available
// only together with -trace-txns, where it renders the merged
// client+server transaction traces instead of the engine event stream.
//
// -trace-txns traces every transaction's commit pipeline
// (internal/obs/txtrace) and prints a per-stage p50/p99 table after
// the run; the breakdown also lands in the bench report and ledger
// entry (stages field — old ledger lines parse unchanged, and
// -compare keeps gating only the headline throughput metrics).
// In-process it times begin, validation, WAL append, fsync wait,
// publish and ack inside the engine. Against -addr the client
// propagates its trace IDs inside the siwire frames, the server sends
// its pipeline spans back on the commit response, and each trace
// merges the client's wire round-trip spans with the server's
// pipeline spans — -timeline then writes the merged rows as
// Perfetto-loadable Chrome trace JSON, and /trace/{id} on either
// side's -serve plane resolves the same IDs. Incompatible with -sweep
// (each sweep point would need its own tracer; trace one point
// directly instead).
//
// -ledger appends the run's report plus provenance (git revision,
// host fingerprint, GOMAXPROCS) as one NDJSON line to the named run
// ledger. -compare loads a baseline — a ledger file (newest matching
// entry) or a single bench-report JSON like BENCH_sibench.json — and
// compares the fresh run's throughput metrics against it, printing a
// per-metric delta table; a gating metric falling more than
// -compare-threshold (fraction, default 0.3) below the baseline makes
// the run exit 1. The comparison runs before the -ledger append, so
// pointing both flags at the same file gates each run against the
// previous one. -sweep-reps N repeats every sweep point N times and
// records the median-throughput repetition, so one noisy run cannot
// poison the ledger or trip the gate.
//
// Exit status 0 on success, 1 when -certify fails or -compare finds a
// regression, 2 on usage or processing errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"sian/internal/check"
	"sian/internal/cliutil"
	"sian/internal/depgraph"
	"sian/internal/engine"
	"sian/internal/histio"
	"sian/internal/model"
	"sian/internal/obs"
	"sian/internal/obs/eventlog"
	"sian/internal/obs/ledger"
	"sian/internal/obs/txtrace"
	"sian/internal/workload"
)

// The bench report schema now lives in internal/obs/ledger so the run
// ledger and the -compare gate share it; these aliases keep the local
// names meaningful.
type benchReport = ledger.BenchReport

const benchSchema = ledger.BenchSchema

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sibench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// runConfig carries the parsed flag values through the run.
type runConfig struct {
	engine       string
	kind         engine.Kind
	model        depgraph.Model
	workload     string
	sessions     int
	txs          int
	ops          int
	objects      int
	rounds       int
	accounts     int
	hops         int
	transfers    int
	chopped      bool
	seed         int64
	atomicLookup bool
	certify      bool
	parallel     int
	benchJSON    string
	recordOut    string
	timelineOut  string
	recordCap    int
	duration     time.Duration
	hotkeys      int
	disjoint     bool
	sweep        string
	sweepReps    int
	ledgerPath   string
	comparePath  string
	compareThr   float64
	addr         string
	traceTxns    bool
	args         []string
}

// modeName is the report/baseline mode key: "network" when the run
// drives a remote siserve, "" for the in-process engine.
func (cfg runConfig) modeName() string {
	if cfg.addr != "" {
		return "network"
	}
	return ""
}

func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("sibench", flag.ContinueOnError)
	engineFlag := fs.String("engine", "si", "engine: si, ser, psi or ssi")
	workloadFlag := fs.String("workload", "registers", "workload: registers, writeskew, transfers, longfork, banking or smallbank")
	sessions := fs.Int("sessions", 4, "concurrent sessions")
	txs := fs.Int("txs", 50, "transactions per session (registers)")
	ops := fs.Int("ops", 3, "operations per transaction (registers)")
	objects := fs.Int("objects", 4, "object pool size (registers)")
	rounds := fs.Int("rounds", 50, "rounds (writeskew)")
	accounts := fs.Int("accounts", 8, "account pool size (transfers)")
	hops := fs.Int("hops", 4, "accounts per transfer (transfers)")
	transfers := fs.Int("transfers", 20, "transfers per session (transfers)")
	chopped := fs.Bool("chopped", false, "run transfers chopped into one transaction per account")
	seed := fs.Int64("seed", 1, "workload seed")
	atomicLookup := fs.Bool("atomic-lookup", false, "banking: query both accounts in one transaction (the incorrect Figure 5 chopping)")
	certify := fs.Bool("certify", false, "certify the recorded history against the engine's model")
	parallel := fs.Int("parallel", 0, "worker goroutines for the certification search (0 = one per CPU)")
	benchJSON := fs.String("bench-json", "", "write a machine-readable benchmark summary (JSON) to this file")
	recordOut := fs.String("record", "", "dump the transactional event stream as NDJSON to this file on exit")
	timelineOut := fs.String("timeline", "", "write a Chrome trace-event timeline (Perfetto-loadable JSON) to this file on exit")
	recordCap := fs.Int("record-cap", 0, "flight-recorder ring capacity in events (0 = default)")
	duration := fs.Duration("duration", 0, "closedloop: bound the run by wall clock instead of -txs")
	hotkeys := fs.Int("hotkeys", 0, "closedloop: skew accesses onto the first N objects (contention)")
	disjoint := fs.Bool("disjoint", false, "closedloop: give every session a private object pool (no conflicts)")
	sweepFlag := fs.String("sweep", "", "run the closedloop workload once per GOMAXPROCS value (e.g. 1,2,4) and report scaling")
	sweepReps := fs.Int("sweep-reps", 1, "repetitions per sweep point; the median-throughput rep is recorded")
	ledgerPath := fs.String("ledger", "", "append the run's report plus provenance to this NDJSON run ledger")
	comparePath := fs.String("compare", "", "compare the run against a baseline (run ledger or bench-report JSON); regressions exit 1")
	compareThr := fs.Float64("compare-threshold", 0.3, "tolerated fractional throughput loss for -compare before failing")
	addrFlag := fs.String("addr", "", "drive a running siserve at this address over the siwire protocol instead of an in-process engine (closedloop only)")
	traceTxns := fs.Bool("trace-txns", false, "trace every transaction's commit-pipeline stages and print the per-stage latency table (with -addr: merged client+server traces)")
	obsFlags := cliutil.RegisterObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}

	kind, m, err := selectEngine(*engineFlag)
	if err != nil {
		return 2, err
	}
	if *sweepFlag != "" && *workloadFlag != "closedloop" {
		return 2, fmt.Errorf("-sweep requires -workload closedloop")
	}
	if *sweepReps < 1 {
		return 2, fmt.Errorf("-sweep-reps must be >= 1")
	}
	if *compareThr < 0 || *compareThr >= 1 {
		return 2, fmt.Errorf("-compare-threshold must be in [0, 1)")
	}
	if *traceTxns && *sweepFlag != "" {
		return 2, fmt.Errorf("-trace-txns is incompatible with -sweep (trace a single point directly instead)")
	}
	if *addrFlag != "" {
		// Network mode drives a remote server: there is no in-process
		// engine to certify, record or sweep, and the server picked its
		// engine at startup.
		if *workloadFlag != "closedloop" {
			return 2, fmt.Errorf("-addr supports only -workload closedloop")
		}
		if *certify || *sweepFlag != "" || *recordOut != "" {
			return 2, fmt.Errorf("-addr is incompatible with -certify, -sweep and -record (no in-process engine)")
		}
		if *timelineOut != "" && !*traceTxns {
			return 2, fmt.Errorf("-addr supports -timeline only with -trace-txns (the merged client+server transaction timeline)")
		}
		if *engineFlag != "si" {
			return 2, fmt.Errorf("-addr ignores -engine (the server chose at startup); leave it at the default")
		}
	}
	cfg := runConfig{
		engine: *engineFlag, kind: kind, model: m, workload: *workloadFlag,
		sessions: *sessions, txs: *txs, ops: *ops, objects: *objects,
		rounds: *rounds, accounts: *accounts, hops: *hops, transfers: *transfers,
		chopped: *chopped, seed: *seed, atomicLookup: *atomicLookup,
		certify: *certify, parallel: *parallel, benchJSON: *benchJSON,
		recordOut: *recordOut, timelineOut: *timelineOut, recordCap: *recordCap,
		duration: *duration, hotkeys: *hotkeys, disjoint: *disjoint,
		sweep: *sweepFlag, sweepReps: *sweepReps,
		ledgerPath: *ledgerPath, comparePath: *comparePath, compareThr: *compareThr,
		addr: *addrFlag, traceTxns: *traceTxns, args: args,
	}

	o, err := obsFlags.Start("sibench", stderr)
	if err != nil {
		return 2, err
	}
	code, err := cfg.execute(o, stdout, stderr)
	return o.Finish(code, err, stdout, stderr)
}

// execute runs the configured workload (single run or sweep) and then
// the shared artifact pipeline: bench JSON, ledger append, baseline
// comparison, recorder dumps.
func (cfg runConfig) execute(o *cliutil.Obs, stdout, stderr io.Writer) (int, error) {
	// The flight recorder feeds -record / -timeline dumps and, while
	// -serve is up, the live /events tail and /timeline endpoint. In
	// network mode -timeline is the merged transaction-trace dump
	// (written by runNetwork itself), not a recorder snapshot.
	var rec *eventlog.Recorder
	if cfg.recordOut != "" || (cfg.timelineOut != "" && cfg.addr == "") || o.Serving() {
		rec = eventlog.NewRecorder(cfg.recordCap)
		o.SetRecorder(rec)
	}

	var (
		exit int
		rep  benchReport
		err  error
	)
	switch {
	case cfg.addr != "":
		exit, rep, err = cfg.runNetwork(o, stdout)
	case cfg.sweep != "":
		exit, rep, err = runSweep(cfg, o, rec, stdout)
	default:
		exit, rep, err = cfg.runSingle(o, rec, stdout)
	}
	if err != nil {
		return 2, err
	}

	if cfg.benchJSON != "" {
		if err := encodeBenchReport(cfg.benchJSON, rep); err != nil {
			return 2, err
		}
	}
	// Compare before the ledger append: when both flags name the same
	// file the run gates against the *previous* recorded run, not the
	// line it is about to write (self-comparison always passes).
	if cfg.comparePath != "" {
		code, err := cfg.compare(rep, stdout, stderr)
		if err != nil {
			return 2, err
		}
		if code > exit {
			exit = code
		}
	}
	if cfg.ledgerPath != "" {
		if err := ledger.Append(cfg.ledgerPath, ledger.NewEntry("sibench", cfg.args, rep)); err != nil {
			return 2, err
		}
		fmt.Fprintf(stdout, "ledger: appended %s/%s run to %s\n", rep.Engine, rep.Workload, cfg.ledgerPath)
	}

	if rec != nil {
		if code, err := cfg.dumpRecorder(rec, o, stdout, stderr); err != nil {
			return code, err
		}
	}
	return exit, nil
}

// compare loads the -compare baseline, prints the per-metric delta
// table, and returns exit 1 when a gating metric regressed beyond the
// threshold.
func (cfg runConfig) compare(rep benchReport, stdout, stderr io.Writer) (int, error) {
	base, desc, err := ledger.LoadBaseline(cfg.comparePath, cfg.engine, cfg.workload, cfg.modeName())
	if err != nil {
		return 2, err
	}
	if base.Engine != rep.Engine || base.Workload != rep.Workload || base.Mode != rep.Mode {
		fmt.Fprintf(stderr, "compare: baseline is %s/%s/%q but this run is %s/%s/%q — comparing anyway\n",
			base.Engine, base.Workload, base.Mode, rep.Engine, rep.Workload, rep.Mode)
	}
	fmt.Fprintf(stdout, "compare: baseline %s\n", desc)
	deltas, regressed := ledger.Compare(base, rep, cfg.compareThr)
	ledger.WriteDeltas(stdout, deltas)
	if regressed {
		fmt.Fprintf(stdout, "compare: REGRESSION — gating throughput fell more than %.0f%% below baseline\n", cfg.compareThr*100)
		return 1, nil
	}
	fmt.Fprintf(stdout, "compare: ok (threshold %.0f%%)\n", cfg.compareThr*100)
	return 0, nil
}

// dumpRecorder performs the -record / -timeline exit dumps.
func (cfg runConfig) dumpRecorder(rec *eventlog.Recorder, o *cliutil.Obs, stdout, stderr io.Writer) (int, error) {
	events := rec.Events()
	if dropped := rec.Dropped(); dropped > 0 {
		fmt.Fprintf(stderr, "flight recorder: ring overwrote %d events; raise -record-cap for a full stream\n", dropped)
	}
	if cfg.recordOut != "" {
		if err := writeFileWith(cfg.recordOut, func(w io.Writer) error {
			return histio.EncodeEvents(w, events)
		}); err != nil {
			return 2, fmt.Errorf("record: %w", err)
		}
		fmt.Fprintf(stdout, "recorded %d events to %s\n", len(events), cfg.recordOut)
	}
	if cfg.timelineOut != "" && cfg.addr == "" {
		if err := writeFileWith(cfg.timelineOut, func(w io.Writer) error {
			return eventlog.WriteChromeTrace(w, events, o.Tracer.Phases())
		}); err != nil {
			return 2, fmt.Errorf("timeline: %w", err)
		}
		fmt.Fprintf(stdout, "timeline written to %s (load in ui.perfetto.dev)\n", cfg.timelineOut)
	}
	return 0, nil
}

// runSingle executes one workload run against a fresh engine and
// returns its exit code and bench report.
func (cfg runConfig) runSingle(o *cliutil.Obs, rec *eventlog.Recorder, stdout io.Writer) (int, benchReport, error) {
	reg := o.Registry
	tr := o.Tracer
	econf := engine.Config{Metrics: reg, Recorder: rec}
	if cfg.workload == "longfork" {
		econf.ManualPropagation = true
	}
	var txt *txtrace.Tracer
	if cfg.traceTxns {
		txt = txtrace.New(txtrace.Options{})
		econf.TxTracer = txt
		o.SetTxTracer(txt)
	}
	db, err := engine.New(cfg.kind, econf)
	if err != nil {
		return 2, benchReport{}, err
	}
	defer db.Close()

	doneWorkload := tr.Phase("workload")
	start := time.Now()
	var h *model.History
	switch cfg.workload {
	case "registers":
		h, err = workload.RunRegisters(db, workload.RegistersConfig{
			Sessions: cfg.sessions, TxPerSession: cfg.txs, OpsPerTx: cfg.ops,
			Objects: cfg.objects, Seed: cfg.seed,
		})
	case "writeskew":
		var out *workload.WriteSkewOutcome
		out, err = workload.RunWriteSkew(db, cfg.rounds)
		if err == nil {
			fmt.Fprintf(stdout, "write-skew anomalies: %d / %d rounds\n", out.Anomalies, out.Rounds)
			db.Flush()
			h = db.History()
		}
	case "transfers":
		var out *workload.TransferOutcome
		out, err = workload.RunTransfers(db, workload.TransferConfig{
			Sessions: cfg.sessions, Transfers: cfg.transfers, Accounts: cfg.accounts,
			Hops: cfg.hops, Chopped: cfg.chopped, Seed: cfg.seed,
		})
		if err == nil {
			fmt.Fprintf(stdout, "transfers: %d commits, %d conflict aborts\n", out.Commits, out.Conflicts)
			db.Flush()
			h = db.History()
		}
	case "longfork":
		if cfg.kind != engine.PSI {
			return 2, benchReport{}, fmt.Errorf("workload longfork requires -engine psi")
		}
		h, err = workload.StageLongFork(db)
	case "closedloop":
		var out *workload.ClosedLoopOutcome
		out, err = workload.RunClosedLoop(db, workload.ClosedLoopConfig{
			Sessions: cfg.sessions, Ops: cfg.txs, OpsPerTx: cfg.ops, Objects: cfg.objects,
			Duration: cfg.duration, HotKeys: cfg.hotkeys, Disjoint: cfg.disjoint, Seed: cfg.seed,
		})
		if err == nil {
			fmt.Fprintf(stdout, "closedloop: %d commits, %d conflicts, %d retries in %v\n",
				out.Commits, out.Conflicts, out.Retries, out.Elapsed.Round(time.Microsecond))
			db.Flush()
			h = db.History()
		}
	case "smallbank":
		var out *workload.SmallBankOutcome
		out, err = workload.RunSmallBank(db, workload.SmallBankConfig{
			Customers: cfg.accounts / 2, Sessions: cfg.sessions, TxPerSession: cfg.txs, Seed: cfg.seed,
		})
		if err == nil {
			fmt.Fprintf(stdout, "smallbank: %d operations, %d overdrawn customers\n", out.Operations, out.Overdrafts)
			db.Flush()
			h = db.History()
		}
	case "banking":
		h, err = workload.StageBankingChopped(db, cfg.atomicLookup)
		if err == nil {
			spliced, serr := check.Certify(h.Splice(), cfg.model, check.Options{
				NoInit: true, PinInit: true, Budget: 1_000_000,
				Parallelism: cfg.parallel,
			})
			if serr != nil {
				return 2, benchReport{}, serr
			}
			fmt.Fprintf(stdout, "spliced history allowed by %v: %v\n", cfg.model, spliced.Member)
		}
	default:
		return 2, benchReport{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return 2, benchReport{}, err
	}
	elapsed := time.Since(start)
	doneWorkload()

	stats := db.Stats()
	fmt.Fprintf(stdout, "engine=%s workload=%s commits=%d conflicts=%d aborts=%d retries=%d elapsed=%v\n",
		cfg.kind, cfg.workload, stats.Commits, stats.Conflicts, stats.Aborts, stats.Retries,
		elapsed.Round(time.Microsecond))
	fmt.Fprintf(stdout, "history: %d sessions, %d transactions\n", h.NumSessions(), h.NumTransactions())

	exit := 0
	var certifyDur time.Duration
	certifyExamined := 0
	if cfg.certify {
		certifyStart := time.Now()
		res, err := check.Certify(h, cfg.model, check.Options{
			NoInit: true, PinInit: true, Budget: 10_000_000,
			Parallelism: cfg.parallel, Tracer: tr, Metrics: reg,
		})
		certifyDur = time.Since(certifyStart)
		if err != nil {
			return 2, benchReport{}, fmt.Errorf("certify: %w", err)
		}
		certifyExamined = res.Examined
		switch {
		case res.Member:
			fmt.Fprintf(stdout, "history certified %v (%d candidate graphs examined)\n", cfg.model, res.Examined)
		default:
			fmt.Fprintf(stdout, "CERTIFICATION FAILED: history not allowed by %v\n", cfg.model)
			if res.Explain != nil {
				fmt.Fprintf(stdout, "  explain: %s\n", res.Explain)
			}
			exit = 1
		}
	}

	rep := cfg.buildReport(elapsed, certifyDur, certifyExamined, stats, reg)
	if txt != nil {
		stages := txt.StageLatencies()
		printStageTable(stdout, stages)
		rep.Stages = ledgerStages(stages)
	}
	return exit, rep, nil
}

// buildReport assembles the machine-readable summary of a single run
// from the engine stats and the run's metrics registry.
func (cfg runConfig) buildReport(elapsed, certifyDur time.Duration, certifyExamined int, stats engine.Stats, reg *obs.Registry) benchReport {
	lbl := obs.L("engine", cfg.kind.String())
	commitLat := reg.Histogram("engine_commit_latency_ns", lbl)
	snapAge := reg.Histogram("engine_snapshot_age_ns", lbl)
	rep := benchReport{
		Schema:             benchSchema,
		Engine:             cfg.engine,
		Workload:           cfg.workload,
		Sessions:           cfg.sessions,
		CPUs:               runtime.NumCPU(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		ElapsedNS:          elapsed.Nanoseconds(),
		Commits:            stats.Commits,
		Conflicts:          stats.Conflicts,
		Aborts:             stats.Aborts,
		Retries:            stats.Retries,
		P50CommitLatencyNS: commitLat.Quantile(0.50),
		P99CommitLatencyNS: commitLat.Quantile(0.99),
		P50SnapshotAgeNS:   snapAge.Quantile(0.50),
		P99SnapshotAgeNS:   snapAge.Quantile(0.99),
	}
	if certifyExamined > 0 {
		rep.CertifyParallelism = cfg.parallel
		if cfg.parallel <= 0 {
			rep.CertifyParallelism = runtime.GOMAXPROCS(0)
		}
		rep.CertifyNS = certifyDur.Nanoseconds()
		rep.CertifyExamined = certifyExamined
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rep.TxsPerSec = float64(stats.Commits) / secs
	}
	return rep
}

// writeFileWith creates path and streams fn's output into it.
func writeFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// encodeBenchReport writes a benchReport as indented JSON.
func encodeBenchReport(path string, rep benchReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func selectEngine(s string) (engine.Kind, depgraph.Model, error) {
	switch s {
	case "si":
		return engine.SI, depgraph.SI, nil
	case "ser":
		return engine.SER, depgraph.SER, nil
	case "psi":
		return engine.PSI, depgraph.PSI, nil
	case "ssi":
		// SSI guarantees serializable histories; certify against SER.
		return engine.SSI, depgraph.SER, nil
	default:
		return 0, 0, fmt.Errorf("unknown engine %q (want si, ser, psi or ssi)", s)
	}
}
