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
//	        [-duration D] [-hotkeys N] [-disjoint] [-parallel N]
//	        [-trace] [-metrics file|-] [-bench-json file]
//	        [-serve addr]
//	        [-record file.ndjson] [-timeline file.json]
//	        [-addr host:port] [-trace-txns]
//
// The closedloop workload is the concurrent driver: one goroutine per
// session, each firing its next transaction the moment the previous
// one finishes. -disjoint gives each session a private object pool
// (the scaling workload); -hotkeys N skews accesses onto N shared
// objects (the contention workload); -duration bounds the run by wall
// clock instead of -txs. sibench is the interactive driver; the
// repository's benchmark is benchmark/ (BENCHMARK.json).
//
// -metrics dumps the metrics registry (engine counters,
// commit-latency and snapshot-age histograms, phase durations) on
// exit in Prometheus text format ('-' for stdout, *.json for JSON).
// -trace prints per-phase timing lines on stderr.
// -bench-json writes a machine-readable benchmark summary
// (throughput, p50/p99 commit latency) to the named file.
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
// while serving), /timeline and /debug/pprof — so a long -duration
// run can be watched from a browser or curl while in flight.
//
// -addr switches sibench into network client mode: instead of an
// in-process engine it drives a running siserve (cmd/siserve) over the
// siwire binary protocol, one client connection per session running
// the closed-loop workload with client-side conflict retry. The
// report then carries mode "network" and the server's git revision
// (from its info document). -certify and -record are unavailable in
// network mode (there is no in-process engine); -timeline is available
// only together with -trace-txns, where it renders the merged
// client+server transaction traces instead of the engine event stream.
//
// -trace-txns traces every transaction's commit pipeline
// (internal/obs/txtrace) and prints a per-stage p50/p99 table after
// the run; the breakdown also lands in the bench report (stages field).
// In-process it times begin, validation, WAL append, fsync wait,
// publish and ack inside the engine. Against -addr the client
// propagates its trace IDs inside the siwire frames, the server sends
// its pipeline spans back on the commit response, and each trace
// merges the client's wire round-trip spans with the server's
// pipeline spans — -timeline then writes the merged rows as
// Perfetto-loadable Chrome trace JSON, and /trace/{id} on either
// side's -serve plane resolves the same IDs.
//
// Exit status 0 on success, 1 when -certify fails, 2 on usage or
// processing errors.
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
	"sian/internal/obs/txtrace"
	"sian/internal/workload"
)

// benchSchema versions the -bench-json report. v3 dropped v2's sweep,
// checker_bench and note fields.
const benchSchema = "sibench/v3"

// benchReport is the machine-readable summary -bench-json writes, one
// JSON object per run. Latency quantiles come from the engine's
// log-scale commit-latency histogram (in network mode: the client's
// commit round trips).
type benchReport struct {
	Schema   string `json:"schema"`
	Engine   string `json:"engine"`
	Workload string `json:"workload"`
	// Mode is "network" for a run driven against a siserve over siwire
	// (-addr), absent for the in-process engine.
	Mode string `json:"mode,omitempty"`
	// ServerRev is the serving binary's git revision from the server's
	// info document: the build actually measured in network mode.
	ServerRev          string  `json:"server_rev,omitempty"`
	Sessions           int     `json:"sessions"`
	CPUs               int     `json:"cpus"`
	GOMAXPROCS         int     `json:"gomaxprocs"`
	ElapsedNS          int64   `json:"elapsed_ns"`
	Commits            int64   `json:"commits"`
	Conflicts          int64   `json:"conflicts"`
	Aborts             int64   `json:"aborts"`
	Retries            int64   `json:"retries"`
	TxsPerSec          float64 `json:"txs_per_sec"`
	P50CommitLatencyNS float64 `json:"p50_commit_latency_ns"`
	P99CommitLatencyNS float64 `json:"p99_commit_latency_ns"`
	P50SnapshotAgeNS   float64 `json:"p50_snapshot_age_ns"`
	P99SnapshotAgeNS   float64 `json:"p99_snapshot_age_ns"`

	// Certification fields are present when -certify ran.
	CertifyParallelism int   `json:"certify_parallelism,omitempty"`
	CertifyNS          int64 `json:"certify_ns,omitempty"`
	CertifyExamined    int   `json:"certify_examined,omitempty"`

	// Stages is the per-stage latency breakdown of a -trace-txns run,
	// in pipeline order; absent on untraced runs.
	Stages []txtrace.StageLatency `json:"stages,omitempty"`
}

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
	addr         string
	traceTxns    bool
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
	if *addrFlag != "" {
		// Network mode drives a remote server: there is no in-process
		// engine to certify or record, and the server picked its engine
		// at startup.
		if *workloadFlag != "closedloop" {
			return 2, fmt.Errorf("-addr supports only -workload closedloop")
		}
		if *certify || *recordOut != "" {
			return 2, fmt.Errorf("-addr is incompatible with -certify and -record (no in-process engine)")
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
		addr: *addrFlag, traceTxns: *traceTxns,
	}

	o, err := obsFlags.Start("sibench", stderr)
	if err != nil {
		return 2, err
	}
	code, err := cfg.execute(o, stdout, stderr)
	return o.Finish(code, err, stdout, stderr)
}

// execute runs the configured workload, in process or over the wire,
// then writes the bench JSON and the recorder dumps.
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
	if cfg.addr != "" {
		exit, rep, err = cfg.runNetwork(o, stdout)
	} else {
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
	if rec != nil {
		if code, err := cfg.dumpRecorder(rec, o, stdout, stderr); err != nil {
			return code, err
		}
	}
	return exit, nil
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
		rep.Stages = stages
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
