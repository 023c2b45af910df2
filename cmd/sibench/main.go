// Command sibench exercises the reference transactional engines (SI,
// SER, PSI) with the built-in workloads, reports commit/conflict
// statistics, and optionally certifies the recorded history against
// the engine's own consistency model.
//
// Usage:
//
//	sibench -engine si|ser|psi|ssi -workload registers|writeskew|transfers|longfork|banking|smallbank|closedloop
//	        [-sessions N] [-txs N] [-ops N] [-objects N]
//	        [-hops N] [-chopped] [-seed N] [-certify]
//	        [-duration D] [-hotkeys N] [-disjoint]
//	        [-trace] [-metrics file|-] [-serve addr]
//	        [-record file.ndjson] [-timeline file.json]
//	        [-addr host:port]
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
// commit-latency and snapshot-age histograms, trace_stage_ns with
// -trace) on exit in Prometheus text format ('-' for stdout, *.json
// for JSON).
//
// -record attaches a flight recorder to the engine and dumps the
// transactional event stream as NDJSON on exit — feed it to sicheck for
// online certification. -record-cap bounds the recorder ring (older
// events are overwritten beyond it).
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
// the closed-loop workload with client-side conflict retry. -certify
// and -record are unavailable in network mode (there is no in-process
// engine).
//
// -trace traces the run (internal/obs/txtrace) and prints a per-stage
// p50/p99 table on stderr at exit. In-process it times every
// transaction's begin, validation, WAL append, fsync wait, publish and
// ack inside the engine, and the run itself: the workload, then -certify's
// check_* stages. Against -addr the client propagates its trace IDs
// inside the siwire frames, the server (siserve -trace) sends its
// pipeline spans back on the commit response, and each trace merges
// the client's wire round-trip spans with the server's pipeline spans;
// /trace/{id} on either side's -serve plane resolves the same IDs.
// -timeline turns tracing on and writes the retained traces as Chrome
// trace-event JSON (client, server and certifier tracks), loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Exit status 0 on success, 1 when -certify fails, 2 on usage or
// processing errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sian/internal/check"
	"sian/internal/cliutil"
	"sian/internal/depgraph"
	"sian/internal/engine"
	"sian/internal/histio"
	"sian/internal/model"
	"sian/internal/obs/eventlog"
	"sian/internal/obs/txtrace"
	"sian/internal/workload"
)

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
	hops         int
	chopped      bool
	seed         int64
	atomicLookup bool
	certify      bool
	recordOut    string
	timelineOut  string
	recordCap    int
	duration     time.Duration
	hotkeys      int
	disjoint     bool
	addr         string
}

func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("sibench", flag.ContinueOnError)
	engineFlag := fs.String("engine", "si", "engine: si, ser, psi or ssi")
	workloadFlag := fs.String("workload", "registers", "workload: registers, writeskew, transfers, longfork, banking, smallbank or closedloop")
	sessions := fs.Int("sessions", 4, "concurrent sessions")
	txs := fs.Int("txs", 0, "transactions per session, writeskew rounds or transfers per session (0 = the workload's default)")
	ops := fs.Int("ops", 3, "operations per transaction (registers, closedloop)")
	objects := fs.Int("objects", 0, "object pool size: registers and closedloop objects, transfers accounts, twice the smallbank customers (0 = the workload's default)")
	hops := fs.Int("hops", 4, "accounts per transfer (transfers)")
	chopped := fs.Bool("chopped", false, "run transfers chopped into one transaction per account")
	seed := fs.Int64("seed", 1, "workload seed")
	atomicLookup := fs.Bool("atomic-lookup", false, "banking: query both accounts in one transaction (the incorrect Figure 5 chopping)")
	certify := fs.Bool("certify", false, "certify the recorded history against the engine's model")
	recordOut := fs.String("record", "", "dump the transactional event stream as NDJSON to this file on exit")
	timelineOut := fs.String("timeline", "", "trace the run and write its timeline (Perfetto-loadable Chrome trace JSON) to this file on exit")
	recordCap := fs.Int("record-cap", 0, "flight-recorder ring capacity in events (0 = default)")
	duration := fs.Duration("duration", 0, "closedloop: bound the run by wall clock instead of -txs")
	hotkeys := fs.Int("hotkeys", 0, "closedloop: skew accesses onto the first N objects (contention)")
	disjoint := fs.Bool("disjoint", false, "closedloop: give every session a private object pool (no conflicts)")
	addrFlag := fs.String("addr", "", "drive a running siserve at this address over the siwire protocol instead of an in-process engine (closedloop only)")
	obsFlags := cliutil.RegisterObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}

	kind, m, err := selectEngine(*engineFlag)
	if err != nil {
		return 2, err
	}
	cfg := runConfig{
		engine: *engineFlag, kind: kind, model: m, workload: *workloadFlag,
		sessions: *sessions, txs: *txs, ops: *ops, objects: *objects, hops: *hops,
		chopped: *chopped, seed: *seed, atomicLookup: *atomicLookup, certify: *certify,
		recordOut: *recordOut, timelineOut: *timelineOut, recordCap: *recordCap,
		duration: *duration, hotkeys: *hotkeys, disjoint: *disjoint, addr: *addrFlag,
	}
	if cfg.addr != "" {
		// Network mode drives a remote server: there is no in-process
		// engine to certify or record, and the server picked its engine
		// at startup.
		if cfg.workload != "closedloop" {
			return 2, fmt.Errorf("-addr supports only -workload closedloop")
		}
		if cfg.certify || cfg.recordOut != "" {
			return 2, fmt.Errorf("-addr is incompatible with -certify and -record (no in-process engine)")
		}
		if cfg.engine != "si" {
			return 2, fmt.Errorf("-addr ignores -engine (the server chose at startup); leave it at the default")
		}
	}

	o, err := obsFlags.Start("sibench", stderr)
	if err != nil {
		return 2, err
	}
	code, err := cfg.execute(o, stdout, stderr)
	return o.Finish(code, err, stdout, stderr)
}

// execute runs the configured workload, in process or over the wire,
// then writes the recorder dump and the timeline.
func (cfg runConfig) execute(o *cliutil.Obs, stdout, stderr io.Writer) (int, error) {
	// The flight recorder feeds the -record dump and, while -serve is
	// up, the live /events tail.
	var rec *eventlog.Recorder
	if cfg.recordOut != "" || o.Server != nil {
		rec = eventlog.NewRecorder(cfg.recordCap)
		o.Server.SetRecorder(rec)
	}
	// -timeline draws traces, so it turns the tracer on the way -record
	// turns the recorder on.
	tracer := o.Tracer
	if tracer == nil && cfg.timelineOut != "" {
		tracer = txtrace.New(txtrace.Options{Metrics: o.Registry})
		o.Server.SetTxTracer(tracer)
	}

	exit, err := 0, error(nil)
	if cfg.addr != "" {
		err = cfg.runNetwork(o, tracer, stdout)
	} else {
		exit, err = cfg.runSingle(o, rec, tracer, stdout)
	}
	if err != nil {
		return 2, err
	}
	if cfg.recordOut != "" {
		events := rec.Events()
		if dropped := rec.Dropped(); dropped > 0 {
			fmt.Fprintf(stderr, "flight recorder: ring overwrote %d events; raise -record-cap for a full stream\n", dropped)
		}
		if err := writeFileWith(cfg.recordOut, func(w io.Writer) error {
			return histio.EncodeEvents(w, events)
		}); err != nil {
			return 2, fmt.Errorf("record: %w", err)
		}
		fmt.Fprintf(stdout, "recorded %d events to %s\n", len(events), cfg.recordOut)
	}
	if cfg.timelineOut != "" {
		traces := tracer.Finished(0)
		if err := writeFileWith(cfg.timelineOut, func(w io.Writer) error {
			return txtrace.WriteChromeTrace(w, traces)
		}); err != nil {
			return 2, fmt.Errorf("timeline: %w", err)
		}
		fmt.Fprintf(stdout, "timeline (%d traces) written to %s (load in ui.perfetto.dev)\n", len(traces), cfg.timelineOut)
	}
	return exit, nil
}

// runSingle executes one workload run against a fresh engine and
// returns its exit code. With a tracer, every transaction is traced,
// and so is the run: its workload stage, then -certify's check_*
// stages.
func (cfg runConfig) runSingle(o *cliutil.Obs, rec *eventlog.Recorder, tracer *txtrace.Tracer, stdout io.Writer) (int, error) {
	reg := o.Registry
	econf := engine.Config{Metrics: reg, Recorder: rec, TxTracer: tracer}
	if cfg.workload == "longfork" {
		econf.ManualPropagation = true
	}
	db, err := engine.New(cfg.kind, econf)
	if err != nil {
		return 2, err
	}
	defer db.Close()

	tr := tracer.Begin("sibench")
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
		out, err = workload.RunWriteSkew(db, cfg.txs)
		if err == nil {
			fmt.Fprintf(stdout, "write-skew anomalies: %d / %d rounds\n", out.Anomalies, out.Rounds)
		}
	case "transfers":
		var out *workload.TransferOutcome
		out, err = workload.RunTransfers(db, workload.TransferConfig{
			Sessions: cfg.sessions, Transfers: cfg.txs, Accounts: cfg.objects,
			Hops: cfg.hops, Chopped: cfg.chopped, Seed: cfg.seed,
		})
		if err == nil {
			fmt.Fprintf(stdout, "transfers: %d commits, %d conflict aborts\n", out.Commits, out.Conflicts)
		}
	case "longfork":
		if cfg.kind != engine.PSI {
			return 2, fmt.Errorf("workload longfork requires -engine psi")
		}
		h, err = workload.StageLongFork(db)
	case "closedloop":
		var out *workload.ClosedLoopOutcome
		out, err = workload.RunClosedLoop(db, cfg.closedLoop())
		if err == nil {
			fmt.Fprintf(stdout, "closedloop: %d commits, %d conflicts, %d retries in %v\n",
				out.Commits, out.Conflicts, out.Retries, out.Elapsed.Round(time.Microsecond))
		}
	case "smallbank":
		var out *workload.SmallBankOutcome
		out, err = workload.RunSmallBank(db, workload.SmallBankConfig{
			Customers: cfg.objects / 2, Sessions: cfg.sessions, TxPerSession: cfg.txs, Seed: cfg.seed,
		})
		if err == nil {
			fmt.Fprintf(stdout, "smallbank: %d operations, %d overdrawn customers\n", out.Operations, out.Overdrafts)
		}
	case "banking":
		h, err = workload.StageBankingChopped(db, cfg.atomicLookup)
		if err == nil {
			spliced, serr := check.Certify(h.Splice(), cfg.model, check.Options{NoInit: true, PinInit: true, Budget: 1_000_000})
			if serr != nil {
				return 2, serr
			}
			fmt.Fprintf(stdout, "spliced history allowed by %v: %v\n", cfg.model, spliced.Member)
		}
	default:
		return 2, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return 2, err
	}
	if h == nil {
		db.Flush()
		h = db.History()
	}
	elapsed := time.Since(start)
	tr.Mark("workload")

	stats := db.Stats()
	fmt.Fprintf(stdout, "engine=%s workload=%s commits=%d conflicts=%d aborts=%d retries=%d elapsed=%v\n",
		cfg.kind, cfg.workload, stats.Commits, stats.Conflicts, stats.Aborts, stats.Retries,
		elapsed.Round(time.Microsecond))
	fmt.Fprintf(stdout, "history: %d sessions, %d transactions\n", h.NumSessions(), h.NumTransactions())

	exit := 0
	if cfg.certify {
		res, err := check.Certify(h, cfg.model, check.Options{
			NoInit: true, PinInit: true, Budget: 10_000_000, Trace: tr, Metrics: reg,
		})
		if err != nil {
			return 2, fmt.Errorf("certify: %w", err)
		}
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

	tr.Finish(cliutil.Outcome(exit, nil), 0)
	return exit, nil
}

// closedLoop is the closed-loop configuration the flags select, in
// process and over the wire alike.
func (cfg runConfig) closedLoop() workload.ClosedLoopConfig {
	return workload.ClosedLoopConfig{
		Sessions: cfg.sessions, Ops: cfg.txs, OpsPerTx: cfg.ops, Objects: cfg.objects,
		Duration: cfg.duration, HotKeys: cfg.hotkeys, Disjoint: cfg.disjoint, Seed: cfg.seed,
	}
}

// writeFileWith creates path and streams fn's output into it.
func writeFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(fn(f), f.Close())
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
