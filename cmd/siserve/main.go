// Command siserve is the networked transactional KV server: the
// multicore SI engine behind the siwire binary protocol
// (internal/siwire), with commits made durable through the WAL storage
// driver (internal/storage/wal) and startup recovery certified by the
// online SI monitor.
//
// Usage:
//
//	siserve -dir waldir [-addr host:port] [-nosync] [-snapshot-every N]
//	        [-window N] [-check-recovery] [-volatile] [-trace-txns]
//	        [-trace] [-metrics file|-] [-serve addr]
//
// On startup siserve replays the write-ahead log in -dir (creating it
// when empty), feeds every replayed commit through the online monitor,
// and prints the recovery summary. If the replayed history is NOT a
// member of SI — torn state, a corrupt snapshot, or a genuinely
// anomalous log — the server refuses to serve: it prints the witness
// violations and exits 1 rather than expose uncertified state.
// -check-recovery runs exactly that startup (replay + certification)
// and exits without serving: 0 when the state is certified, 1 when
// refused — the crash-recovery smoke check in CI is this flag.
//
// -addr is the binary-protocol listener (framing documented on package
// siwire). A client that received a commit ok owns a durable commit:
// the ok is sent only after the record is fsynced. -nosync trades that
// guarantee for speed (testing only); -volatile skips the WAL entirely
// and serves the in-memory driver.
//
// -serve mounts the live observability plane and adds the serving
// endpoints to it: POST /v1/transact and GET /v1/info (the HTTP/JSON
// fallback for clients without the binary codec), plus /healthz fields
// reporting the WAL fsync lag (appended minus synced LSN) and the
// startup recovery verdict.
//
// -trace-txns turns on per-transaction commit-pipeline tracing
// (internal/obs/txtrace): every transaction gets a trace ID (adopted
// from the client when the siwire begin carries one) and monotonic
// stage spans through begin, validation, WAL append, group-fsync wait,
// publish and ack. Finished traces are served on the observability
// plane at GET /trace/{id} and GET /slow, commit-latency histogram
// buckets carry trace-ID exemplars, and commit responses return the
// span tree to tracing clients. Off by default; when off the
// per-commit cost is a nil check.
//
// SIGINT/SIGTERM shut down gracefully: stop accepting, sever
// connections (their open transactions abort — nothing acknowledged is
// lost), fsync and close the log. Exit status 0 on clean shutdown, 1
// when recovery is refused, 2 on usage or I/O errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"

	"sian/internal/cliutil"
	"sian/internal/engine"
	"sian/internal/obs/eventlog"
	"sian/internal/obs/txtrace"
	"sian/internal/siwire"
	"sian/internal/storage"
	"sian/internal/storage/wal"
)

func main() {
	shutdown := make(chan os.Signal, 1)
	signal.Notify(shutdown, os.Interrupt, syscall.SIGTERM)
	code, err := run(os.Args[1:], os.Stdout, os.Stderr, shutdown)
	if err != nil {
		fmt.Fprintln(os.Stderr, "siserve:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run is the testable main: it returns the exit code, serving until a
// value arrives on shutdown.
func run(args []string, stdout, stderr io.Writer, shutdown <-chan os.Signal) (int, error) {
	fs := flag.NewFlagSet("siserve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7411", "binary-protocol listen address")
	dir := fs.String("dir", "", "write-ahead-log directory (created when empty)")
	volatile := fs.Bool("volatile", false, "serve the in-memory driver: no WAL, no durability")
	nosync := fs.Bool("nosync", false, "skip fsync on commit (testing only: acknowledged commits may be lost)")
	snapshotEvery := fs.Int("snapshot-every", 0, "snapshot + truncate the log every N records (0 = default, negative disables)")
	window := fs.Int("window", 0, "recovery certification monitor window (0 = default)")
	checkRecovery := fs.Bool("check-recovery", false, "replay and certify the log, then exit without serving (0 certified, 1 refused)")
	traceTxns := fs.Bool("trace-txns", false, "trace every transaction's commit-pipeline stages (served at /trace/{id} and /slow on the -serve plane)")
	obsFlags := cliutil.RegisterObsFlags(fs)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *volatile && (*dir != "" || *checkRecovery) {
		return 2, fmt.Errorf("-volatile is incompatible with -dir and -check-recovery")
	}
	if !*volatile && *dir == "" {
		return 2, fmt.Errorf("-dir is required (or pass -volatile for an in-memory server)")
	}

	o, err := obsFlags.Start("siserve", stderr)
	if err != nil {
		return 2, err
	}
	code, err := serve(serveConfig{
		addr: *addr, dir: *dir, volatile: *volatile, nosync: *nosync,
		snapshotEvery: *snapshotEvery, window: *window, checkRecovery: *checkRecovery,
		traceTxns: *traceTxns,
	}, o, stdout, stderr, shutdown)
	return o.Finish(code, err, stdout, stderr)
}

type serveConfig struct {
	addr          string
	dir           string
	volatile      bool
	nosync        bool
	snapshotEvery int
	window        int
	checkRecovery bool
	traceTxns     bool
}

func serve(cfg serveConfig, o *cliutil.Obs, stdout, stderr io.Writer, shutdown <-chan os.Signal) (int, error) {
	var (
		drv     storage.Driver
		wdrv    *wal.Driver
		durable bool
	)
	gitRev := headRev()
	if !cfg.volatile {
		var err error
		wdrv, err = wal.Open(wal.Options{
			Dir: cfg.dir, NoSync: cfg.nosync, SnapshotEvery: cfg.snapshotEvery,
			Window: cfg.window, Metrics: o.Registry,
		})
		var cerr *wal.CertifyError
		if errors.As(err, &cerr) {
			// Uncertified state: report the witness and refuse to serve.
			printRecovery(stdout, cerr.Info)
			fmt.Fprintf(stdout, "siserve: RECOVERY REFUSED: %s\n", cerr.Info.Verdict)
			for _, v := range cerr.Info.Violations {
				fmt.Fprintf(stdout, "  %s\n", v)
			}
			return 1, nil
		}
		if err != nil {
			return 2, err
		}
		printRecovery(stdout, wdrv.Recovery())
		drv, durable = wdrv, !cfg.nosync
		if cfg.checkRecovery {
			if err := wdrv.Close(); err != nil {
				return 2, err
			}
			fmt.Fprintln(stdout, "siserve: check-recovery ok")
			return 0, nil
		}
	} else {
		fmt.Fprintln(stdout, "siserve: volatile: serving the in-memory driver, commits are not durable")
	}

	var rec *eventlog.Recorder
	if o.Serving() {
		rec = eventlog.NewRecorder(0)
		o.SetRecorder(rec)
	}
	var txt *txtrace.Tracer
	if cfg.traceTxns {
		txt = txtrace.New(txtrace.Options{})
		o.SetTxTracer(txt)
		fmt.Fprintln(stdout, "siserve: transaction tracing on (/trace/{id}, /slow)")
	}
	db, err := engine.New(engine.SI, engine.Config{Driver: drv, Metrics: o.Registry, Recorder: rec, TxTracer: txt})
	if err != nil {
		return 2, err
	}
	defer db.Close()

	info := func() siwire.Info {
		doc := siwire.Info{Name: "siserve", Engine: "si", GitRev: gitRev, Durable: durable}
		if wdrv != nil {
			r, st := wdrv.Recovery(), wdrv.Stats()
			doc.RecoveryCertified = r.Certified
			doc.RecoveryVerdict = r.Verdict
			doc.RecoveredCommits = r.Commits
			doc.AppendedLSN = st.AppendedLSN
			doc.SyncedLSN = st.SyncedLSN
		}
		return doc
	}
	srv := siwire.NewServer(siwire.ServerConfig{DB: db, Info: info, Metrics: o.Registry})
	o.Handle("/v1/", srv.HTTPHandler())
	o.SetHealth(func() map[string]any {
		h := map[string]any{"durable": durable}
		if wdrv != nil {
			r, st := wdrv.Recovery(), wdrv.Stats()
			h["recovery_certified"] = r.Certified
			h["recovery_verdict"] = r.Verdict
			h["wal_appended_lsn"] = st.AppendedLSN
			h["wal_synced_lsn"] = st.SyncedLSN
			h["wal_fsync_lag"] = st.AppendedLSN - st.SyncedLSN
			h["wal_last_sync_unix_nano"] = st.LastSyncUnixNano
			h["wal_segment"] = st.Segment
			if st.SnapshotError != "" {
				h["wal_snapshot_error"] = st.SnapshotError
			}
		}
		return h
	})

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return 2, err
	}
	// The parent of a supervised run scans for this line to learn the
	// bound address (the crash-recovery smoke check relies on it).
	fmt.Fprintf(stdout, "siserve: listening on %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case sig := <-shutdown:
		fmt.Fprintf(stderr, "siserve: %v: shutting down\n", sig)
		if err := srv.Close(); err != nil {
			return 2, err
		}
		<-serveErr
	case err := <-serveErr:
		if err != nil {
			return 2, err
		}
	}
	if err := db.Close(); err != nil {
		return 2, err
	}
	fmt.Fprintln(stdout, "siserve: shut down cleanly")
	return 0, nil
}

// headRev is the git HEAD revision of the working directory for the
// info document, or "" when git or a checkout is missing.
func headRev() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// printRecovery reports the startup replay on one or two lines.
func printRecovery(w io.Writer, r wal.RecoveryInfo) {
	fmt.Fprintf(w, "siserve: recovery: %d commits (%d records, %d skipped) from %d segment(s), snapshot %d objects, max ts %d, last lsn %d\n",
		r.Commits, r.Records, r.Skipped, r.Segments, r.SnapshotObjects, r.MaxTS, r.LastLSN)
	if r.TruncatedBytes > 0 {
		fmt.Fprintf(w, "siserve: recovery: truncated %d bytes of torn log tail (never acknowledged)\n", r.TruncatedBytes)
	}
	fmt.Fprintf(w, "siserve: recovery: %s\n", r.Verdict)
}
