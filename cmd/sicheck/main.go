// Command sicheck certifies a transactional history against
// serializability, snapshot isolation, parallel snapshot isolation,
// prefix consistency and generalised SI, using the dependency-graph
// characterisations of Cerone & Gotsman (PODC 2016) and the extension
// characterisations this module derives with the same technique.
//
// Usage:
//
//	sicheck [-model all|ser|si|psi|pc|gsi] [-init-value N] [-budget N]
//	        [-witness] [-classify] [-dot out.dot] [-window N]
//	        [-follow] [-idle-exit D] [-trace] [-metrics file|-]
//	        [-serve addr] [history.json|events.ndjson]
//
// The input (the file argument or standard input) is a JSON history
// document (schema in internal/histio), certified once per model by
// check.Certify (or named by check.Classify with -classify), or an
// NDJSON event stream (as sibench -record writes), fed to one
// internal/monitor per model, which prints violations as it finds them;
// -window N bounds its live transactions at the cost of definitive
// rejections. The kind is detected from the first bytes. An input whose
// first transaction is named "init" carries its own initial state;
// otherwise every object starts at -init-value. -follow polls a growing
// file until -idle-exit passes without input. -trace, -metrics and
// -serve are internal/cliutil's; /verdicts carries each model's verdict
// and a stream's per-commit verdicts.
//
// Exit status 0 means the input is allowed by every requested model,
// 1 that some model rejects it, 2 a usage or processing error.
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"sian/internal/check"
	"sian/internal/cliutil"
	"sian/internal/depgraph"
	"sian/internal/dot"
	"sian/internal/histio"
	"sian/internal/model"
	"sian/internal/monitor"
	"sian/internal/obs/eventlog"
	"sian/internal/obs/obshttp"
	"sian/internal/obs/txtrace"
	"sian/internal/relation"
)

func main() {
	code, err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sicheck:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run executes the tool; it returns the process exit code and a usage
// or processing error (which maps to exit code 2).
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("sicheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modelFlag := fs.String("model", "all", "model to check: all, ser, si, psi, pc or gsi")
	initValue := fs.Int64("init-value", 0, "value every object holds before any write, unless the input's first transaction is named init")
	budget := fs.Int("budget", 0, "candidate dependency graphs to examine per certification (0 = one million)")
	witness := fs.Bool("witness", false, "document: print the witness dependency graph for members")
	dotOut := fs.String("dot", "", "document: write the first witness dependency graph as Graphviz DOT to this file ('-' for stdout)")
	classify := fs.Bool("classify", false, "document: name the anomaly class of the history across the model lattice")
	window := fs.Int("window", 0, "stream: collapse the oldest transactions beyond this many live ones (0 = keep all, exact verdicts)")
	follow := fs.Bool("follow", false, "keep polling a regular file as it grows (pipes follow naturally)")
	idleExit := fs.Duration("idle-exit", 0, "with -follow, stop after this long without new input (0 = never)")
	obsFlags := cliutil.RegisterObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	models, err := selectModels(*modelFlag)
	if err != nil {
		return 2, err
	}
	if fs.NArg() > 1 {
		return 2, fmt.Errorf("at most one input file expected, got %d args", fs.NArg())
	}
	var in io.Reader = stdin
	if name := fs.Arg(0); name != "" && name != "-" {
		f, err := os.Open(name)
		if err != nil {
			return 2, err
		}
		defer f.Close()
		in = f
	}
	if *follow {
		in = &followReader{r: in, poll: 100 * time.Millisecond, idle: *idleExit}
	}

	o, err := obsFlags.Start("sicheck", stderr)
	if err != nil {
		return 2, err
	}
	tr, finish := o.Begin("sicheck", stdout, stderr)
	br := bufio.NewReader(in)
	doc := isDocument(br)
	if err := checkModeFlags(fs, doc); err != nil {
		return finish(2, err)
	}
	if !doc {
		cfg := monitor.Config{Window: *window, Budget: *budget, InitValue: model.Value(*initValue), Metrics: o.Registry}
		return finish(certifyStream(br, models, cfg, stdout, o, tr))
	}
	h, err := histio.DecodeHistory(br)
	if err != nil {
		return finish(2, err)
	}
	opts := check.Options{InitValue: model.Value(*initValue), Budget: *budget, Trace: tr, Metrics: o.Registry}
	if h.NumTransactions() > 0 && h.Transaction(0).ID == model.InitTransactionID {
		// The document carries its own init: pin it, add none.
		opts.NoInit, opts.PinInit = true, true
	}
	if *classify {
		rep, err := check.Classify(h, opts)
		if err != nil {
			return finish(2, err)
		}
		fmt.Fprintf(stdout, "classification: %v\n", rep.Anomaly)
		if rep.Anomaly == check.Serializable {
			return finish(0, nil)
		}
		return finish(1, nil)
	}

	exit := 0
	for _, m := range models {
		res, err := check.Certify(h, m, opts)
		if err != nil {
			return finish(2, fmt.Errorf("%v: %w", m, err))
		}
		exit = max(exit, printVerdict(stdout, m, res.Member, fmt.Sprintf("%d candidate graphs examined", res.Examined), res.Explain))
		_ = o.Server.PublishVerdict(finalVerdict(m, res.Member, true, res.Explain)) // a VerdictEvent always marshals
		if res.Member && *witness {
			printGraph(stdout, res.Graph)
		}
		if res.Member && *dotOut != "" {
			if err := writeDot(*dotOut, stdout, res.Graph); err != nil {
				return finish(2, err)
			}
			*dotOut = "" // the first witness only
		}
		tr.Mark("output")
	}
	return finish(exit, nil)
}

// certifyStream feeds an NDJSON event stream to one monitor per model,
// configured as cfg, printing violations as the monitors report them
// and each model's verdict at end of stream.
func certifyStream(in io.Reader, models []depgraph.Model, cfg monitor.Config, stdout io.Writer, o *cliutil.Obs, tr *txtrace.Trace) (int, error) {
	// While serving, re-record the ingested stream for /events.
	var rec *eventlog.Recorder
	if o.Server != nil {
		rec = eventlog.NewRecorder(0)
		o.Server.SetRecorder(rec)
	}
	cfg.OnViolation = func(v monitor.Violation) { fmt.Fprintln(stdout, v) }
	mons := make([]*monitor.Monitor, len(models))
	for i, m := range models {
		cfg.Model = m
		mons[i] = monitor.New(cfg)
	}
	sc := histio.NewEventScanner(in)
	for ev, err := sc.Next(); err != io.EOF; ev, err = sc.Next() {
		if err != nil {
			return 2, err
		}
		rec.Record(ev)
		for i, mon := range mons {
			if v := mon.Ingest(ev); v != nil && o.Server != nil {
				ve := obshttp.VerdictEvent{Seq: v.Seq, Txn: v.Txn, Model: models[i].String(), Member: v.Member, Checked: v.Checked, Window: v.Window, Pending: v.Pending}
				if x := v.Violation; x != nil {
					ve.Violation = &obshttp.ViolationEvent{Axiom: x.Axiom, Cycle: x.Cycle, Detail: x.Detail, Definitive: x.Definitive}
				}
				_ = o.Server.PublishVerdict(ve)
			}
		}
	}
	tr.Mark("ingest")
	exit := 0
	for i, mon := range mons {
		rep, err := mon.Finish()
		if err != nil {
			return 2, fmt.Errorf("%v: %w", models[i], err)
		}
		tr.Mark("finish")
		detail := fmt.Sprintf("%d events, %d commits, %d collapsed, window %d, %d pending reads, %d recertifications, %d violations",
			rep.Events, rep.Commits, rep.GCd, mon.Window(), rep.Pending, rep.Rechecks, len(rep.Violations))
		if !rep.Definitive {
			detail += "; non-definitive: context beyond the window was collapsed"
		}
		exit = max(exit, printVerdict(stdout, models[i], rep.Member, detail, rep.Final))
		ve := finalVerdict(models[i], rep.Member, rep.Definitive, rep.Final)
		ve.Window, ve.Pending = mon.Window(), rep.Pending
		_ = o.Server.PublishVerdict(ve)
		tr.Mark("output")
	}
	return exit, nil
}

// isDocument reports whether br holds a history document rather than an
// event stream. It decides from the bytes the first read delivers, and
// reads more only while they are blank or a proper prefix of `{"sessions"`,
// so a short stream on a pipe that stays open is certified as it arrives.
func isDocument(br *bufio.Reader) bool {
	const ws, key = " \t\r\n", `"sessions"`
	prefix, err := br.Peek(1)
	for ; err == nil; prefix, err = br.Peek(len(prefix) + 1) {
		prefix, _ = br.Peek(br.Buffered())
		head := bytes.TrimLeft(prefix, ws)
		rest, open := bytes.CutPrefix(head, []byte("{"))
		rest = bytes.TrimLeft(rest, ws)
		undecided := len(head) == 0 || open && len(rest) < len(key) && strings.HasPrefix(key, string(rest))
		if !undecided {
			break
		}
	}
	return histio.LooksLikeHistory(prefix)
}

// needsDoc tells, for each flag only one kind of input honours, whether it needs a document.
var needsDoc = map[string]bool{"classify": true, "witness": true, "dot": true, "window": false}

// checkModeFlags rejects a flag given on the command line that the
// detected kind of input cannot honour.
func checkModeFlags(fs *flag.FlagSet, doc bool) (err error) {
	kind := map[bool]string{true: "a history document", false: "an event stream"}[doc]
	fs.Visit(func(f *flag.Flag) {
		if d, ok := needsDoc[f.Name]; ok && d != doc {
			err = fmt.Errorf("-%s does not apply to %s", f.Name, kind)
		}
	})
	return err
}

// printVerdict prints a model's verdict line, with the mode's detail in
// parentheses, and explains a rejection: the violated axiom and, when
// available, the witnessing forbidden cycle. It returns the exit code.
func printVerdict(w io.Writer, m depgraph.Model, member bool, detail string, e *check.Explanation) int {
	if member {
		fmt.Fprintf(w, "%-4s ALLOWED (%s)\n", m, detail)
		return 0
	}
	fmt.Fprintf(w, "%-4s DISALLOWED (%s)\n", m, detail)
	if e == nil {
		return 1
	}
	fmt.Fprintf(w, "  explain: axiom %s\n", e.Axiom)
	if len(e.Cycle) > 0 && e.Graph != nil {
		fmt.Fprintf(w, "  forbidden cycle: %s\n", e.Graph.FormatCycle(e.Cycle))
	}
	if e.Detail != "" {
		fmt.Fprintf(w, "  detail: %s\n", e.Detail)
	}
	if !e.Definitive {
		fmt.Fprintln(w, "  (non-definitive: the search branched; the cycle explains one rejected candidate)")
	}
	return 1
}

// finalVerdict renders a model's settled verdict as the last /verdicts
// message of the run for that model; definitive is false when a
// monitor's window collapse makes the rejection one-sided.
func finalVerdict(m depgraph.Model, member, definitive bool, e *check.Explanation) obshttp.VerdictEvent {
	ve := obshttp.VerdictEvent{Txn: "(end of stream)", Model: m.String(), Member: member}
	if e != nil {
		ve.Violation = &obshttp.ViolationEvent{Axiom: e.Axiom, Detail: e.Detail, Definitive: e.Definitive && definitive}
		if len(e.Cycle) > 0 && e.Graph != nil {
			ve.Violation.Cycle = e.Graph.FormatCycle(e.Cycle)
		}
	}
	return ve
}

// writeDot emits the witness graph as DOT to the named file, or to
// stdout when the name is "-".
func writeDot(name string, stdout io.Writer, g *depgraph.Graph) error {
	if name == "-" {
		return dot.Graph(stdout, g)
	}
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	return errors.Join(dot.Graph(f, g), f.Close())
}

func selectModels(s string) ([]depgraph.Model, error) {
	all := depgraph.Models()
	if i := slices.IndexFunc(all, func(m depgraph.Model) bool { return strings.EqualFold(s, m.String()) }); i >= 0 {
		return all[i : i+1], nil
	}
	if s != "all" {
		return nil, fmt.Errorf("unknown model %q (want all, ser, si, psi, pc or gsi)", s)
	}
	return all, nil
}

func printGraph(w io.Writer, g *depgraph.Graph) {
	name := func(i int) string {
		if id := g.History.Transaction(i).ID; id != "" {
			return id
		}
		return fmt.Sprintf("#%d", i)
	}
	for _, x := range g.Objects() {
		for _, r := range []struct {
			kind string
			rel  *relation.Edges
		}{{"WR", g.WRObj(x)}, {"WW", g.WWObj(x)}, {"RW", g.RWObj(x)}} {
			for _, p := range r.rel.Pairs() {
				fmt.Fprintf(w, "  %s(%s): %s -> %s\n", r.kind, x, name(p[0]), name(p[1]))
			}
		}
	}
}

// followReader turns EOF into polling so a regular file can be tailed
// while a writer appends to it; with idle > 0 it returns io.EOF once
// that long passes without new data.
type followReader struct {
	r          io.Reader
	poll, idle time.Duration
}

func (f *followReader) Read(p []byte) (int, error) {
	for waited := time.Duration(0); ; waited += f.poll {
		if n, err := f.r.Read(p); n > 0 || (err != nil && err != io.EOF) {
			return n, err
		}
		if f.idle > 0 && waited >= f.idle {
			return 0, io.EOF
		}
		time.Sleep(f.poll)
	}
}
