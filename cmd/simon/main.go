// Command simon is the online snapshot-isolation monitor: it tails a
// transactional event stream (NDJSON, as recorded by sibench -record
// or any eventlog dump) or a static history file, certifies it live
// against a consistency model, and streams violation verdicts as they
// are detected.
//
// Usage:
//
//	simon [-model ser|si|psi|pc|gsi] [-window N] [-budget N]
//	      [-parallel N] [-quiet] [-follow] [-idle-exit D]
//	      [-trace] [-metrics file|-] [-serve addr]
//	      [events.ndjson|history.json]
//
// The input is read from the file argument or standard input and
// auto-detected: a JSON history document (as consumed by sicheck) is
// replayed as a synthetic event stream; anything else is treated as
// NDJSON events. Reading from a pipe follows the writer naturally;
// -follow additionally keeps polling a regular file as it grows, and
// -idle-exit bounds how long -follow waits without new data before
// concluding the stream is complete (0 waits forever).
//
// -window N collapses the oldest committed transactions into a
// frontier once more than N are live, bounding memory for unbounded
// streams at the cost of definitive rejections (see internal/monitor).
// Violations print on stdout as they are found unless -quiet is set;
// a summary always follows at end of stream. -metrics dumps the
// monitor's metric registry on exit ('-' for stdout Prometheus, a
// *.json path for JSON).
//
// -serve starts the live observability plane (internal/obs/obshttp):
// while a -follow tail runs, /verdicts streams every per-commit
// verdict (and the end-of-stream summary) as SSE with witness-cycle
// explanations, /events re-serves the ingested event stream, and
// /metrics exposes the monitor's counters — so a long-lived monitor
// can itself be monitored.
//
// Exit status 0 when the stream is allowed by the model, 1 when it is
// not, 2 on usage or processing errors.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sian/internal/cliutil"
	"sian/internal/depgraph"
	"sian/internal/histio"
	"sian/internal/model"
	"sian/internal/monitor"
	"sian/internal/obs/eventlog"
	"sian/internal/obs/obshttp"
)

func main() {
	code, err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simon:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("simon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modelFlag := fs.String("model", "si", "model to certify against: ser, si, psi, pc or gsi")
	window := fs.Int("window", 0, "collapse the oldest transactions beyond this many live ones (0 = keep all, exact verdicts)")
	budget := fs.Int("budget", 0, "candidate budget per slow-path certification (0 = checker default)")
	parallel := fs.Int("parallel", 1, "worker goroutines for slow-path certifications")
	initValue := fs.Int64("init-value", 0, "value every object holds before any write")
	quiet := fs.Bool("quiet", false, "suppress live violation lines; print only the final summary")
	follow := fs.Bool("follow", false, "keep polling a regular file as it grows (pipes follow naturally)")
	idleExit := fs.Duration("idle-exit", 0, "with -follow, stop after this long without new events (0 = never)")
	obsFlags := cliutil.RegisterObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	m, err := parseModel(*modelFlag)
	if err != nil {
		return 2, err
	}
	var in io.Reader = stdin
	name := "stdin"
	switch fs.NArg() {
	case 0:
	case 1:
		if fs.Arg(0) != "-" {
			f, err := os.Open(fs.Arg(0))
			if err != nil {
				return 2, err
			}
			defer f.Close()
			in = f
			name = fs.Arg(0)
		}
	default:
		return 2, fmt.Errorf("at most one input file expected, got %d args", fs.NArg())
	}
	if *follow {
		in = &followReader{r: in, poll: 100 * time.Millisecond, idle: *idleExit}
	}
	o, err := obsFlags.Start("simon", stderr)
	if err != nil {
		return 2, err
	}

	code, rerr := func() (int, error) {
		// While serving, re-record the ingested stream so /events and
		// /timeline have something to tail.
		var rec *eventlog.Recorder
		if o.Serving() {
			rec = eventlog.NewRecorder(0)
			o.SetRecorder(rec)
		}
		mon := monitor.New(monitor.Config{
			Model:       m,
			Window:      *window,
			Budget:      *budget,
			Parallelism: *parallel,
			InitValue:   model.Value(*initValue),
			Metrics:     o.Registry,
			OnViolation: func(v monitor.Violation) {
				if !*quiet {
					fmt.Fprintln(stdout, v)
				}
			},
		})

		ingest := func(ev eventlog.Event) {
			rec.Record(ev)
			if v := mon.Ingest(ev); v != nil {
				o.PublishVerdict(verdictEvent(m, *v))
			}
		}
		br := bufio.NewReader(in)
		prefix, _ := br.Peek(512)
		if histio.LooksLikeHistory(prefix) {
			h, err := histio.DecodeHistory(br)
			if err != nil {
				return 2, err
			}
			for _, ev := range histio.HistoryToEvents(h) {
				ingest(ev)
			}
		} else {
			sc := histio.NewEventScanner(br)
			for {
				ev, serr := sc.Next()
				if serr == io.EOF {
					break
				}
				if serr != nil {
					return 2, serr
				}
				ingest(ev)
			}
		}

		rep, err := mon.Finish()
		if err != nil {
			return 2, err
		}
		o.PublishVerdict(summaryEvent(mon, rep))
		verdict := "allowed by"
		if !rep.Member {
			verdict = "NOT allowed by"
		}
		qualifier := ""
		if !rep.Definitive {
			qualifier = " (non-definitive: context beyond the window was collapsed)"
		}
		fmt.Fprintf(stdout, "%s: %s %v%s\n", name, verdict, rep.Model, qualifier)
		fmt.Fprintf(stdout, "  %d events, %d commits, %d collapsed, window %d, %d pending reads, %d recertifications, %d violations\n",
			rep.Events, rep.Commits, rep.GCd, mon.Window(), rep.Pending, rep.Rechecks, len(rep.Violations))
		if rep.Final != nil {
			fmt.Fprintf(stdout, "  final: %s\n", rep.Final)
		}
		if !rep.Member {
			return 1, nil
		}
		return 0, nil
	}()
	return o.Finish(code, rerr, stdout, stderr)
}

// verdictEvent converts a per-commit monitor verdict to the /verdicts
// wire form, keeping obshttp decoupled from internal/monitor.
func verdictEvent(m depgraph.Model, v monitor.Verdict) obshttp.VerdictEvent {
	ve := obshttp.VerdictEvent{
		Seq:     v.Seq,
		Txn:     v.Txn,
		Model:   m.String(),
		Member:  v.Member,
		Checked: v.Checked,
		Window:  v.Window,
		Pending: v.Pending,
	}
	if v.Violation != nil {
		ve.Violation = &obshttp.ViolationEvent{
			Axiom:      v.Violation.Axiom,
			Cycle:      v.Violation.Cycle,
			Detail:     v.Violation.Detail,
			Definitive: v.Violation.Definitive,
		}
	}
	return ve
}

// summaryEvent renders the end-of-stream report as a final /verdicts
// message so SSE clients see the stream's settled verdict.
func summaryEvent(mon *monitor.Monitor, rep *monitor.Report) obshttp.VerdictEvent {
	ve := obshttp.VerdictEvent{
		Txn:     "(end of stream)",
		Model:   rep.Model.String(),
		Member:  rep.Member,
		Window:  mon.Window(),
		Pending: rep.Pending,
	}
	if rep.Final != nil {
		ve.Violation = &obshttp.ViolationEvent{
			Detail:     rep.Final.String(),
			Definitive: rep.Definitive,
		}
	}
	return ve
}

func parseModel(s string) (depgraph.Model, error) {
	switch s {
	case "ser":
		return depgraph.SER, nil
	case "si":
		return depgraph.SI, nil
	case "psi":
		return depgraph.PSI, nil
	case "pc":
		return depgraph.PC, nil
	case "gsi":
		return depgraph.GSI, nil
	default:
		return 0, fmt.Errorf("unknown model %q (want ser, si, psi, pc or gsi)", s)
	}
}

// followReader turns EOF into a poll-and-retry loop so a regular file
// can be tailed while a writer appends to it. With idle > 0 it gives
// up (returning io.EOF) once that long passes without new data.
type followReader struct {
	r    io.Reader
	poll time.Duration
	idle time.Duration
}

func (f *followReader) Read(p []byte) (int, error) {
	var waited time.Duration
	for {
		n, err := f.r.Read(p)
		if n > 0 || (err != nil && err != io.EOF) {
			return n, err
		}
		if f.idle > 0 && waited >= f.idle {
			return 0, io.EOF
		}
		time.Sleep(f.poll)
		waited += f.poll
	}
}
