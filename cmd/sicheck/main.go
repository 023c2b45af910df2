// Command sicheck certifies a transactional history against
// serializability, snapshot isolation, parallel snapshot isolation,
// prefix consistency and generalised SI, using the dependency-graph
// characterisations of Cerone & Gotsman (PODC 2016) and the extension
// characterisations this module derives with the same technique.
//
// Usage:
//
//	sicheck [-model all|ser|si|psi|pc|gsi] [-init] [-init-value N]
//	        [-budget N] [-parallel N] [-witness] [-classify]
//	        [-dot out.dot] [-trace] [-metrics file|-] [-serve addr]
//	        [history.json]
//
// The history is read from the file argument or standard input; see
// internal/histio for the JSON schema. -trace prints per-phase timing
// lines on stderr; -metrics dumps the metrics registry (search
// counters and phase-duration histograms) on exit, in Prometheus text
// format ('-' for stdout, a path ending in .json for JSON). -serve
// runs the live observability plane (/metrics, /healthz,
// /debug/pprof/) during the check — useful for watching or profiling
// a long certification search.
// Exit status 0 means the history is allowed by every requested
// model, 1 that some model rejects it, 2 a usage or processing error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sian/internal/check"
	"sian/internal/cliutil"
	"sian/internal/depgraph"
	"sian/internal/dot"
	"sian/internal/histio"
	"sian/internal/model"
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
	modelFlag := fs.String("model", "all", "model to check: all, ser, si, psi, pc or gsi")
	addInit := fs.Bool("init", true, "add an initialisation transaction writing init-value to every object")
	initValue := fs.Int64("init-value", 0, "value written by the added initialisation transaction")
	budget := fs.Int("budget", 1_000_000, "maximum number of candidate dependency graphs to examine")
	parallel := fs.Int("parallel", 0, "worker goroutines for the certification search (0 = one per CPU)")
	witness := fs.Bool("witness", false, "print the witness dependency graph for members")
	dotOut := fs.String("dot", "", "write the first witness dependency graph as Graphviz DOT to this file ('-' for stdout)")
	classify := fs.Bool("classify", false, "name the anomaly class of the history across the model lattice")
	obsFlags := cliutil.RegisterObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}

	var in io.Reader = stdin
	switch fs.NArg() {
	case 0:
	case 1:
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return 2, err
		}
		defer f.Close()
		in = f
	default:
		return 2, fmt.Errorf("at most one history file expected, got %d args", fs.NArg())
	}

	h, err := histio.DecodeHistory(in)
	if err != nil {
		return 2, err
	}

	models, err := selectModels(*modelFlag)
	if err != nil {
		return 2, err
	}

	o, err := obsFlags.Start("sicheck", stderr)
	if err != nil {
		return 2, err
	}
	reg, tr := o.Registry, o.Tracer
	finish := func(code int, err error) (int, error) {
		return o.Finish(code, err, stdout, stderr)
	}

	opts := check.Options{
		NoInit:      !*addInit,
		PinInit:     true,
		InitValue:   model.Value(*initValue),
		Budget:      *budget,
		Parallelism: *parallel,
		Tracer:      tr,
		Metrics:     reg,
	}
	if !*addInit {
		// Pin only when the history visibly carries its own init
		// transaction in front.
		opts.PinInit = h.NumTransactions() > 0 && h.Transaction(0).ID == model.InitTransactionID
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
	dotDone := false
	for _, m := range models {
		res, err := check.Certify(h, m, opts)
		if err != nil {
			return finish(2, fmt.Errorf("%v: %w", m, err))
		}
		verdict := "ALLOWED"
		if !res.Member {
			verdict = "DISALLOWED"
			exit = 1
		}
		fmt.Fprintf(stdout, "%-4s %s (%d candidate graphs examined)\n", m, verdict, res.Examined)
		if res.Member && *witness {
			printGraph(stdout, res.Graph)
		}
		if !res.Member && res.Explain != nil {
			printExplain(stdout, res.Explain)
		}
		if res.Member && *dotOut != "" && !dotDone {
			dotDone = true
			if err := writeDot(*dotOut, stdout, res.Graph); err != nil {
				return finish(2, err)
			}
		}
	}
	return finish(exit, nil)
}

// printExplain renders the explainable verdict: the violated axiom
// and, when available, the witnessing forbidden cycle with labelled
// edges.
func printExplain(w io.Writer, e *check.Explanation) {
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
	if err := dot.Graph(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func selectModels(s string) ([]depgraph.Model, error) {
	switch s {
	case "all":
		return []depgraph.Model{depgraph.SER, depgraph.SI, depgraph.PSI, depgraph.PC, depgraph.GSI}, nil
	case "ser":
		return []depgraph.Model{depgraph.SER}, nil
	case "si":
		return []depgraph.Model{depgraph.SI}, nil
	case "psi":
		return []depgraph.Model{depgraph.PSI}, nil
	case "pc":
		return []depgraph.Model{depgraph.PC}, nil
	case "gsi":
		return []depgraph.Model{depgraph.GSI}, nil
	default:
		return nil, fmt.Errorf("unknown model %q (want all, ser, si, psi, pc or gsi)", s)
	}
}

func printGraph(w io.Writer, g *depgraph.Graph) {
	name := func(i int) string {
		if id := g.History.Transaction(i).ID; id != "" {
			return id
		}
		return fmt.Sprintf("#%d", i)
	}
	for _, x := range g.Objects() {
		for _, p := range g.WRObj(x).Pairs() {
			fmt.Fprintf(w, "  WR(%s): %s -> %s\n", x, name(p[0]), name(p[1]))
		}
		for _, p := range g.WWObj(x).Pairs() {
			fmt.Fprintf(w, "  WW(%s): %s -> %s\n", x, name(p[0]), name(p[1]))
		}
		for _, p := range g.RWObj(x).Pairs() {
			fmt.Fprintf(w, "  RW(%s): %s -> %s\n", x, name(p[0]), name(p[1]))
		}
	}
}
