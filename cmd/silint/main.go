// Command silint runs the paper's static criteria — robustness (§6,
// Theorems 19 and 22) and chopping correctness (§5 and Appendix B,
// Corollary 18, Theorems 29 and 31) — over per-transaction read and
// write sets, which it takes from one of three sources:
//
//	silint [-model si|psi|ser|all] [-format text|json] [-notes] [-fix] [packages...]
//	silint [-model …] [-format …] [-fix] [-dot file] spec.json|-
//	go vet -vettool=$(which silint) [-model=…] [packages]
//
// Go packages: silint lifts the sets out of Session.Transact/
// TransactNamed closures and Begin…Commit spans and reports violations
// at the offending call sites. Package patterns are directories, with
// an optional /... suffix to walk subdirectories; the default is the
// current directory. With -fix, the repair advisor's first-ranked
// suggestions — verified read→write promotions (§6's materialised
// conflict) — are applied to the source files in place; re-running
// silint afterwards shows which diagnostics remain.
//
// JSON specs: an argument ending in .json, or - for standard input, is
// a spec (see internal/histio for the schema). A top-level "sessions"
// key makes it an app, checked by the robustness rows of -model; a
// "programs" key makes it a program set, checked by the chopping rows.
// For a program set, -fix prints a coarsened correct chopping and -dot
// writes the static chopping graph with the first critical cycle
// highlighted ('-' for stdout).
//
// go vet: silint speaks cmd/go's vettool protocol (vet.go) and reports
// its diagnostics, with suggested fixes, once per package.
//
// Exit status 0 means every check passed, 1 at least one potential
// anomaly was reported, 2 a usage or analysis error (unparseable or
// untypeable code, bad flags or spec, exceeded search budget).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"sian/internal/cliutil"
	"sian/internal/depgraph"
	"sian/internal/silint"
)

func main() {
	code, err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "silint:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// models maps the -model flag to the models whose checks run.
var models = map[string][]depgraph.Model{
	"si":  {depgraph.SI},
	"psi": {depgraph.PSI},
	"ser": {depgraph.SER},
	"all": {depgraph.SI, depgraph.PSI, depgraph.SER},
}

// isSpec reports whether a positional argument names a JSON spec.
func isSpec(arg string) bool { return arg == "-" || strings.HasSuffix(arg, ".json") }

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("silint", flag.ContinueOnError)
	model := fs.String("model", "si", "consistency model to check: si, psi, ser or all")
	format := fs.String("format", "text", "output format: text or json")
	notes := fs.Bool("notes", false, "also print analysis notes (⊤-widenings, session identity losses)")
	fix := fs.Bool("fix", false, "apply the first-ranked suggested promotions to the source files (for a programs spec: print a coarsened correct chopping)")
	dotOut := fs.String("dot", "", "programs spec only: write the static chopping graph (first critical cycle highlighted) as Graphviz DOT to this file ('-' for stdout)")
	obsFlags := cliutil.RegisterObsFlags(fs)
	if len(args) == 1 {
		switch args[0] {
		case "-V=full", "--V=full":
			return vetVersion(stdout)
		case "-flags", "--flags":
			return vetFlags(stdout, fs)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *format != "text" && *format != "json" {
		return 2, fmt.Errorf("unknown format %q (want text or json)", *format)
	}
	ms, ok := models[*model]
	if !ok {
		return 2, fmt.Errorf("unknown model %q (want si, psi, ser or all)", *model)
	}
	patterns := fs.Args()
	if len(patterns) == 1 && strings.HasSuffix(patterns[0], ".cfg") {
		return unitcheck(patterns[0], ms, stderr)
	}
	specs := 0
	for _, p := range patterns {
		if isSpec(p) {
			specs++
		}
	}
	switch {
	case specs > 1:
		return 2, fmt.Errorf("at most one spec expected, got %d", specs)
	case specs == 1 && len(patterns) > 1:
		return 2, fmt.Errorf("a spec cannot be mixed with package patterns")
	case specs == 0 && *dotOut != "":
		return 2, fmt.Errorf("-dot needs a programs spec")
	}
	if len(patterns) == 0 {
		patterns = []string{"."}
	}

	o, err := obsFlags.Start("silint", stderr)
	if err != nil {
		return 2, err
	}
	reg, tr := o.Registry, o.Tracer
	finish := func(code int, err error) (int, error) {
		return o.Finish(code, err, stdout, stderr)
	}
	if specs == 1 {
		rows, err := silint.ChecksFor(ms)
		if err != nil {
			return finish(2, err)
		}
		sp := specRun{model: *model, rows: rows, json: *format == "json", fix: *fix, dot: *dotOut, obs: o, stdout: stdout}
		return finish(sp.run(patterns[0], stdin))
	}

	done := tr.Phase("analyze")
	report, err := silint.Analyze(patterns, silint.Options{Models: ms, Registry: reg})
	done()
	if err != nil {
		return finish(2, err)
	}

	exit := 0
	if report.Anomalies() > 0 {
		exit = 1
	}
	if *fix {
		if err := applyFixes(report, stdout); err != nil {
			return finish(2, err)
		}
	}
	doneOut := tr.Phase("output")
	defer doneOut()
	if *format == "json" {
		return finish(exit, writeJSON(stdout, report, exit))
	}
	txs := 0
	for _, p := range report.Packages {
		for _, s := range p.Sessions {
			txs += len(s.Txs)
		}
		for _, d := range p.Diagnostics {
			fmt.Fprintln(stdout, d)
		}
		if *notes {
			for _, n := range p.Notes {
				fmt.Fprintln(stderr, "note:", n)
			}
		}
	}
	if exit == 0 {
		fmt.Fprintf(stdout, "silint: no anomalies in %d package(s), %d transaction(s)\n",
			len(report.Packages), txs)
	}
	return finish(exit, nil)
}

// writeJSON emits the report in the shared verdict schema: one verdict
// per diagnostic, plus an OK verdict for every clean package.
func writeJSON(w io.Writer, report *silint.Report, exit int) error {
	set := cliutil.VerdictSet{Tool: "silint", Verdicts: []cliutil.Verdict{}, Exit: exit}
	for _, p := range report.Packages {
		if len(p.Diagnostics) == 0 {
			set.Verdicts = append(set.Verdicts, cliutil.Verdict{
				Check:  "silint",
				Target: p.Path,
				OK:     true,
			})
			continue
		}
		for _, d := range p.Diagnostics {
			v := cliutil.Verdict{
				Check:    d.Check,
				Target:   d.Package,
				OK:       false,
				Category: d.Category,
				Theorem:  d.Theorem,
				Witness:  d.Witness,
				Pos:      fmt.Sprintf("%s:%d:%d", d.Pos.Filename, d.Pos.Line, d.Pos.Column),
				Tx:       d.Tx,
				Detail:   d.Message,
			}
			for _, f := range d.Fixes {
				cf := cliutil.SuggestedFix{
					Obj:     f.Obj,
					Txs:     f.Txs,
					Pos:     fmt.Sprintf("%s:%d:%d", f.Pos.Filename, f.Pos.Line, f.Pos.Column),
					Rank:    f.Rank,
					Message: f.Message,
				}
				for _, e := range f.Edits {
					cf.Edits = append(cf.Edits, cliutil.TextEdit{
						Filename: e.Filename, Offset: e.Offset, End: e.End, NewText: e.NewText,
					})
				}
				v.Fixes = append(v.Fixes, cf)
			}
			set.Verdicts = append(set.Verdicts, v)
		}
	}
	return cliutil.WriteVerdicts(w, set)
}

// applyFixes applies every rank-1 suggested edit to the source files in
// place (identical edits suggested by several diagnostics are applied
// once; edits are applied back-to-front so offsets stay valid).
func applyFixes(report *silint.Report, stdout io.Writer) error {
	type edit = silint.TextEdit
	perFile := make(map[string][]edit)
	seen := make(map[string]bool)
	for _, d := range report.Diagnostics() {
		for _, f := range d.Fixes {
			if f.Rank != 1 {
				continue
			}
			for _, e := range f.Edits {
				key := fmt.Sprintf("%s\x00%d\x00%d\x00%s", e.Filename, e.Offset, e.End, e.NewText)
				if seen[key] {
					continue
				}
				seen[key] = true
				perFile[e.Filename] = append(perFile[e.Filename], e)
			}
		}
	}
	files := make([]string, 0, len(perFile))
	for f := range perFile {
		files = append(files, f)
	}
	sort.Strings(files)
	applied := 0
	for _, fn := range files {
		edits := perFile[fn]
		sort.Slice(edits, func(i, j int) bool { return edits[i].Offset > edits[j].Offset })
		data, err := os.ReadFile(fn)
		if err != nil {
			return err
		}
		for _, e := range edits {
			if e.Offset < 0 || e.End < e.Offset || e.End > len(data) {
				return fmt.Errorf("fix edit out of range for %s: [%d,%d)", fn, e.Offset, e.End)
			}
			data = append(data[:e.Offset], append([]byte(e.NewText), data[e.End:]...)...)
		}
		if err := os.WriteFile(fn, data, 0o644); err != nil {
			return err
		}
		applied += len(edits)
	}
	fmt.Fprintf(stdout, "silint: applied %d suggested fix(es) in %d file(s)\n", applied, len(files))
	return nil
}
