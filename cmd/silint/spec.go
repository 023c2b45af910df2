package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"sian/internal/chopping"
	"sian/internal/cliutil"
	"sian/internal/dot"
	"sian/internal/histio"
	"sian/internal/robustness"
	"sian/internal/silint"
)

// specRun checks one JSON spec against the rows of the model table
// that fit its kind.
type specRun struct {
	model  string
	rows   []silint.Check
	json   bool
	fix    bool
	dot    string
	obs    *cliutil.Obs
	stdout io.Writer
}

// run reads the spec at path ("-" for stdin) and reports one verdict
// per applicable check: the robustness rows for an app (top-level
// "sessions"), the chopping rows for a program set ("programs").
func (sp specRun) run(path string, stdin io.Reader) (int, error) {
	target := path
	var data []byte
	var err error
	if path == "-" {
		target = "stdin"
		data, err = io.ReadAll(stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return 2, err
	}

	done := sp.obs.Tracer.Phase("decode")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		return 2, fmt.Errorf("%s: %w", target, err)
	}
	_, isApp := keys["sessions"]
	if _, isPrograms := keys["programs"]; isApp == isPrograms {
		return 2, fmt.Errorf(`%s: a spec needs exactly one of the top-level keys "sessions" (an app) and "programs" (a program set)`, target)
	}
	var app robustness.App
	var programs []chopping.Program
	kind := "a programs"
	if isApp {
		kind = "an app"
		app, err = histio.DecodeApp(bytes.NewReader(data))
	} else {
		programs, err = histio.DecodePrograms(bytes.NewReader(data))
	}
	done()
	if err != nil {
		return 2, err
	}
	if isApp && (sp.fix || sp.dot != "") {
		return 2, fmt.Errorf("-fix and -dot need a programs spec, %s is an app", target)
	}
	var rows []silint.Check
	for _, c := range sp.rows {
		if (c.Robust != nil) == isApp {
			rows = append(rows, c)
		}
	}
	if len(rows) == 0 {
		return 2, fmt.Errorf("-model %s has no check for %s spec", sp.model, kind)
	}

	anomalies := sp.obs.Registry.Counter("silint_anomalies_total")
	set := cliutil.VerdictSet{Tool: "silint", Verdicts: []cliutil.Verdict{}}
	for i, c := range rows {
		done := sp.obs.Tracer.Phase("check-" + c.Name)
		v := cliutil.Verdict{Check: c.Name, Target: target, OK: true, Theorem: c.Theorem}
		cycle := "critical cycle"
		if isApp {
			var w *robustness.Witness
			if w, v.OK = c.Robust(app); !v.OK {
				cycle, v.Witness = "dangerous cycle", w.String()
			}
		} else {
			sv, err := chopping.CheckStatic(programs, c.Level)
			if err != nil {
				return 2, fmt.Errorf("%v: %w", c.Level, err)
			}
			if i == 0 && sp.dot != "" {
				if err := writeDot(sp.dot, sp.stdout, sv.Graph, sv.Witness); err != nil {
					return 2, err
				}
			}
			if v.OK = sv.OK; !v.OK {
				v.Witness = sv.Graph.DescribeCycle(sv.Witness)
			}
		}
		done()
		if !v.OK {
			anomalies.Inc()
			set.Exit = 1
			v.Category = c.Category
			v.Detail = fmt.Sprintf("%s: %s %s (%s)", c.Category, cycle, v.Witness, c.Theorem)
		}
		set.Verdicts = append(set.Verdicts, v)
		if !sp.json {
			printVerdict(sp.stdout, c, v)
		}
		if sp.fix && !v.OK {
			if err := sp.autochop(programs, c.Level); err != nil {
				return 2, err
			}
		}
	}
	if sp.json {
		if err := cliutil.WriteVerdicts(sp.stdout, set); err != nil {
			return 2, err
		}
	}
	return set.Exit, nil
}

// printVerdict renders one spec verdict as a text line.
func printVerdict(w io.Writer, c silint.Check, v cliutil.Verdict) {
	switch {
	case c.Robust != nil && v.OK:
		fmt.Fprintf(w, "%s  ROBUST: %s\n", c.Label, c.Holds)
	case c.Robust != nil:
		fmt.Fprintf(w, "%s  NOT ROBUST: dangerous cycle %s\n", c.Label, v.Witness)
	case v.OK:
		fmt.Fprintf(w, "%-12s chopping CORRECT: no critical cycle\n", c.Level)
	default:
		fmt.Fprintf(w, "%-12s chopping MAY BE INCORRECT: %s\n", c.Level, v.Witness)
	}
}

// autochop prints the coarsened correct chopping at level: -fix for a
// program set, which has no source to edit.
func (sp specRun) autochop(programs []chopping.Program, level chopping.Criticality) error {
	done := sp.obs.Tracer.Phase("fix-" + level.String())
	fixed, err := chopping.Autochop(programs, level)
	done()
	if err != nil {
		return err
	}
	fmt.Fprintf(sp.stdout, "%-12s suggested correct chopping:\n", level)
	for _, p := range fixed {
		fmt.Fprintf(sp.stdout, "  %s:", p.Name)
		for _, pc := range p.Pieces {
			fmt.Fprintf(sp.stdout, "  [R%v W%v]", pc.Reads, pc.Writes)
		}
		fmt.Fprintln(sp.stdout)
	}
	return nil
}

// writeDot emits the chopping graph as DOT to the named file, or to
// stdout when the name is "-".
func writeDot(name string, stdout io.Writer, g *chopping.Graph, cyc chopping.Cycle) error {
	if name == "-" {
		return dot.ChopGraph(stdout, g, cyc)
	}
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := dot.ChopGraph(f, g, cyc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
