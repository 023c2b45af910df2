// Command sitables regenerates the reproduction's result tables: the
// anomaly × model classification of Figure 2, the chopping verdicts of
// Figures 5/6/11/12, the robustness verdicts of §6, and an operational
// engine × anomaly matrix obtained by staging the anomalies on the
// reference engines. Its output backs EXPERIMENTS.md.
//
// Usage:
//
//	sitables [-table all|anomalies|chopping|robustness|engines]
//	         [-trace] [-metrics file|-] [-serve addr]
//
// The shared observability flags (see internal/cliutil) expose the
// staging engines' metrics: -metrics dumps the registry on exit,
// -serve runs the live plane while the tables regenerate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sian/internal/check"
	"sian/internal/chopping"
	"sian/internal/cliutil"
	"sian/internal/depgraph"
	"sian/internal/engine"
	"sian/internal/model"
	"sian/internal/obs"
	"sian/internal/robustness"
	"sian/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sitables:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sitables", flag.ContinueOnError)
	table := fs.String("table", "all", "table to print: all, anomalies, chopping, robustness or engines")
	obsFlags := cliutil.RegisterObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	o, err := obsFlags.Start("sitables", os.Stderr)
	if err != nil {
		return err
	}
	defer func() { _, _ = o.Finish(0, nil, w, os.Stderr) }()
	all := *table == "all"
	printed := false
	if all || *table == "anomalies" {
		if err := anomalyTable(w); err != nil {
			return err
		}
		printed = true
	}
	if all || *table == "chopping" {
		if err := choppingTable(w); err != nil {
			return err
		}
		printed = true
	}
	if all || *table == "robustness" {
		robustnessTable(w)
		printed = true
	}
	if all || *table == "engines" {
		if err := engineTable(w, o.Registry); err != nil {
			return err
		}
		printed = true
	}
	if !printed {
		return fmt.Errorf("unknown table %q", *table)
	}
	return nil
}

func mark(b bool) string {
	if b {
		return "allowed"
	}
	return "-"
}

// anomalyTable certifies the Figure 2 histories against all four
// models.
func anomalyTable(w io.Writer) error {
	fmt.Fprintln(w, "Table 1 — Figure 2 anomalies vs consistency models (certifier verdicts)")
	fmt.Fprintf(w, "  %-28s %-8s %-8s %-8s %-8s %-8s\n", "history", "SER", "SI", "PSI", "PC", "GSI")
	models := []depgraph.Model{depgraph.SER, depgraph.SI, depgraph.PSI, depgraph.PC, depgraph.GSI}
	for _, ex := range workload.Examples() {
		row := make([]bool, len(models))
		for i, m := range models {
			res, err := check.Certify(ex.History, m, check.Options{
				NoInit: true, PinInit: true, Budget: 1_000_000,
			})
			if err != nil {
				return fmt.Errorf("%s under %v: %w", ex.Name, m, err)
			}
			row[i] = res.Member
		}
		fmt.Fprintf(w, "  %-28s %-8s %-8s %-8s %-8s %-8s\n",
			ex.Name, mark(row[0]), mark(row[1]), mark(row[2]), mark(row[3]), mark(row[4]))
	}
	fmt.Fprintln(w)
	return nil
}

// choppingTable runs the static chopping analysis on the paper's
// program sets at all three levels.
func choppingTable(w io.Writer) error {
	fmt.Fprintln(w, "Table 2 — static chopping analysis (correct = no critical cycle)")
	fmt.Fprintf(w, "  %-34s %-10s %-10s %-10s\n", "programs", "SER", "SI", "PSI")
	sets := []struct {
		name     string
		programs []chopping.Program
	}{
		{"Fig 5 {transfer, lookupAll}", workload.Fig5Programs()},
		{"Fig 6 {transfer, lookup1/2}", workload.Fig6Programs()},
		{"Fig 11 {write1, write2}", workload.Fig11Programs()},
		{"Fig 12 {write1/2, read1/2}", workload.Fig12Programs()},
	}
	levels := []chopping.Criticality{chopping.SERCritical, chopping.SICritical, chopping.PSICritical}
	for _, set := range sets {
		cells := make([]string, len(levels))
		for i, l := range levels {
			v, err := chopping.CheckStatic(set.programs, l)
			if err != nil {
				return fmt.Errorf("%s at %v: %w", set.name, l, err)
			}
			if v.OK {
				cells[i] = "correct"
			} else {
				cells[i] = "critical"
			}
		}
		fmt.Fprintf(w, "  %-34s %-10s %-10s %-10s\n", set.name, cells[0], cells[1], cells[2])
	}
	fmt.Fprintln(w)
	return nil
}

// robustnessTable runs the §6 static analyses on the example apps.
func robustnessTable(w io.Writer) {
	fmt.Fprintln(w, "Table 3 — static robustness analyses")
	fmt.Fprintf(w, "  %-28s %-12s %-12s\n", "application", "SI→SER", "PSI→SI")
	apps := []struct {
		name string
		app  robustness.App
	}{
		{"write skew (broken)", workload.WriteSkewApp()},
		{"write skew (fixed)", workload.WriteSkewAppFixed()},
		{"transfer + lookups", workload.TransferApp()},
		{"long fork", workload.LongForkApp()},
		{"SmallBank", workload.SmallBankApp(2, false)},
		{"SmallBank (fixed)", workload.SmallBankApp(2, true)},
	}
	verdict := func(robust bool) string {
		if robust {
			return "robust"
		}
		return "NOT robust"
	}
	for _, a := range apps {
		_, si := robustness.CheckSIRobust(a.app)
		_, psi := robustness.CheckPSIRobust(a.app)
		fmt.Fprintf(w, "  %-28s %-12s %-12s\n", a.name, verdict(si), verdict(psi))
	}
	fmt.Fprintln(w)
}

// engineTable stages the write-skew and long-fork anomalies on each
// engine and reports whether they are realisable.
func engineTable(w io.Writer, reg *obs.Registry) error {
	fmt.Fprintln(w, "Table 4 — anomalies staged on the reference engines")
	fmt.Fprintf(w, "  %-8s %-22s %-22s\n", "engine", "write skew", "long fork")
	for _, kind := range []engine.Kind{engine.SER, engine.SSI, engine.SI, engine.PSI} {
		ws, err := stageWriteSkew(kind, reg)
		if err != nil {
			return err
		}
		lf := "n/a"
		if kind == engine.PSI {
			ok, err := stageLongFork(reg)
			if err != nil {
				return err
			}
			lf = realised(ok)
		} else {
			lf = "not realisable"
		}
		fmt.Fprintf(w, "  %-8s %-22s %-22s\n", kind, realised(ws), lf)
	}
	fmt.Fprintln(w)
	return nil
}

func realised(ok bool) string {
	if ok {
		return "realisable"
	}
	return "not realisable"
}

// stageWriteSkew attempts the Figure 2(d) interleaving; it reports
// whether both withdrawals committed.
func stageWriteSkew(kind engine.Kind, reg *obs.Registry) (bool, error) {
	db, err := engine.New(kind, engine.Config{Metrics: reg})
	if err != nil {
		return false, err
	}
	defer db.Close()
	if err := db.Initialize(map[model.Obj]model.Value{"a1": 60, "a2": 60}); err != nil {
		return false, err
	}
	t1, err := db.Session("s1").Begin("w1")
	if err != nil {
		return false, err
	}
	t2, err := db.Session("s2").Begin("w2")
	if err != nil {
		return false, err
	}
	for _, m := range []*engine.ManualTx{t1, t2} {
		if _, err := m.Read("a1"); err != nil {
			return false, err
		}
		if _, err := m.Read("a2"); err != nil {
			return false, err
		}
	}
	if err := t1.Write("a1", -40); err != nil {
		return false, err
	}
	if err := t2.Write("a2", -40); err != nil {
		return false, err
	}
	err1 := t1.Commit()
	err2 := t2.Commit()
	return err1 == nil && err2 == nil, nil
}

// stageLongFork stages Figure 2(c) on a manual-propagation PSI engine
// and reports whether the recorded history certifies PSI but not SI.
func stageLongFork(reg *obs.Registry) (bool, error) {
	db, err := engine.New(engine.PSI, engine.Config{ManualPropagation: true, Metrics: reg})
	if err != nil {
		return false, err
	}
	defer db.Close()
	h, err := workload.StageLongFork(db)
	if err != nil {
		return false, err
	}
	opts := check.Options{NoInit: true, PinInit: true, Budget: 1_000_000}
	psi, err := check.Certify(h, depgraph.PSI, opts)
	if err != nil {
		return false, err
	}
	si, err := check.Certify(h, depgraph.SI, opts)
	if err != nil {
		return false, err
	}
	return psi.Member && !si.Member, nil
}
