// Command benchmark is the repository's one benchmark: six workloads
// over the SI stack (storage/mem → storage/wal → engine → siwire, and
// the paper's certifiers check/monitor), each a time-bounded closed
// loop whose outputs are verified, measured end to end with tracing
// off and layer by layer from a separate traced run. See README.md.
//
//	benchmark -workload <name> -seed <n> -seconds <s> -trace <0|1>
//	    one run of one workload; the last line of stdout is the result
//	    as one JSON object (the contract BENCHMARK.json describes).
//	benchmark [-seconds s] [-seed n] [-o result.json]
//	    every workload, untraced then traced, each in its own child
//	    process; prints all metrics and writes the result file.
//	benchmark -compare a.json b.json
//	    judges two result files against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run: all, "+strings.Join(workloadNames, ", "))
		seed     = fs.Int64("seed", 1, "workload seed: equal seeds give equal inputs")
		seconds  = fs.Float64("seconds", 10, "measured seconds per run (a traced run splits them into a bare and a traced half)")
		trace    = fs.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: untraced run printing the end-to-end metrics")
		dir      = fs.String("dir", "benchmark", "the benchmark's directory: WAL scratch goes to <dir>/.scratch, traces and results to <dir>/out")
		output   = fs.String("o", "", "result file (default <dir>/out/result.json for all workloads, none for one)")
		compare  = fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
		specPath = fs.String("spec", "BENCHMARK.json", "the benchmark contract, for -compare's directions and bounds")
		smoke    = fs.Bool("smoke", false, "tiny configuration (1 s measured in 200 ms windows, small certify inputs) for tests")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), *specPath, stdout, stderr)
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, trace: *trace != 0, sizes: fullCertifySizes, setupBudget: time.Second,
		measure: time.Duration(*seconds * float64(time.Second)),
		scratch: filepath.Join(*dir, ".scratch"), out: filepath.Join(*dir, "out"),
	}
	if *smoke {
		cfg.measure, cfg.sizes, cfg.setupBudget = time.Second, smokeCertifySizes, 50*time.Millisecond
	}
	if cfg.measure <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	if *workload == "all" {
		if *output == "" {
			*output = filepath.Join(cfg.out, "result.json")
		}
		return runAll(cfg, *smoke, *output, stdout, stderr)
	}
	if !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	}

	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *workload, err)
		return 1
	}
	fmt.Fprintln(stderr, res.Host)
	printRun(stderr, res)
	if *output != "" {
		if err := writeJSON(*output, res); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(contractLine(res))
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// contractResult is the one-line result BENCHMARK.json's driver reads.
type contractResult struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine selects what the contract wants from a run: untraced,
// every bounded end-to-end metric; traced, every per-layer metric —
// the demoted end-to-end ones included — with 0 where the workload
// does not produce it.
func contractLine(res *runResult) contractResult {
	out := contractResult{Correct: res.Correct, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: map[string]contractValue{}}
	if !res.Traced {
		for _, s := range boundedSpecs {
			out.Metrics[s.Name] = contractValue{Value: res.EndToEnd[s.Name].Value, Unit: s.Unit}
		}
		return out
	}
	for _, s := range demotedSpecs {
		out.Metrics[s.Name] = contractValue{Value: res.EndToEnd[s.Name].Value, Unit: s.Unit}
	}
	for _, s := range layerSpecs {
		out.Metrics[s.Name] = contractValue{Value: res.PerLayer[s.Name].Value, Unit: s.Unit}
	}
	return out
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printRun prints every metric of one run by name with its unit, then
// the correctness checks.
func printRun(w io.Writer, res *runResult) {
	mode := "untraced"
	if res.Traced {
		mode = "traced (bare half + traced half)"
	}
	fmt.Fprintf(w, "\n== %s  seed=%d  %.3gs measured  %s ==\n", res.Workload, res.Seed, res.Seconds, mode)
	row := func(name string, m metric, ok bool) {
		if !ok {
			fmt.Fprintf(w, "  %-36s %14s\n", name, "n/a")
			return
		}
		extra := ""
		if len(m.Windows) > 1 {
			extra = fmt.Sprintf("  spread %.1f%% over %d windows", 100*spread(m.Windows), len(m.Windows))
		}
		if m.Samples > 0 {
			extra += fmt.Sprintf("  n=%d", m.Samples)
		}
		if m.Note != "" {
			extra += "  (" + m.Note + ")"
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-6s%s\n", name, m.Value, m.Unit, extra)
	}
	for _, specs := range [][]metricSpec{boundedSpecs, demotedSpecs} {
		for _, s := range specs {
			m, ok := res.EndToEnd[s.Name]
			row(s.Name, m, ok)
		}
	}
	names := make([]string, 0, len(res.PerLayer))
	for n := range res.PerLayer {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintln(w, "  -- per layer --")
	}
	for _, n := range names {
		row(n, res.PerLayer[n], true)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d\n", res.Attempted, res.Failed)
	for _, c := range res.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED: " + c.Detail
		}
		fmt.Fprintf(w, "  check %-58s %s\n", c.Name, verdict)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// resultFile is what the all-workloads mode writes and -compare reads.
type resultFile struct {
	Schema   string                `json:"schema"`
	Host     hostInfo              `json:"host"`
	Seed     int64                 `json:"seed"`
	Seconds  float64               `json:"seconds"`
	Untraced map[string]*runResult `json:"untraced"`
	Traced   map[string]*runResult `json:"traced"`
}

const resultSchema = "sian-benchmark/v1"

// runAll runs every workload untraced, then every workload traced at
// 0.8 of the time, one child process at a time: a workload's heap
// cannot pollute the next one's, and getrusage gives a per-workload
// peak RSS.
func runAll(cfg runConfig, smoke bool, output string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	file := resultFile{
		Schema: resultSchema, Host: gatherHost(cfg.scratch), Seed: cfg.seed, Seconds: cfg.measure.Seconds(),
		Untraced: map[string]*runResult{}, Traced: map[string]*runResult{},
	}
	fmt.Fprintln(stdout, file.Host)
	ok := true
	for _, traced := range []bool{false, true} {
		for _, w := range workloadNames {
			secs, into, flag := cfg.measure.Seconds(), file.Untraced, "0"
			if traced {
				secs, into, flag = 0.8*secs, file.Traced, "1"
			}
			tmp := filepath.Join(cfg.out, fmt.Sprintf("run-%s-trace%s.json", w, flag))
			args := []string{
				"-workload", w, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(secs), "-trace", flag,
				"-dir", filepath.Dir(cfg.out), "-o", tmp,
			}
			if smoke {
				args = append(args, "-smoke")
			}
			// The child's stderr repeats the table printed below; it is
			// shown only when the child failed.
			if diag, err := exec.Command(self, args...).CombinedOutput(); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s (trace %s): %v\n%s", w, flag, err, diag)
				ok = false
			}
			data, err := os.ReadFile(tmp)
			if err != nil {
				continue // the child said why
			}
			var res runResult
			if err := json.Unmarshal(data, &res); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", tmp, err)
				ok = false
				continue
			}
			into[w] = &res
			printRun(stdout, &res)
		}
	}
	if err := writeJSON(output, file); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nresult file: %s\n", output)
	if !ok {
		return 1
	}
	return 0
}
