package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one (workload, metric) row of a comparison.
const (
	verdictOK         = "ok"
	verdictImproved   = "improved"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictMissing    = "n/a"
	verdictInfo       = "not judged"
)

// compareRow judges one metric on one workload: b against baseline a.
type compareRow struct {
	workload, name, unit string
	a, b                 float64
	worse                float64 // relative change in the worse direction (negative = better)
	spread               float64 // the larger within-run window spread of the two
	verdict              string
}

// judgeMetric applies a metric's direction and bound. A difference is
// only believed when the measurement is steadier than the bound: if
// either run's windows spread wider than it, the row is unresolved —
// the fix is a better measurement, not a wider bound.
func judgeMetric(spec metricSpec, a, b metric) compareRow {
	row := compareRow{name: spec.Name, unit: spec.Unit, a: a.Value, b: b.Value}
	row.spread = max(spread(a.Windows), spread(b.Windows))
	switch {
	case a.Value == 0 && b.Value == 0:
		row.verdict = verdictOK
		return row
	case a.Value == 0:
		// From nothing to something: worse if lower is better.
		row.worse = 1
		if spec.Better == higher {
			row.worse = -1
		}
	default:
		row.worse = (b.Value - a.Value) / a.Value
		if spec.Better == higher {
			row.worse = -row.worse
		}
	}
	switch {
	case spec.Bound == 0:
		row.verdict = verdictInfo
	case row.spread > spec.Bound:
		row.verdict = verdictUnresolved
	case row.worse > spec.Bound:
		row.verdict = verdictRegressed
	case row.worse < -spec.Bound:
		row.verdict = verdictImproved
	default:
		row.verdict = verdictOK
	}
	return row
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return &f, nil
}

// calibrationTolerance is how far two runs' host calibrations may
// differ before their timings stop being comparable.
const calibrationTolerance = 0.10

// hostDrift is the relative difference between the calibrations two
// runs recorded (positive: b's host was slower); 0 when either is
// missing.
func hostDrift(a, b *runResult) float64 {
	if a == nil || b == nil || a.Host.CalibrationNS == 0 || b.Host.CalibrationNS == 0 {
		return 0
	}
	return float64(b.Host.CalibrationNS-a.Host.CalibrationNS) / float64(a.Host.CalibrationNS)
}

// timed reports whether a unit measures time or a rate, i.e. whether
// the host's speed moves the metric.
func timed(unit string) bool {
	switch unit {
	case "s", "ms", "us", "ns", "1/s":
		return true
	}
	return false
}

// compareResults builds one row per (workload, end-to-end metric) from
// the untraced runs of two result files. Where the two runs of a
// workload were taken at different host speeds, its timings are
// unresolved whatever they say.
func compareResults(a, b *resultFile, specs []metricSpec) []compareRow {
	var rows []compareRow
	for _, w := range workloadNames {
		ra, rb := a.Untraced[w], b.Untraced[w]
		drifted := math.Abs(hostDrift(ra, rb)) > calibrationTolerance
		for _, spec := range specs {
			row := compareRow{workload: w, name: spec.Name, unit: spec.Unit, verdict: verdictMissing}
			if ra != nil && rb != nil {
				ma, okA := ra.EndToEnd[spec.Name]
				mb, okB := rb.EndToEnd[spec.Name]
				if okA && okB {
					row = judgeMetric(spec, ma, mb)
					row.workload = w
					if drifted && timed(spec.Unit) {
						row.verdict = verdictUnresolved
					}
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// compareFiles is the -compare mode. It exits 1 on any regressed row,
// on a larger failed_ratio however small, or when b lacks a workload
// or failed its checks.
func compareFiles(pathA, pathB, specPath string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchmark: -compare: %v\n", err)
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return fail(err)
	}
	a, err := readResultFile(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return fail(err)
	}
	return reportComparison(a, b, spec, stdout)
}

func reportComparison(a, b *resultFile, spec *benchmarkSpec, stdout io.Writer) int {
	fmt.Fprintf(stdout, "a: %s\nb: %s\n", a.Host, b.Host)
	if a.Host.NumCPU != b.Host.NumCPU || a.Seconds != b.Seconds {
		fmt.Fprintln(stdout, "*** WARNING: the two files differ in CPU count or run length; their numbers are not comparable ***")
	}
	for _, w := range workloadNames {
		if d := hostDrift(a.Untraced[w], b.Untraced[w]); math.Abs(d) > calibrationTolerance {
			fmt.Fprintf(stdout, "*** %s: the host calibration loop ran %+.0f%% slower in b than in a; its timings are unresolved ***\n", w, 100*d)
		}
	}
	exit := 0
	fmt.Fprintf(stdout, "%-16s %-28s %14s %14s %8s %8s  %s\n", "workload", "metric", "a", "b", "worse%", "spread%", "verdict")
	for _, row := range compareResults(a, b, spec.endToEnd()) {
		if row.verdict == verdictMissing {
			fmt.Fprintf(stdout, "%-16s %-28s %14s %14s %8s %8s  %s\n", row.workload, row.name, "-", "-", "-", "-", row.verdict)
			continue
		}
		if row.name == "failed_ratio" && row.b > row.a {
			row.verdict = verdictRegressed
		}
		if row.verdict == verdictRegressed {
			exit = 1
		}
		fmt.Fprintf(stdout, "%-16s %-28s %14.6g %14.6g %+8.1f %8.1f  %s\n",
			row.workload, row.name+" ("+row.unit+")", row.a, row.b, 100*row.worse, 100*row.spread, row.verdict)
	}
	for _, w := range workloadNames {
		switch rb := b.Untraced[w]; {
		case rb == nil:
			fmt.Fprintf(stdout, "%s: missing from b\n", w)
			exit = 1
		case !rb.Correct:
			fmt.Fprintf(stdout, "%s: b failed its correctness checks\n", w)
			exit = 1
		}
	}
	// Exact counts on fixed inputs must repeat exactly.
	for _, name := range []string{"check.examined", "monitor.rechecks", "monitor.slowpath_ratio"} {
		ta, tb := a.Traced[wlCertify], b.Traced[wlCertify]
		if ta == nil || tb == nil {
			continue
		}
		va, vb := ta.PerLayer[name].Value, tb.PerLayer[name].Value
		verdict := "identical"
		if va != vb {
			verdict = "DIFFERS (an exact count on a fixed input must repeat)"
			exit = 1
		}
		fmt.Fprintf(stdout, "%-16s %-28s %14.6g %14.6g  %s\n", wlCertify, name, va, vb, verdict)
	}
	return exit
}
