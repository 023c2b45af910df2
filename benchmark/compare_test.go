package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeMetric(t *testing.T) {
	lowerIsBetter := metricSpec{Name: "txn_p50_us", Unit: "us", Better: lower, Bound: 0.10}
	higherIsBetter := metricSpec{Name: "txs_per_sec", Unit: "1/s", Better: higher, Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100, 101, 99, 100, 100, 100}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name    string
		spec    metricSpec
		a, b    metric
		verdict string
	}{
		{"within bound", lowerIsBetter, metric{Value: 100, Windows: steady}, metric{Value: 108, Windows: steady}, verdictOK},
		{"latency up 20%", lowerIsBetter, metric{Value: 100, Windows: steady}, metric{Value: 120, Windows: steady}, verdictRegressed},
		{"latency down 20%", lowerIsBetter, metric{Value: 100, Windows: steady}, metric{Value: 80, Windows: steady}, verdictImproved},
		{"throughput down 20%", higherIsBetter, metric{Value: 100, Windows: steady}, metric{Value: 80, Windows: steady}, verdictRegressed},
		{"throughput up 20%", higherIsBetter, metric{Value: 100, Windows: steady}, metric{Value: 120, Windows: steady}, verdictImproved},
		{"too noisy to call", lowerIsBetter, metric{Value: 100, Windows: steady}, metric{Value: 120, Windows: noisy}, verdictUnresolved},
		{"no windows, judged on medians", lowerIsBetter, metric{Value: 100}, metric{Value: 120}, verdictRegressed},
		{"both zero", lowerIsBetter, metric{}, metric{}, verdictOK},
		{"zero to something", lowerIsBetter, metric{}, metric{Value: 0.01}, verdictRegressed},
	} {
		if got := judgeMetric(c.spec, c.a, c.b); got.verdict != c.verdict {
			t.Errorf("%s: verdict %q (worse %+.2f, spread %.2f), want %q", c.name, got.verdict, got.worse, got.spread, c.verdict)
		}
	}
}

// fakeResults is a result file in which every workload reports the
// bounded metrics at the given values.
func fakeResults(tps, p50, failed float64) *resultFile {
	f := &resultFile{Schema: resultSchema, Seconds: 10, Host: hostInfo{NumCPU: 2}, Untraced: map[string]*runResult{}, Traced: map[string]*runResult{}}
	for _, w := range workloadNames {
		f.Untraced[w] = &runResult{Workload: w, Correct: true, EndToEnd: map[string]metric{
			"setup_s": {Value: 0.01, Unit: "s"}, "txs_per_sec": {Value: tps, Unit: "1/s"},
			"txn_p50_us": {Value: p50, Unit: "us"}, "txn_p99_us": {Value: 10 * p50, Unit: "us"},
			"mem_bytes_per_commit": {Value: 300, Unit: "B"}, "failed_ratio": {Value: failed, Unit: "ratio"},
		}}
	}
	f.Traced[wlCertify] = &runResult{PerLayer: map[string]metric{"check.examined": {Value: 1}, "monitor.rechecks": {Value: 1}}}
	return f
}

func TestCompareMode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f *resultFile) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", fakeResults(1000, 50, 0))
	same := write("same.json", fakeResults(1030, 51, 0))
	slow := write("slow.json", fakeResults(600, 50, 0))
	flaky := write("flaky.json", fakeResults(1000, 50, 0.001))
	recount := fakeResults(1000, 50, 0)
	recount.Traced[wlCertify].PerLayer["check.examined"] = metric{Value: 2}
	drift := write("drift.json", recount)

	for _, c := range []struct {
		name, b string
		exit    int
		mention string
	}{
		{"two agreeing sets", same, 0, verdictOK},
		{"throughput regression", slow, 1, verdictRegressed},
		{"any growth of failed_ratio", flaky, 1, "failed_ratio"},
		{"an exact count that moved", drift, 1, "DIFFERS"},
	} {
		var stdout, stderr bytes.Buffer
		code := realMain([]string{"-spec", "../BENCHMARK.json", "-compare", base, c.b}, &stdout, &stderr)
		if code != c.exit {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, code, c.exit, stdout.String(), stderr.String())
		}
		if !strings.Contains(stdout.String(), c.mention) {
			t.Errorf("%s: output does not mention %q:\n%s", c.name, c.mention, stdout.String())
		}
		// One row per workload and end-to-end metric, n/a included.
		if rows := strings.Count(stdout.String(), "ro_txn_p50_us"); rows != len(workloadNames) {
			t.Errorf("%s: %d ro_txn_p50_us rows, want one per workload", c.name, rows)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-spec", "../BENCHMARK.json", "-compare", base, filepath.Join(dir, "absent.json")}, &stdout, &stderr); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}
