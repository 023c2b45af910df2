package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
	"time"
)

func smokeConfig(t *testing.T, workload string, trace bool) runConfig {
	scratch := testScratch(t)
	return runConfig{
		workload: workload, seed: 1, measure: time.Second, trace: trace,
		setupBudget: 50 * time.Millisecond, sizes: smokeCertifySizes,
		scratch: filepath.Join(scratch, "wal"), out: filepath.Join(scratch, "out"),
	}
}

// TestSmokeAllWorkloads runs every workload in the -smoke configuration
// (1 s measured in 200 ms windows, small certify inputs), untraced and
// traced, and holds each run to the output contract: outputs verified,
// nothing failed, every metric BENCHMARK.json names present with its
// unit, every bounded metric non-zero.
func TestSmokeAllWorkloads(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			name := w + "/untraced"
			if trace {
				name = w + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				res, err := runWorkload(smokeConfig(t, w, trace))
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range res.Checks {
					if !c.OK {
						t.Errorf("check %q failed: %s", c.Name, c.Detail)
					}
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Checks) < 3 {
					t.Errorf("only %d correctness checks ran", len(res.Checks))
				}
				line := contractLine(res)
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("the result line has %d metrics, BENCHMARK.json lists %d", len(line.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := line.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s is missing from the result line", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case !trace && got.Value <= 0 && m.Name != "mem_bytes_per_commit":
						// (The heap is the process's: with the subtests in
						// parallel its growth is not this workload's. The
						// attribution test below checks it alone.)
						t.Errorf("end-to-end metric %s = %v, want > 0 on every workload", m.Name, got.Value)
					}
				}
				// Units given where a metric is computed must agree with
				// the tables the result line is built from.
				for name, m := range res.PerLayer {
					if u := specUnit(name); u != m.Unit {
						t.Errorf("per-layer metric %s computed in %q, listed in %q", name, m.Unit, u)
					}
				}
				for name, m := range res.EndToEnd {
					if u := specUnit(name); u != m.Unit {
						t.Errorf("end-to-end metric %s computed in %q, listed in %q", name, m.Unit, u)
					}
				}
				if trace {
					if r := res.PerLayer["trace_overhead_ratio"].Value; r <= 0 {
						t.Errorf("trace_overhead_ratio = %v", r)
					}
				}
			})
		}
	}
}

func specUnit(name string) string {
	for _, specs := range [][]metricSpec{boundedSpecs, demotedSpecs, layerSpecs} {
		for _, s := range specs {
			if s.Name == name {
				return s.Unit
			}
		}
	}
	return "(not listed)"
}

// TestTraceOverheadAndAttribution is the decorated-vs-bare assertion:
// on mem_disjoint the traced half keeps at least 0.7 of the bare half's
// throughput, no conflict or retry appears on disjoint keys, and the
// engine's self time is most of a transaction.
func TestTraceOverheadAndAttribution(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs mem_disjoint for 4 s and compares throughputs")
	}
	cfg := smokeConfig(t, wlMemDisjoint, true)
	cfg.measure = 4 * time.Second
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("checks failed: %+v", res.Checks)
	}
	if m := res.EndToEnd["mem_bytes_per_commit"].Value; m < 100 || m > 2000 {
		t.Errorf("mem_bytes_per_commit = %.0f B, want the few hundred bytes of history a commit retains", m)
	}
	pl := res.PerLayer
	if r := pl["trace_overhead_ratio"].Value; r < 0.7 {
		t.Errorf("trace_overhead_ratio = %.3f, want ≥ 0.7: the decorator costs too much to trust its shares", r)
	}
	if s := pl["engine.self_share"].Value; s < 0.6 {
		t.Errorf("engine.self_share = %.3f on mem_disjoint, want ≥ 0.6", s)
	}
	if c, r, u := pl["engine.conflicts_per_commit"].Value, pl["engine.retries_per_commit"].Value, pl["engine.useful_attempt_ratio"].Value; c != 0 || r != 0 || u != 1 {
		t.Errorf("disjoint keys: conflicts/commit=%v retries/commit=%v useful=%v, want exactly 0, 0, 1", c, r, u)
	}
	if n := pl["mem.reads_per_txn"].Value; n != 4 {
		t.Errorf("mem.reads_per_txn = %v, want exactly 4 (2 reads + 2 read-modify-writes)", n)
	}
}

// TestContractModeOutput drives the command line the benchmark driver
// uses and checks the shape of what it prints: the last line of stdout
// is one JSON object with exactly the contract's keys.
func TestContractModeOutput(t *testing.T) {
	dir := testScratch(t)
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"--workload", "mem_hot", "--seed", "4", "--seconds", "1", "--trace", "0", "-smoke", "-dir", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var got map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &got); err != nil {
		t.Fatalf("last stdout line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(got) != 4 {
		t.Errorf("result line has %d keys, want exactly 4", len(got))
	}
	if !bytes.Contains(stderr.Bytes(), []byte("nproc=")) {
		t.Error("host provenance was not printed")
	}

	stdout.Reset()
	if code := realMain([]string{"-workload", "no_such"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q; want non-zero and no result", code, stdout.String())
	}
}
