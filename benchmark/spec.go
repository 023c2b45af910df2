package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec describes one metric: its unit, which direction is better,
// and (end-to-end only) the share of the baseline median by which it may
// get worse before a change counts as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

var workloadNames = []string{wlMemDisjoint, wlMemHot, wlMemReadMostly, wlWalFsync, wlWireVolatile, wlCertify}

// boundedSpecs are the end-to-end metrics every workload produces;
// BENCHMARK.json lists them with their bounds, and an untraced run
// prints exactly these.
var boundedSpecs = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: lower},
	{Name: "txs_per_sec", Unit: "1/s", Better: higher},
	{Name: "txn_mean_us", Unit: "us", Better: lower},
	{Name: "mem_bytes_per_commit", Unit: "B", Better: lower},
}

// demotedSpecs are end-to-end metrics too — a user sees them — but the
// benchmark contract wants every bounded metric from every workload,
// never 0, and steadier from run to run than its bound. Each of these
// fails one of the three: it is defined on some workloads only, or is
// expected to be exactly 0, or (txn_p50_us, txn_p99_us,
// rss_bytes_per_commit, peak_rss_mb) cannot be made steady on every
// workload — README.md gives the reason for each. They are listed under
// per_layer in BENCHMARK.json, reported by traced runs from their
// untraced half, printed with the end-to-end metrics by the
// all-workloads mode, and held by -compare to the bounds given here
// (BENCHMARK.json has no place for them). A zero bound means reported
// but not judged.
var demotedSpecs = []metricSpec{
	{Name: "txn_p50_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "txn_p99_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "ro_txn_p50_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "ro_txn_p99_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "failed_ratio", Unit: "ratio", Better: lower}, // any increase is a regression
	{Name: "rss_bytes_per_commit", Unit: "B", Better: lower, Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower}, // reported, not judged: see README
	{Name: "recovery_us_per_commit", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "log_bytes_per_user_byte", Unit: "ratio", Better: lower, Bound: 0.10},
	{Name: "offline_certify_txs_per_sec", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "monitor_commits_per_sec", Unit: "1/s", Better: higher, Bound: 0.25},
}

// layerSpecs are the per-layer metrics, prefixed by the module that
// does the work. A traced run prints all of them (0 where the workload
// does not reach the layer), after the demoted end-to-end metrics.
var layerSpecs = []metricSpec{
	{Name: "trace_overhead_ratio", Unit: "ratio", Better: higher},
	{Name: "engine.transact_ns_p50", Unit: "ns", Better: lower},
	{Name: "engine.transact_ns_p99", Unit: "ns", Better: lower},
	{Name: "engine.self_ns_per_txn", Unit: "ns", Better: lower},
	{Name: "engine.self_share", Unit: "ratio", Better: lower},
	{Name: "engine.conflicts_per_commit", Unit: "ratio", Better: lower},
	{Name: "engine.retries_per_commit", Unit: "ratio", Better: lower},
	{Name: "engine.useful_attempt_ratio", Unit: "ratio", Better: higher},
	{Name: "engine.batch_size_mean", Unit: "ratio", Better: higher},
	{Name: "engine.solo_window_share", Unit: "ratio", Better: lower},
	{Name: "engine.allocs_per_txn", Unit: "count", Better: lower},
	{Name: "engine.alloc_bytes_per_txn", Unit: "B", Better: lower},
	{Name: "mem.read_at_ns_p50", Unit: "ns", Better: lower},
	{Name: "mem.read_at_ns_p99", Unit: "ns", Better: lower},
	{Name: "mem.reads_per_txn", Unit: "count", Better: lower},
	{Name: "mem.lock_wait_ns_p50", Unit: "ns", Better: lower},
	{Name: "mem.lock_wait_ns_p99", Unit: "ns", Better: lower},
	{Name: "mem.window_hold_ns_p50", Unit: "ns", Better: lower},
	{Name: "mem.install_ns_p50", Unit: "ns", Better: lower},
	{Name: "mem.versions_per_obj", Unit: "count", Better: lower},
	{Name: "mem.gc_ns_per_version", Unit: "ns", Better: lower},
	{Name: "mem.busy_share", Unit: "ratio", Better: lower},
	{Name: "wal.unlock_ns_p50", Unit: "ns", Better: lower},
	{Name: "wal.unlock_ns_p99", Unit: "ns", Better: lower},
	{Name: "wal.fsyncs_per_commit", Unit: "count", Better: lower},
	{Name: "wal.appends_per_commit", Unit: "count", Better: lower},
	{Name: "wal.log_bytes_per_commit", Unit: "B", Better: lower},
	{Name: "wal.segments", Unit: "count", Better: lower},
	{Name: "wal.replay_us_per_commit", Unit: "us", Better: lower},
	{Name: "wal.recover_certify_us_per_commit", Unit: "us", Better: lower},
	{Name: "wal.busy_share", Unit: "ratio", Better: lower},
	{Name: "wal.device_busy_share", Unit: "ratio", Better: lower},
	{Name: "siwire.rtt_ns_p50", Unit: "ns", Better: lower},
	{Name: "siwire.rtt_ns_p99", Unit: "ns", Better: lower},
	{Name: "siwire.begin_ns_p50", Unit: "ns", Better: lower},
	{Name: "siwire.read_ns_p50", Unit: "ns", Better: lower},
	{Name: "siwire.write_ns_p50", Unit: "ns", Better: lower},
	{Name: "siwire.commit_ns_p50", Unit: "ns", Better: lower},
	{Name: "siwire.commit_ns_p99", Unit: "ns", Better: lower},
	{Name: "siwire.roundtrips_per_commit", Unit: "count", Better: lower},
	{Name: "siwire.client_retries_per_commit", Unit: "count", Better: lower},
	{Name: "siwire.self_share", Unit: "ratio", Better: lower},
	{Name: "siwire.http_transact_ns_p50", Unit: "ns", Better: lower},
	{Name: "monitor.ingest_ns_per_commit", Unit: "ns", Better: lower},
	{Name: "monitor.finish_ns", Unit: "ns", Better: lower},
	{Name: "monitor.slowpath_ratio", Unit: "ratio", Better: lower},
	{Name: "monitor.rechecks", Unit: "count", Better: lower},
	{Name: "monitor.gcd_per_commit", Unit: "ratio", Better: higher},
	{Name: "check.certify_ns_per_txn", Unit: "ns", Better: lower},
	{Name: "check.examined", Unit: "count", Better: lower},
	{Name: "check.alloc_bytes_per_txn", Unit: "B", Better: lower},
}

// benchmarkSpec mirrors BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// endToEnd returns every end-to-end metric in the issue's sense: the
// bounded ones with BENCHMARK.json's bounds, then the demoted ones.
func (s *benchmarkSpec) endToEnd() []metricSpec {
	return append(append([]metricSpec(nil), s.EndToEnd...), demotedSpecs...)
}

// metric is one measured value. Windows holds the per-window values of
// a windowed metric (Value is then their median, or the total rate for
// a throughput), which is what -compare judges steadiness by.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Windows []float64 `json:"windows,omitempty"`
	// Samples is the pooled sample count, and Pooled (latencies only)
	// the same percentile over all windows' samples at once — shown
	// beside the median of windows so a reader can see how much the
	// choice matters.
	Samples int     `json:"samples,omitempty"`
	Pooled  float64 `json:"pooled,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// checkResult is one correctness check's outcome.
type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// runResult is everything one run of one workload produced. Metrics a
// workload does not define are absent from the maps.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Host      hostInfo          `json:"host"`
	Correct   bool              `json:"correct"`
	Checks    []checkResult     `json:"checks"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
}

func (r *runResult) check(name string, err error) {
	c := checkResult{Name: name, OK: err == nil}
	if err != nil {
		c.Detail = err.Error()
		r.Correct = false
	}
	r.Checks = append(r.Checks, c)
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}
