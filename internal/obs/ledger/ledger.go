// Package ledger is the bench run ledger: an append-only NDJSON file
// recording every benchmark / certification run together with its
// provenance (git revision, host fingerprint, GOMAXPROCS), plus the
// regression comparison that turns two recorded runs into a CI gate.
//
// The package owns the sibench machine-readable report schema
// (BenchReport, SweepPoint, CheckerBench — the "sibench/v2" JSON that
// -bench-json emits and BENCH_sibench.json commits), so a ledger entry
// is exactly "provenance + one report". A ledger file grows one line
// per run and is safe to append to concurrently from independent
// processes (each line is written with a single O_APPEND write).
package ledger

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// BenchSchema versions the bench report format. v2 added GOMAXPROCS
// and the Sweep scaling table; sweep points may additionally carry
// median-of-reps fields (reps, min/max throughput) without a schema
// bump, since absent fields mean a single rep.
const BenchSchema = "sibench/v2"

// EntrySchema versions the ledger entry envelope.
const EntrySchema = "siledger/v1"

// BenchReport is the machine-readable benchmark summary emitted by
// sibench -bench-json, one JSON object per run. Latency quantiles come
// from the engine's log-scale commit-latency histogram.
type BenchReport struct {
	Schema   string `json:"schema"`
	Engine   string `json:"engine"`
	Workload string `json:"workload"`
	// Mode distinguishes how the workload reached the engine: absent
	// or "" for the in-process engine, "network" for a run driven
	// against a siserve over the siwire protocol (sibench -addr).
	// Baselines only compare like with like (LoadBaseline matches
	// mode), since wire round-trips dominate network-mode latency.
	Mode string `json:"mode,omitempty"`
	// ServerRev is the serving binary's git revision as reported by
	// the server's info document — the build actually measured, which
	// in network mode need not be the client's checkout.
	ServerRev          string  `json:"server_rev,omitempty"`
	Sessions           int     `json:"sessions"`
	CPUs               int     `json:"cpus"`
	GOMAXPROCS         int     `json:"gomaxprocs"`
	ElapsedNS          int64   `json:"elapsed_ns"`
	Commits            int64   `json:"commits"`
	Conflicts          int64   `json:"conflicts"`
	Aborts             int64   `json:"aborts"`
	Retries            int64   `json:"retries"`
	TxsPerSec          float64 `json:"txs_per_sec"`
	P50CommitLatencyNS float64 `json:"p50_commit_latency_ns"`
	P99CommitLatencyNS float64 `json:"p99_commit_latency_ns"`
	P50SnapshotAgeNS   float64 `json:"p50_snapshot_age_ns"`
	P99SnapshotAgeNS   float64 `json:"p99_snapshot_age_ns"`

	// Certification fields are present when -certify ran.
	CertifyParallelism int   `json:"certify_parallelism,omitempty"`
	CertifyNS          int64 `json:"certify_ns,omitempty"`
	CertifyExamined    int   `json:"certify_examined,omitempty"`

	// CheckerBench carries the offline seed-vs-incremental search
	// benchmark when a recorded report includes one (see
	// internal/check/search_bench_test.go); sibench itself does not
	// populate it, but round-trips it for the committed artifact.
	CheckerBench *CheckerBench `json:"checker_bench,omitempty"`

	// Sweep holds the -sweep scaling table: the closed-loop workload
	// repeated at each GOMAXPROCS value. The top-level throughput
	// fields then reflect the best point.
	Sweep []SweepPoint `json:"sweep,omitempty"`

	// Stages is the per-stage latency breakdown of a -trace-txns run:
	// one row per commit-pipeline (or wire round-trip) stage, in
	// pipeline order. Absent on untraced runs, so pre-tracing ledger
	// lines parse unchanged and old readers ignore it; the -compare
	// gate never reads it (only the headline throughput metrics gate).
	Stages []StageLatency `json:"stages,omitempty"`

	// Note carries free-form provenance for recorded artifacts (for
	// example the host's core count); sibench round-trips it.
	Note string `json:"note,omitempty"`
}

// StageLatency is one row of a traced run's per-stage breakdown,
// mirroring txtrace.StageLatency (redeclared here so the ledger schema
// stays self-contained).
type StageLatency struct {
	Stage string  `json:"stage"`
	Count int64   `json:"count"`
	P50NS float64 `json:"p50_ns"`
	P99NS float64 `json:"p99_ns"`
}

// SweepPoint is one entry of a -sweep run: the closed-loop workload
// executed from scratch at a given GOMAXPROCS. With -sweep-reps > 1
// the point is the median-throughput repetition and Reps/Min/Max
// record the spread, so one noisy run cannot poison the ledger.
type SweepPoint struct {
	Procs              int     `json:"procs"`
	Sessions           int     `json:"sessions"`
	ElapsedNS          int64   `json:"elapsed_ns"`
	Commits            int64   `json:"commits"`
	Conflicts          int64   `json:"conflicts"`
	Retries            int64   `json:"retries"`
	TxsPerSec          float64 `json:"txs_per_sec"`
	P50CommitLatencyNS float64 `json:"p50_commit_latency_ns"`
	P99CommitLatencyNS float64 `json:"p99_commit_latency_ns"`

	// Reps is the number of repetitions this point is the median of
	// (absent or 1: a single run). Min/MaxTxsPerSec bound the spread
	// across the repetitions.
	Reps         int     `json:"reps,omitempty"`
	MinTxsPerSec float64 `json:"min_txs_per_sec,omitempty"`
	MaxTxsPerSec float64 `json:"max_txs_per_sec,omitempty"`
}

// CheckerBench is a hand-recorded result of
// `go test -bench Search ./internal/check`: the seed clone-based
// search versus the incremental core at 1, 2 and 4 workers over the
// same corpus and budget, in nanoseconds per corpus sweep.
type CheckerBench struct {
	Source                  string  `json:"source"`
	Corpus                  string  `json:"corpus"`
	CPUs                    int     `json:"cpus"`
	SeedCloneNSPerSweep     int64   `json:"seed_clone_ns_per_sweep"`
	IncrementalP1NSPerSweep int64   `json:"incremental_p1_ns_per_sweep"`
	IncrementalP2NSPerSweep int64   `json:"incremental_p2_ns_per_sweep"`
	IncrementalP4NSPerSweep int64   `json:"incremental_p4_ns_per_sweep"`
	SpeedupP1VsSeed         float64 `json:"speedup_p1_vs_seed"`
	Note                    string  `json:"note,omitempty"`
}

// Entry is one ledger line: a report plus the provenance needed to
// interpret it later (which commit, which host, which settings).
type Entry struct {
	Schema string `json:"schema"`
	// Time is the run's wall-clock completion time, RFC3339.
	Time string `json:"time"`
	// Tool names the emitting command ("sibench").
	Tool string `json:"tool"`
	// GitRev is the repository HEAD at run time (empty when the run
	// happened outside a git checkout or git was unavailable);
	// GitDirty marks uncommitted changes.
	GitRev   string `json:"git_rev,omitempty"`
	GitDirty bool   `json:"git_dirty,omitempty"`
	// Host is the host fingerprint: hostname/GOOS/GOARCH/ncpu — enough
	// to tell apart runs from different machines sharing one ledger.
	Host       string `json:"host"`
	GoVersion  string `json:"go_version"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Args echoes the command line that produced the run.
	Args []string `json:"args,omitempty"`
	// Report is the run's bench report.
	Report BenchReport `json:"report"`
}

// NewEntry stamps a report with the current time and host/git
// provenance. args is the producing command line (flag arguments).
func NewEntry(tool string, args []string, rep BenchReport) Entry {
	host, _ := os.Hostname()
	rev, dirty := GitRev(".")
	return Entry{
		Schema:     EntrySchema,
		Time:       time.Now().UTC().Format(time.RFC3339),
		Tool:       tool,
		GitRev:     rev,
		GitDirty:   dirty,
		Host:       fmt.Sprintf("%s/%s/%s/%d", host, runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
		GoVersion:  runtime.Version(),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Args:       args,
		Report:     rep,
	}
}

// GitRev returns the git HEAD revision of dir and whether the working
// tree is dirty. Both degrade to zero values when git is unavailable
// or dir is not a checkout — provenance is best-effort, never fatal.
func GitRev(dir string) (rev string, dirty bool) {
	out, err := gitOutput(dir, "rev-parse", "HEAD")
	if err != nil {
		return "", false
	}
	rev = strings.TrimSpace(out)
	status, err := gitOutput(dir, "status", "--porcelain")
	if err == nil && strings.TrimSpace(status) != "" {
		dirty = true
	}
	return rev, dirty
}

func gitOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var buf bytes.Buffer
	cmd.Stdout = &buf
	if err := cmd.Run(); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// Append writes e as one NDJSON line at the end of path, creating the
// file if needed. The line is written with a single O_APPEND write, so
// concurrent appenders from separate processes interleave whole lines.
func Append(path string, e Entry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	line = append(line, '\n')
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	if _, err := f.Write(line); err != nil {
		f.Close()
		return fmt.Errorf("ledger: appending to %s: %w", path, err)
	}
	return f.Close()
}

// Read loads every entry of a ledger file, oldest first. Blank lines
// are skipped; a malformed line is an error naming its number.
func Read(path string) ([]Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	defer f.Close()
	var out []Entry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var e Entry
		if err := json.Unmarshal([]byte(text), &e); err != nil {
			return nil, fmt.Errorf("ledger: %s line %d: %w", path, line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ledger: reading %s: %w", path, err)
	}
	return out, nil
}

// LoadBaseline reads a comparison baseline from path, which may be
// either a ledger NDJSON file (the newest entry matching the given
// engine, workload and mode wins, falling back to the newest entry
// overall) or a single bench-report JSON document like
// BENCH_sibench.json. mode is "" for in-process runs, "network" for
// sibench -addr runs — the two are never comparable, so a ledger
// shared between both always gates against its own kind. The returned
// string describes the chosen baseline for reporting.
func LoadBaseline(path, engine, workload, mode string) (BenchReport, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return BenchReport{}, "", fmt.Errorf("ledger: %w", err)
	}
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return BenchReport{}, "", fmt.Errorf("ledger: %s is empty", path)
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	if err := dec.Decode(&probe); err != nil {
		return BenchReport{}, "", fmt.Errorf("ledger: %s: %w", path, err)
	}
	if probe.Schema != EntrySchema {
		// A single bench-report document (e.g. the committed
		// BENCH_sibench.json artifact).
		var rep BenchReport
		if err := json.Unmarshal(trimmed, &rep); err != nil {
			return BenchReport{}, "", fmt.Errorf("ledger: %s: %w", path, err)
		}
		return rep, fmt.Sprintf("%s (bench report)", path), nil
	}
	entries, err := Read(path)
	if err != nil {
		return BenchReport{}, "", err
	}
	if len(entries) == 0 {
		return BenchReport{}, "", fmt.Errorf("ledger: %s has no entries", path)
	}
	chosen := entries[len(entries)-1]
	for i := len(entries) - 1; i >= 0; i-- {
		r := entries[i].Report
		if r.Engine == engine && r.Workload == workload && r.Mode == mode {
			chosen = entries[i]
			break
		}
	}
	desc := fmt.Sprintf("%s (ledger entry %s", path, chosen.Time)
	if chosen.GitRev != "" {
		rev := chosen.GitRev
		if len(rev) > 12 {
			rev = rev[:12]
		}
		desc += " @ " + rev
	}
	desc += ")"
	return chosen.Report, desc, nil
}
