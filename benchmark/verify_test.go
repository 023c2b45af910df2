package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sian/internal/check"
	"sian/internal/depgraph"
	"sian/internal/model"
	"sian/internal/monitor"
	"sian/internal/storage/wal"
	"sian/internal/workload"
)

// testScratch is a scratch directory next to the package, on the same
// filesystem as the repository (wal_fsync refuses tmpfs, which is where
// t.TempDir may live).
func testScratch(t *testing.T) string {
	t.Helper()
	if err := os.MkdirAll(".scratch", 0o755); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp(".scratch", "test-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

// drive runs n transactions per session on a freshly built system from
// one goroutine and returns the system, still open.
func drive(t *testing.T, workload string, n int) *system {
	t.Helper()
	sys, err := buildSystem(workload, nil, testScratch(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.close() })
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		for s, l := range sys.logics {
			l.prepare(rng)
			if err := sys.exec[s](); err != nil {
				t.Fatal(err)
			}
			l.committed()
		}
	}
	return sys
}

func snapshot(t *testing.T, sys *system, keys []model.Obj) map[model.Obj]model.Value {
	t.Helper()
	vals := map[model.Obj]model.Value{}
	for _, k := range keys {
		v, ok := sys.drv.Latest(k)
		if !ok {
			t.Fatalf("key %s has no version", k)
		}
		vals[k] = v.Val
	}
	return vals
}

func lookup(vals map[model.Obj]model.Value) finalValues {
	return func(x model.Obj) (model.Value, bool) { v, ok := vals[x]; return v, ok }
}

func wantErr(t *testing.T, what string, err error, mention string) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: the check passed, want it to fail", what)
	} else if !strings.Contains(err.Error(), mention) {
		t.Errorf("%s: error %q does not mention %q", what, err, mention)
	}
}

// TestChecksCatchADroppedIncrement: first-committer-wins and no-lost-
// update checks pass on a real outcome and fire when one increment is
// taken away from it.
func TestChecksCatchADroppedIncrement(t *testing.T) {
	sys := drive(t, wlMemHot, 200)
	var acked [hotCounters]model.Value
	keys := []model.Obj{hotKey(0), hotKey(1)}
	for _, l := range sys.logics {
		hl := l.(*hotLogic)
		keys = append(keys, hl.keys...)
		for i := range acked {
			acked[i] += hl.hotAcked[i]
		}
	}
	vals := snapshot(t, sys, keys)
	own := sys.logics[0].(*hotLogic).owned()
	if err := checkHotCounters(lookup(vals), acked); err != nil {
		t.Fatalf("true outcome: %v", err)
	}
	if err := checkOwnKeys(lookup(vals), own.keys, own.expect); err != nil {
		t.Fatalf("true outcome: %v", err)
	}

	vals[hotKey(1)]--
	wantErr(t, "hot counter short by one", checkHotCounters(lookup(vals), acked), "hot1")
	var touched model.Obj
	for i, k := range own.keys {
		if own.expect[i] > 0 {
			touched = k
			break
		}
	}
	vals[touched]--
	wantErr(t, "private key short by one", checkOwnKeys(lookup(vals), own.keys, own.expect), "lost update on "+string(touched))
	delete(vals, touched)
	wantErr(t, "private key missing", checkOwnKeys(lookup(vals), own.keys, own.expect), "no value")

	wantErr(t, "commit counter", checkCommitCount(400, 399), "400")
	if err := checkCommitCount(400, 400); err != nil {
		t.Error(err)
	}
}

// TestChecksCatchAnUnequalPair: snapshot atomicity.
func TestChecksCatchAnUnequalPair(t *testing.T) {
	sys := drive(t, wlMemReadMostly, 300)
	rl := sys.logics[0].(*readMostlyLogic)
	vals := snapshot(t, sys, rl.pool)
	var torn int64
	for _, l := range sys.logics {
		torn += l.(*readMostlyLogic).torn
	}
	if err := checkPairs(lookup(vals), rl.pool, torn, ""); err != nil {
		t.Fatalf("true outcome: %v", err)
	}
	wantErr(t, "a reader saw half a commit", checkPairs(lookup(vals), rl.pool, 1, "p000002=5 p000003=0"), "p000002=5")
	vals[rl.pool[11]]++
	wantErr(t, "a pair differs at the end", checkPairs(lookup(vals), rl.pool, 0, ""), string(rl.pool[10]))

	// The body itself notices: hand it a transaction that tears a pair.
	rl.writer, rl.pairs = false, [roPairs]int{0, 1, 2, 3}
	before := rl.torn
	if err := rl.body(tornTx{}); err != nil {
		t.Fatal(err)
	}
	if rl.torn != before+roPairs {
		t.Errorf("body counted %d torn pairs, want %d", rl.torn-before, roPairs)
	}
}

// tornTx answers every read with a different value.
type tornTx struct{}

var tornNext model.Value

func (tornTx) Read(model.Obj) (model.Value, error) { tornNext++; return tornNext, nil }
func (tornTx) Write(model.Obj, model.Value) error  { return nil }

// TestChecksCatchATruncatedLog: a log that lost its tail replays fewer
// commits than were acknowledged and does not reproduce their values.
func TestChecksCatchATruncatedLog(t *testing.T) {
	sys := drive(t, wlWalFsync, 100)
	acked := int64(200)
	if err := sys.close(); err != nil {
		t.Fatal(err)
	}
	reopen := func() (wal.RecoveryInfo, finalValues, func()) {
		d, err := wal.Open(wal.Options{Dir: sys.walDir})
		if err != nil {
			t.Fatal(err)
		}
		final := func(x model.Obj) (model.Value, bool) { v, ok := d.Latest(x); return v.Val, ok }
		return d.Recovery(), final, func() { d.Close() }
	}
	info, final, done := reopen()
	if err := checkRecovery(info, acked+1); err != nil {
		t.Fatalf("intact log: %v", err)
	}
	for _, l := range sys.logics {
		own := l.(*disjointLogic).owned()
		if err := checkOwnKeys(final, own.keys, own.expect); err != nil {
			t.Fatalf("intact log: %v", err)
		}
	}
	done()

	segs, err := filepath.Glob(filepath.Join(sys.walDir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no log segments in %s (%v)", sys.walDir, err)
	}
	// The reopen above added an empty segment; cut the one with data.
	var victim string
	var size int64
	for _, s := range segs {
		if st, err := os.Stat(s); err == nil && st.Size() > size {
			victim, size = s, st.Size()
		}
	}
	if err := os.Truncate(victim, size/2); err != nil {
		t.Fatal(err)
	}
	// Recovery only forgives a torn tail in the final segment.
	for _, s := range segs {
		if s > victim {
			if err := os.Remove(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	info, final, done = reopen()
	defer done()
	wantErr(t, "half the log gone", checkRecovery(info, acked+1), "were acknowledged")
	lost := false
	for _, l := range sys.logics {
		own := l.(*disjointLogic).owned()
		lost = lost || checkOwnKeys(final, own.keys, own.expect) != nil
	}
	if !lost {
		t.Error("half the log gone, yet every acknowledged value was recovered")
	}
	wantErr(t, "uncertified recovery", checkRecovery(wal.RecoveryInfo{LastLSN: uint64(acked + 1), Verdict: "certification skipped"}, acked+1), "not certified")
}

// TestChecksCatchARejectedHistory: the verdict checks fire on a
// non-member, and the lost-update history really is one.
func TestChecksCatchARejectedHistory(t *testing.T) {
	if err := checkRejectsLostUpdate(); err != nil {
		t.Fatal(err)
	}
	res, err := check.Certify(workload.LostUpdate().History, depgraph.SI, check.Options{NoInit: true, PinInit: true})
	if err != nil {
		t.Fatal(err)
	}
	wantErr(t, "offline verdict on lost update", checkOfflineVerdict(res), "rejected H_off")
	wantErr(t, "monitor non-member", checkMonitorVerdict(&monitor.Report{Member: false, Commits: 5}, 5), "rejected H_on")
	wantErr(t, "monitor violation", checkMonitorVerdict(&monitor.Report{Member: true, Commits: 5, Violations: make([]monitor.Violation, 1)}, 5), "1 violations")
	wantErr(t, "monitor skipped commits", checkMonitorVerdict(&monitor.Report{Member: true, Commits: 4}, 5), "judged 4")
	if err := checkMonitorVerdict(&monitor.Report{Member: true, Commits: 5}, 5); err != nil {
		t.Error(err)
	}
}
