package monitor

import (
	"fmt"
	"math/rand"
	"testing"

	"sian/internal/depgraph"
	"sian/internal/obs/eventlog"
)

// incrementalModels are the models whose rows have a cycle test through
// one commit.
var incrementalModels = []depgraph.Model{depgraph.SER, depgraph.SI, depgraph.GSI}

// crossChecked feeds evs to a monitor for cfg that holds every verdict
// of the search through a commit against the whole-carrier test, and
// returns it. A stream stops at its first violation.
func crossChecked(t *testing.T, label string, evs []eventlog.Event, cfg Config) *Monitor {
	t.Helper()
	mon := New(cfg)
	mon.onThrough = func(m *Monitor, ok bool) {
		if full := depgraph.ClosureInModel(m.model, m.cl, m.rw, m.so, m.wrAll, m.scratch) == nil; ok != full {
			t.Fatalf("%s commit %d: the search through the commit says member=%v, the whole carrier %v", label, m.nCommits, ok, full)
		}
	}
	for _, ev := range evs {
		if v := mon.Ingest(ev); v != nil && v.Violation != nil {
			break
		}
	}
	return mon
}

// TestThroughMatchesWholeCarrier holds the search through each commit
// against the whole-carrier test on every commit it decides: the
// families of TestCollapseDifferential at windows 4, 8 and 62 (their
// collapses re-point reads to live duplicates and re-derive
// anti-dependencies on reordered chains, their slow paths adopt
// witnesses), the streams of TestRecycledRecordsNeverAliased, and an
// unwindowed stream per model, whose carrier outgrows one word.
func TestThroughMatchesWholeCarrier(t *testing.T) {
	t.Parallel()
	families := map[string]streamShape{
		"clean":      {sessions: 3, objects: 3, txns: 120, readOnlyPerMille: 150},
		"reordered":  {sessions: 4, objects: 3, txns: 120, swapPerMille: 120, readOnlyPerMille: 150},
		"init":       {sessions: 3, objects: 4, txns: 120, swapPerMille: 60, inStreamInit: true},
		"blinddups":  {sessions: 3, objects: 3, txns: 120, swapPerMille: 80, blindDupPerMille: 120},
		"lostupdate": {sessions: 3, objects: 3, txns: 120, swapPerMille: 40, lostUpdateAt: 100},
		"dups":       {sessions: 3, objects: 2, txns: 120, dupPerMille: 60, readOnlyPerMille: 100},
	}
	var decided, commits int64
	for name, sh := range families {
		for _, mdl := range incrementalModels {
			for _, window := range []int{4, 8, 62} {
				if sh.dupPerMille > 0 && window == 62 {
					continue // every search over duplicates runs to its budget
				}
				sh := sh
				sh.objects += window / 4
				sh.txns += 3 * window
				sh.swapPerMille = sh.swapPerMille * 8 / (4 + window)
				if sh.lostUpdateAt > 0 {
					sh.lostUpdateAt += 3 * window
				}
				for seed := int64(0); seed < 4; seed++ {
					label := fmt.Sprintf("%s/%v/w%d/seed%d", name, mdl, window, seed)
					evs := genStream(rand.New(rand.NewSource(seed*7919+int64(window))), sh)
					mon := crossChecked(t, label, evs, Config{Model: mdl, Window: window, Budget: 1000})
					decided += mon.nThrough
					commits += mon.nCommits
				}
			}
		}
	}
	for _, window := range []int{4, 8, 62} {
		dups := streamShape{sessions: 4, objects: 5, txns: 20000, dupPerMille: 15, readOnlyPerMille: 100, blindDupPerMille: 40}
		if window == 62 {
			dups.dupPerMille = 0
		}
		reordered := streamShape{sessions: 4, objects: 8, txns: 10000, swapPerMille: 5, readOnlyPerMille: 100}
		for name, sh := range map[string]streamShape{"recycled-dups": dups, "recycled-reordered": reordered} {
			label := fmt.Sprintf("%s/w%d", name, window)
			evs := genStream(rand.New(rand.NewSource(int64(window))), sh)
			mon := crossChecked(t, label, evs, Config{Window: window, Budget: 1000})
			decided += mon.nThrough
			commits += mon.nCommits
		}
	}
	for _, mdl := range incrementalModels {
		label := fmt.Sprintf("unwindowed/%v", mdl)
		sh := streamShape{sessions: 4, objects: 24, txns: 150, swapPerMille: 20, readOnlyPerMille: 150}
		mon := crossChecked(t, label, genStream(rand.New(rand.NewSource(5)), sh), Config{Model: mdl, Budget: 1000})
		if mon.cap <= 64 || mon.nThrough < mon.nCommits/2 {
			t.Errorf("%s: carrier of %d slots, %d of %d commits decided through the commit; want several words and most commits", label, mon.cap, mon.nThrough, mon.nCommits)
		}
		decided += mon.nThrough
		commits += mon.nCommits
	}
	t.Logf("%d of %d commits decided by the search through the commit", decided, commits)
	if decided < commits/2 {
		t.Errorf("only %d of %d commits were decided by the search through the commit", decided, commits)
	}
}

// TestThroughDecidesHotStream: on the hot-key stream the search through
// the commit decides all but a handful of commits (the first, and any
// after a collapse that re-pointed a read), so a silent fall-back to the
// whole-carrier test cannot pass for the incremental one.
func TestThroughDecidesHotStream(t *testing.T) {
	t.Parallel()
	evs := hotStream(4000)
	for _, mdl := range incrementalModels {
		mon := New(Config{Model: mdl, Window: 62})
		for _, ev := range evs {
			if v := mon.Ingest(ev); v != nil && !v.Member {
				t.Fatalf("%v: commit %s rejected", mdl, v.Txn)
			}
		}
		if mon.nThrough*100 < mon.nCommits*99 {
			t.Errorf("%v: %d of %d commits decided through the commit, want 99 %%", mdl, mon.nThrough, mon.nCommits)
		}
	}
	for _, mdl := range []depgraph.Model{depgraph.PSI, depgraph.PC} {
		mon := New(Config{Model: mdl, Window: 62})
		for _, ev := range evs[:400] {
			mon.Ingest(ev)
		}
		if mon.nThrough != 0 {
			t.Errorf("%v: %d commits decided through the commit, a test its row does not have", mdl, mon.nThrough)
		}
	}
}
