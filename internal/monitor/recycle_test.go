package monitor

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// checkNoFreedRecords fails when a live structure of m — the window, a
// session, a version chain, the current readers, the live readers, the
// value index, a resolved read, a session predecessor or a pending
// read — points at a record on the free list, or when a record is on
// the free list twice or in the window twice (arrival order is strict).
func checkNoFreedRecords(t *testing.T, label string, m *Monitor) {
	t.Helper()
	freed := make(map[*winTx]bool, len(m.freeTx))
	for _, r := range m.freeTx {
		if freed[r] {
			t.Fatalf("%s: record %s is on the free list twice", label, r.id)
		}
		freed[r] = true
	}
	// check names the holder only on failure: this runs at every collapse.
	check := func(r *winTx, what string, of fmt.Stringer) {
		if r != nil && freed[r] {
			t.Fatalf("%s: %s %v points at freed record %s", label, what, of, r.id)
		}
	}
	for i, w := range m.win {
		if i > 0 && m.win[i-1].ord >= w.ord {
			t.Fatalf("%s: window out of arrival order (or a record twice) at %s", label, w.id)
		}
		check(w, "the window", nil)
		check(w.prevSame, "the session predecessor of", w)
		for _, r := range w.reads {
			check(r.writer, "a resolved read of", w)
		}
	}
	for _, s := range m.sessions {
		for _, w := range s.txs {
			check(w, "a session", nil)
		}
	}
	for _, x := range m.objects {
		for _, w := range x.chain {
			check(w, "the version chain of", x)
		}
		for _, w := range x.cur {
			check(w, "the current readers of", x)
		}
		for _, w := range x.readers {
			check(w, "the readers of", x)
		}
		for _, w := range x.byVal {
			check(w, "the value index of", x)
		}
	}
	for _, p := range m.pending {
		check(p.reader, "a pending read", nil)
	}
}

func (t *winTx) String() string    { return t.id }
func (x *objState) String() string { return string(x.name) }

// TestRecycledRecordsNeverAliased streams commits over a few hot keys
// through monitors of three windows — 20 000 with duplicate values,
// whose misattributed reads send the fast path to the search and its
// witness to adoption, then up to 10 000 delivered slightly out of
// order, whose reads wait pending for a late writer — and after every
// collapse requires that no live pointer reaches a record the collapse
// put on the free list. The records must actually be reused.
//
// Out-of-order delivery through a small window soon ends in a
// conservative rejection (a read of a version already collapsed), after
// which nothing collapses; that stream stops at its first violation,
// which must not be definitive. No other violation is allowed: both
// streams are serial executions.
func TestRecycledRecordsNeverAliased(t *testing.T) {
	t.Parallel()
	for _, window := range []int{4, 8, 62} {
		dups := streamShape{sessions: 4, objects: 5, txns: 20000, dupPerMille: 15, readOnlyPerMille: 100, blindDupPerMille: 40}
		if window == 62 {
			// Ambiguous reads in a wide window make every search run to its
			// budget; blind duplicates keep the value index busy instead.
			dups.dupPerMille = 0
		}
		reordered := streamShape{sessions: 4, objects: 8, txns: 10000, swapPerMille: 5, readOnlyPerMille: 100}
		var pending, adopted, dupCommits int
		for _, shape := range []struct {
			name string
			sh   streamShape
		}{{"dups", dups}, {"reordered", reordered}} {
			label := fmt.Sprintf("%s/w%d", shape.name, window)
			evs := genStream(rand.New(rand.NewSource(int64(window))), shape.sh)
			mon := New(Config{Window: window, Budget: 1000})
			collapses := 0
			mon.collapse = func(m *Monitor, k int) {
				m.collapseInPlace(k)
				collapses++
				checkNoFreedRecords(t, fmt.Sprintf("%s collapse %d", label, collapses), m)
			}
			records := make(map[*winTx]bool)
			peak := 0
			start := time.Now()
			for _, ev := range evs {
				v := mon.Ingest(ev)
				if v == nil {
					continue
				}
				if v.Violation != nil {
					if v.Violation.Definitive || shape.name != "reordered" {
						t.Fatalf("%s commit %s: violation on a serial stream: %v", label, v.Txn, v.Violation)
					}
					break
				}
				if n := len(mon.win); n > 0 {
					records[mon.win[n-1]] = true
					peak = max(peak, n)
				}
				if v.Pending > 0 {
					pending++
				}
				if v.Checked && v.Member {
					adopted++
				}
				if mon.dupVals {
					dupCommits++
				}
			}
			if shape.name == "dups" {
				if rep, err := mon.Finish(); err != nil || !rep.Member || rep.GCd < int64(shape.sh.txns)*9/10 {
					t.Fatalf("%s: report %+v, err %v; want a member with most commits collapsed", label, rep, err)
				}
			}
			// A record is made only when every earlier one is live, and
			// the window holds one more than peak before each collapse.
			if len(records) > peak+1 {
				t.Errorf("%s: %d distinct records for a window that peaked at %d: retired records are not reused", label, len(records), peak)
			}
			t.Logf("%s: %d commits, %d collapses, %d records, %v", label, mon.nCommits, collapses, len(records), time.Since(start))
		}
		if pending == 0 || adopted == 0 || dupCommits == 0 {
			t.Errorf("w%d: %d verdicts with pending reads, %d adopted witnesses, %d with duplicates live", window, pending, adopted, dupCommits)
		}
	}
}

// TestIngestAllocs: a warmed Window-62 monitor on the hot-key stream
// allocates one object per commit, the *Verdict it returns. Records,
// attempts and sessions are recycled, op lists reused, and the
// membership test runs in the monitor's scratch relations. What else
// allocates is a version chain, a reader list or a value index growing
// past its high-water mark, which gets rarer as the stream goes on;
// it may add 1 % at most.
func TestIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own behalf")
	}
	evs := hotStream(12000)
	mon := New(Config{Window: 62})
	warm := len(evs) * 2 / 3
	for _, ev := range evs[:warm] {
		mon.Ingest(ev)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	commits := 0
	for _, ev := range evs[warm:] {
		if v := mon.Ingest(ev); v != nil {
			commits++
			if !v.Member {
				t.Fatalf("commit %s rejected", v.Txn)
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	perCommit := float64(ms1.Mallocs-ms0.Mallocs) / float64(commits)
	t.Logf("%.4f allocations per commit over %d warm commits", perCommit, commits)
	if perCommit > 1.01 {
		t.Errorf("%.4f allocations per commit over %d warm commits, want one (the verdict)", perCommit, commits)
	}
	if mon.nGCd == 0 || mon.nRebuilds != 0 {
		t.Errorf("%d collapsed, %d replays: the stream left the in-place path", mon.nGCd, mon.nRebuilds)
	}
}
