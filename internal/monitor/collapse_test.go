package monitor

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"sian/internal/model"
	"sian/internal/obs"
	"sian/internal/obs/eventlog"
)

// replayCollapse is the collapse the monitor shipped with before it
// learned to edit the graph in place, kept as the oracle of the
// differential test below: drop the prefix, then throw the incremental
// state away and replay every survivor through applyTx into fresh
// relations, renumbering the carrier.
func replayCollapse(m *Monitor, k int) {
	m.advanceFrontier(k)
	m.nRebuilds++
	m.rebuild(m.cap)
}

// streamShape parameterises genStream.
type streamShape struct {
	sessions, objects, txns int
	// dupPerMille is the chance that a write reuses a value the object
	// held recently instead of a fresh one. Reads of such a value are
	// ambiguous: value tracing may attribute them to the wrong writer.
	dupPerMille int
	// blindDupPerMille is the chance that a transaction also writes an
	// object nobody reads, from a domain of three values that includes
	// the initial one: collisions among live writers and with the
	// frontier come and go with the window, yet no read is ambiguous.
	blindDupPerMille int
	// swapPerMille is the chance that a commit is delivered after the
	// next commit of another session — a pending read if that one read
	// it, a version chain out of arrival order if both wrote the same
	// object (the fast candidate then fails and the slow path's witness
	// is adopted, with chains no longer in arrival order).
	swapPerMille int
	// readOnlyPerMille is the share of read-only transactions.
	readOnlyPerMille int
	inStreamInit     bool
	// lostUpdateAt, if positive, makes that transaction and the next
	// increment one object from the same version.
	lostUpdateAt int
}

// genStream executes txns transactions one after the other against a
// small store (a serial, hence serializable, execution unless a lost
// update is injected) and returns their events in delivery order.
func genStream(rng *rand.Rand, sh streamShape) []eventlog.Event {
	key := func(i int) model.Obj { return model.Obj(fmt.Sprintf("k%d", i)) }
	type txn struct {
		session, id, name string
		ops               []model.Op
	}
	state := make([]model.Value, sh.objects)
	recent := make([][]model.Value, sh.objects)
	next := model.Value(0)
	write := func(k int) model.Op {
		next++
		v := next
		if r := recent[k]; len(r) > 0 && rng.Intn(1000) < sh.dupPerMille {
			v = r[rng.Intn(len(r))]
		}
		state[k] = v
		recent[k] = append(recent[k], v)
		if len(recent[k]) > 3 {
			recent[k] = recent[k][1:]
		}
		return model.Write(key(k), v)
	}
	var txns []txn
	if sh.inStreamInit {
		t := txn{session: model.InitTransactionID, id: "init#1", name: model.InitTransactionID}
		for k := range state {
			next++
			state[k] = next
			t.ops = append(t.ops, model.Write(key(k), next))
		}
		txns = append(txns, t)
	}
	var stale model.Value
	for i := 0; i < sh.txns; i++ {
		s := rng.Intn(sh.sessions)
		t := txn{session: fmt.Sprintf("s%d", s), id: fmt.Sprintf("s%d#%d", s, i), name: fmt.Sprintf("T%d", i)}
		switch {
		case sh.lostUpdateAt > 0 && i == sh.lostUpdateAt:
			stale = state[0]
			t.ops = []model.Op{model.Read(key(0), stale), write(0)}
		case sh.lostUpdateAt > 0 && i == sh.lostUpdateAt+1:
			t.session, t.id = "lost", "lost#1"
			t.ops = []model.Op{model.Read(key(0), stale), write(0)}
		case rng.Intn(1000) < sh.readOnlyPerMille:
			for _, k := range rng.Perm(sh.objects)[:2] {
				t.ops = append(t.ops, model.Read(key(k), state[k]))
			}
		default:
			ks := rng.Perm(sh.objects)
			t.ops = append(t.ops, model.Read(key(ks[0]), state[ks[0]]))
			if rng.Intn(2) == 0 {
				t.ops = append(t.ops, model.Read(key(ks[1]), state[ks[1]]))
			}
			t.ops = append(t.ops, write(ks[0]))
			if rng.Intn(8) == 0 {
				t.ops = append(t.ops, write(ks[2%len(ks)])) // a blind write
			}
		}
		if rng.Intn(1000) < sh.blindDupPerMille {
			t.ops = append(t.ops, model.Write("unread", model.Value(rng.Intn(3))))
		}
		txns = append(txns, t)
	}
	first := 0
	if sh.inStreamInit {
		first = 1 // the init commit is delivered first
	}
	for i := first; i+1 < len(txns); i++ {
		if txns[i].session != txns[i+1].session && rng.Intn(1000) < sh.swapPerMille {
			txns[i], txns[i+1] = txns[i+1], txns[i]
			i++
		}
	}
	var evs []eventlog.Event
	emit := func(ev eventlog.Event) {
		ev.Seq = int64(len(evs) + 1)
		evs = append(evs, ev)
	}
	for _, t := range txns {
		emit(eventlog.Event{Kind: eventlog.Begin, Session: t.session, TxID: t.id})
		for _, op := range t.ops {
			kind := eventlog.Read
			if op.Kind == model.OpWrite {
				kind = eventlog.Write
			}
			emit(eventlog.Event{Kind: kind, Session: t.session, TxID: t.id, Obj: op.Obj, Val: op.Val})
		}
		emit(eventlog.Event{Kind: eventlog.Commit, Session: t.session, TxID: t.id, Name: t.name})
	}
	return evs
}

// TestCollapseDifferential drives the in-place collapse and the
// replaying oracle with the same seeded streams — five models, three
// windows, streams with duplicate values, pending reads, an in-stream
// init, out-of-order delivery (slow-path episodes whose adopted
// witness leaves version chains out of arrival order, so collapsed
// writers are not at the chain head) and injected lost updates — and
// requires the same verdict at every commit and the same final
// report. The in-place collapse keeps an adopted witness where the
// replay reverts to the arrival candidate, so it may take the slow
// path less often, never more.
//
// One family is held to less. When reads can observe duplicated values
// the two collapses stop being the same function of the stream once a
// witness has been adopted: the replay re-attributes every ambiguous
// read by arrival at the next collapse, the in-place collapse keeps
// the attribution that was certified, and collapseOK, which looks at
// attributions, may then let one window advance a commit before the
// other. Both stay sound, so on those (serial, hence member) streams
// the comparison is exact up to the first slow-path episode, and from
// there on the in-place monitor alone is held to the truth: it reports
// no violation. (That family skips Window 62, where the search over
// duplicated values runs to its budget at every commit of the replay.)
func TestCollapseDifferential(t *testing.T) {
	t.Parallel()
	// Sizes are for Window 4; wider windows get longer streams over
	// more objects with rarer swaps (see below).
	shapes := map[string]streamShape{
		"clean":      {sessions: 3, objects: 3, txns: 120, readOnlyPerMille: 150},
		"reordered":  {sessions: 4, objects: 3, txns: 120, swapPerMille: 120, readOnlyPerMille: 150},
		"init":       {sessions: 3, objects: 4, txns: 120, swapPerMille: 60, inStreamInit: true},
		"blinddups":  {sessions: 3, objects: 3, txns: 120, swapPerMille: 80, blindDupPerMille: 120},
		"lostupdate": {sessions: 3, objects: 3, txns: 120, swapPerMille: 40, lostUpdateAt: 100},
		"dups":       {sessions: 3, objects: 2, txns: 120, dupPerMille: 60, readOnlyPerMille: 100},
	}
	var total pairStats
	for name, sh := range shapes {
		for _, mdl := range allModels {
			for _, window := range []int{4, 16, 62} {
				if sh.dupPerMille > 0 && window == 62 {
					continue
				}
				// While an out-of-order pair is live the replay searches at
				// every commit, and the search is exponential in the
				// unordered writers per object: keep episodes as frequent
				// per window, and chains as long, at every width.
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
					st := comparePair(t, label, evs, Config{Model: mdl, Window: window, Budget: 1000}, sh.dupPerMille > 0)
					total.add(st)
				}
			}
		}
	}
	// The suite must actually exercise what it claims to.
	if total.collapsed < total.commits/2 {
		t.Errorf("only %d of %d commits were collapsed", total.collapsed, total.commits)
	}
	if total.slowInPlace < 100 {
		t.Errorf("only %d slow-path certifications ran", total.slowInPlace)
	}
	if total.midChain == 0 {
		t.Error("no collapsed writer was ever behind a survivor in its version chain")
	}
	if total.dupReports == 0 {
		t.Error("no stream ended with duplicate values live in its window")
	}
	t.Logf("%+v", total)
}

// pairStats is what one in-place/replay pair went through.
type pairStats struct {
	commits, collapsed      int64
	slowInPlace, slowReplay int64
	midChain                int64 // collapses of a writer with a survivor before it in a chain
	dupReports              int64 // streams that ended with duplicates live
	abandoned               int64 // streams cut short by a spurious replay rejection
}

func (s *pairStats) add(o pairStats) {
	s.commits += o.commits
	s.collapsed += o.collapsed
	s.slowInPlace += o.slowInPlace
	s.slowReplay += o.slowReplay
	s.midChain += o.midChain
	s.dupReports += o.dupReports
	s.abandoned += o.abandoned
}

// comparePair feeds evs to an in-place monitor and to a replaying one
// and compares them as TestCollapseDifferential describes; ambiguous
// marks the family whose reads can observe duplicated values.
func comparePair(t *testing.T, label string, evs []eventlog.Event, cfg Config, ambiguous bool) (st pairStats) {
	t.Helper()
	inPlace, oracle := New(cfg), New(cfg)
	inPlace.collapse = func(m *Monitor, k int) {
		for _, p := range m.win[:k] {
			for _, w := range p.fin {
				for i, c := range m.chain[w.obj] {
					if c == p && i > 0 && m.chain[w.obj][i-1].ord >= m.cut(k) {
						st.midChain++
					}
				}
			}
		}
		before := m.nRebuilds
		m.collapseInPlace(k)
		if m.nRebuilds != before {
			t.Errorf("%s: in-place collapse replayed the window", label)
		}
	}
	oracle.collapse = replayCollapse
	exact := true
	for _, ev := range evs {
		got, want := inPlace.Ingest(ev), oracle.Ingest(ev)
		if (got == nil) != (want == nil) {
			t.Fatalf("%s event %d: verdict presence diverged", label, ev.Seq)
		}
		if got == nil {
			continue
		}
		if ambiguous && (got.Checked || want.Checked) {
			exact = false
		}
		if !exact {
			if got.Violation != nil {
				t.Fatalf("%s commit %s: violation on a serial stream: %v", label, got.Txn, got.Violation)
			}
			continue
		}
		if want.Checked && !got.Checked && got.Member && !want.Member &&
			((want.Violation == nil && oracle.err != nil) || (got.Pending > 0 && want.Violation.Axiom == "EXT")) {
			// The replay reverted an adopted witness, failed the fast
			// check again, and its search gave up — out of budget, or on
			// a read whose writer has yet to arrive: a conservative
			// rejection that taints it for good. The in-place collapse
			// kept the witness and had no need to search.
			st.abandoned++
			return st
		}
		if got.Member != want.Member || got.Pending != want.Pending || got.Window != want.Window ||
			!reflect.DeepEqual(got.Violation, want.Violation) {
			t.Fatalf("%s commit %s: verdict diverged\nin place %+v (violation %v, err %v)\noracle   %+v (violation %v, err %v)",
				label, got.Txn, *got, got.Violation, inPlace.err, *want, want.Violation, oracle.err)
		}
	}
	got, gotErr := inPlace.Finish()
	want, wantErr := oracle.Finish()
	if !exact {
		if len(got.Violations) > 0 {
			t.Fatalf("%s: violations on a serial stream: %v", label, got.Violations)
		}
	} else {
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: finish error diverged: in place %v, oracle %v", label, gotErr, wantErr)
		}
		if got.Member != want.Member || got.Definitive != want.Definitive || got.DupVals != want.DupVals ||
			got.GCd != want.GCd || got.Pending != want.Pending || len(got.Violations) != len(want.Violations) {
			t.Fatalf("%s: report diverged\nin place %+v\noracle   %+v", label, *got, *want)
		}
		if got.Rechecks > want.Rechecks {
			t.Errorf("%s: in-place collapse rechecked %d times, the replay %d", label, got.Rechecks, want.Rechecks)
		}
	}
	st.commits, st.collapsed = got.Commits, got.GCd
	st.slowInPlace, st.slowReplay = got.Rechecks, want.Rechecks
	if got.DupVals {
		st.dupReports++
	}
	return st
}

// hotStream returns n read-modify-write commits by four sessions over
// four hot and sixty cold keys — the shape of the repository
// benchmark's monitor input — as events.
func hotStream(n int) []eventlog.Event {
	rng := rand.New(rand.NewSource(1))
	state := make(map[model.Obj]model.Value)
	var evs []eventlog.Event
	for i := 1; i <= n; i++ {
		sess := fmt.Sprintf("c%d", rng.Intn(4))
		txid := fmt.Sprintf("%s#%d", sess, i)
		evs = append(evs, eventlog.Event{Kind: eventlog.Begin, Session: sess, TxID: txid})
		for _, x := range []model.Obj{
			model.Obj(fmt.Sprintf("h%d", rng.Intn(4))),
			model.Obj(fmt.Sprintf("k%02d", rng.Intn(60))),
		} {
			evs = append(evs,
				eventlog.Event{Kind: eventlog.Read, Session: sess, TxID: txid, Obj: x, Val: state[x]},
				eventlog.Event{Kind: eventlog.Write, Session: sess, TxID: txid, Obj: x, Val: model.Value(2*i) + model.Value(len(x)%2)})
			state[x] = model.Value(2*i) + model.Value(len(x)%2)
		}
		evs = append(evs, eventlog.Event{Kind: eventlog.Commit, Session: sess, TxID: txid})
	}
	for i := range evs {
		evs[i].Seq = int64(i + 1)
	}
	return evs
}

// TestLongStreamStaysBounded: 20 000 commits at Window 62 leave the
// carrier at its initial size, never replay the window, and leave the
// live heap where it was after the first 5 000. The closure journal
// used to grow with every edge of the stream once nothing replayed the
// window (relation.TestClosureKeepsNoJournalUnlessCheckpointed pins
// that half).
func TestLongStreamStaysBounded(t *testing.T) {
	const window = 62
	reg := obs.NewRegistry()
	mon := New(Config{Window: window, Metrics: reg})
	evs := hotStream(20000)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var early uint64
	commits := 0
	for _, ev := range evs {
		if v := mon.Ingest(ev); v != nil {
			if !v.Member {
				t.Fatalf("commit %s rejected: %v", v.Txn, v.Violation)
			}
			if commits++; commits == 5000 {
				early = heap()
			}
		}
	}
	late := heap()
	if mon.cap != window+2 {
		t.Errorf("carrier grew to %d slots, want %d", mon.cap, window+2)
	}
	if n := reg.Counter("monitor_rebuilds_total", obs.L("model", "SI")).Value(); n != 0 || mon.nRebuilds != 0 {
		t.Errorf("window replayed %d times (counter %d), want 0", mon.nRebuilds, n)
	}
	if mon.Window() > window {
		t.Errorf("window holds %d transactions, want at most %d", mon.Window(), window)
	}
	// The two samples hold the same window, frontier and event slice;
	// allow a little for allocator noise.
	if late > early+256<<10 {
		t.Errorf("live heap grew from %d to %d bytes between commit 5000 and commit 20000", early, late)
	}
	rep, err := mon.Finish()
	if err != nil || !rep.Member || rep.GCd != 20000-window {
		t.Errorf("report %+v, err %v; want a member with %d collapsed", rep, err, 20000-window)
	}
}

// TestSessionsForgotten: ten thousand clients that each commit once
// leave the monitor holding the sessions of its window, not of its
// history, and window histories keep the survivors in first-seen
// order.
func TestSessionsForgotten(t *testing.T) {
	t.Parallel()
	const n, window = 10000, 8
	mon := New(Config{Window: window})
	seq := int64(0)
	ingest := func(ev eventlog.Event) *Verdict {
		seq++
		ev.Seq = seq
		return mon.Ingest(ev)
	}
	for i := 1; i <= n; i++ {
		sess := fmt.Sprintf("conn%d", i)
		ingest(eventlog.Event{Kind: eventlog.Begin, Session: sess, TxID: "1"})
		ingest(eventlog.Event{Kind: eventlog.Read, Session: sess, TxID: "1", Obj: "x", Val: model.Value(i - 1)})
		ingest(eventlog.Event{Kind: eventlog.Write, Session: sess, TxID: "1", Obj: "x", Val: model.Value(i)})
		if v := ingest(eventlog.Event{Kind: eventlog.Commit, Session: sess, TxID: "1"}); !v.Member {
			t.Fatalf("commit %d rejected", i)
		}
	}
	if len(mon.sessions) != window || len(mon.sessTxs) != window || len(mon.sessLast) != window {
		t.Fatalf("sessions/sessTxs/sessLast hold %d/%d/%d entries, want %d each",
			len(mon.sessions), len(mon.sessTxs), len(mon.sessLast), window)
	}
	for i, sid := range mon.sessions {
		if want := fmt.Sprintf("conn%d", n-window+1+i); sid != want {
			t.Errorf("sessions[%d] = %s, want %s (first-seen order)", i, sid, want)
		}
	}
	h, _ := mon.windowHistory()
	if h.NumSessions() != window+1 {
		t.Errorf("window history has %d sessions, want %d and the init", h.NumSessions(), window)
	}
	rep, err := mon.Finish()
	if err != nil || !rep.Member || rep.GCd != n-window {
		t.Errorf("report %+v, err %v", rep, err)
	}
}

// BenchmarkMonitorIngest streams the hot-key workload through a
// Window-62 monitor. One op is one commit (its begin, reads and writes
// included); replays/commit counts carrier rebuilds and is 0 when the
// collapse never leaves the in-place path.
func BenchmarkMonitorIngest(b *testing.B) {
	evs := hotStream(4000)
	b.ReportAllocs()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	var commits, rebuilds int64
	for commits < int64(b.N) {
		mon := New(Config{Window: 62})
		for _, ev := range evs {
			if v := mon.Ingest(ev); v != nil {
				if !v.Member {
					b.Fatalf("commit %s rejected", v.Txn)
				}
				if commits++; commits == int64(b.N) {
					break
				}
			}
		}
		rebuilds += mon.nRebuilds
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(commits), "ns/commit")
	b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(commits), "B/commit")
	b.ReportMetric(float64(rebuilds)/float64(commits), "replays/commit")
}
