package monitor

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sian/internal/check"
	"sian/internal/depgraph"
	"sian/internal/histio"
	"sian/internal/model"
	"sian/internal/obs"
	"sian/internal/obs/eventlog"
	"sian/internal/workload"
)

var allModels = []depgraph.Model{depgraph.SER, depgraph.SI, depgraph.PSI, depgraph.PC, depgraph.GSI}

// offlineCertify mirrors how sicheck certifies a static history: a
// leading transaction named "init" is taken as the history's own
// initialisation (pinned first), otherwise the checker's virtual init
// is added.
func offlineCertify(t *testing.T, h *model.History, m depgraph.Model) *check.Result {
	t.Helper()
	var opts check.Options
	if h.NumTransactions() > 0 && h.Transaction(0).ID == model.InitTransactionID {
		opts.NoInit = true
		opts.PinInit = true
	}
	res, err := check.Certify(h, m, opts)
	if err != nil {
		t.Fatalf("offline certify: %v", err)
	}
	return res
}

// streamHistory replays a static history through a monitor and
// returns the final report.
func streamHistory(t *testing.T, h *model.History, cfg Config) *Report {
	t.Helper()
	mon := New(cfg)
	for _, ev := range histio.HistoryToEvents(h) {
		mon.Ingest(ev)
	}
	rep, err := mon.Finish()
	if err != nil {
		t.Fatalf("monitor finish: %v", err)
	}
	return rep
}

// TestDifferentialExamples checks the monitor against the offline
// certifier (and the paper's expected classifications) on the worked
// examples, across every model.
func TestDifferentialExamples(t *testing.T) {
	t.Parallel()
	for _, ex := range workload.Examples() {
		for _, m := range allModels {
			off := offlineCertify(t, ex.History, m)
			rep := streamHistory(t, ex.History, Config{Model: m})
			if rep.Member != off.Member {
				t.Errorf("%s under %v: monitor member = %v, offline = %v",
					ex.Name, m, rep.Member, off.Member)
			}
			if !rep.Definitive {
				t.Errorf("%s under %v: verdict not definitive without GC", ex.Name, m)
			}
			if !rep.Member {
				if len(rep.Violations) == 0 {
					t.Errorf("%s under %v: non-member without violations", ex.Name, m)
				}
				if rep.Final != nil && off.Explain != nil && rep.Final.Axiom != off.Explain.Axiom {
					t.Errorf("%s under %v: final axiom %q, offline %q",
						ex.Name, m, rep.Final.Axiom, off.Explain.Axiom)
				}
			}
		}
	}
}

// TestDifferentialTestdata streams the repository's example history
// files and compares verdicts with the offline certifier.
func TestDifferentialTestdata(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"writeskew_history.json", "longfork_history.json"} {
		f, err := os.Open(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		h, err := histio.DecodeHistory(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range allModels {
			off := offlineCertify(t, h, m)
			rep := streamHistory(t, h, Config{Model: m})
			if rep.Member != off.Member {
				t.Errorf("%s under %v: monitor member = %v, offline = %v",
					name, m, rep.Member, off.Member)
			}
		}
	}
}

// TestDifferentialRandom checks monitor/offline agreement on seeded
// random histories — both the unconstrained generator (mostly
// non-members, small value domains forcing duplicate-value branching)
// and the plausible generator (mostly members, unique values).
func TestDifferentialRandom(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("differential sweep")
	}
	cfg := workload.RandomConfig{Sessions: 3, TxPerSession: 2, OpsPerTx: 3, Objects: 2, Values: 3}
	for i := 0; i < 60; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		h := workload.RandomHistory(rng, cfg)
		if i%2 == 1 {
			h = workload.RandomPlausibleHistory(rng, cfg)
		}
		m := allModels[i%len(allModels)]
		off := offlineCertify(t, h, m)
		rep := streamHistory(t, h, Config{Model: m})
		if rep.Member != off.Member {
			t.Errorf("seed %d under %v: monitor member = %v, offline = %v",
				i, m, rep.Member, off.Member)
		}
		if !rep.Definitive {
			t.Errorf("seed %d under %v: verdict not definitive without GC", i, m)
		}
	}
}

// TestOnlineViolationLostUpdate checks that the lost-update anomaly
// is reported at the exact commit that completes it, with a
// NOCONFLICT explanation and the violation callback fired.
func TestOnlineViolationLostUpdate(t *testing.T) {
	t.Parallel()
	var called []Violation
	mon := New(Config{Model: depgraph.SI, OnViolation: func(v Violation) { called = append(called, v) }})
	var verdicts []*Verdict
	for _, ev := range histio.HistoryToEvents(workload.LostUpdate().History) {
		if v := mon.Ingest(ev); v != nil {
			verdicts = append(verdicts, v)
		}
	}
	// Commits: init (absorbed), T1, T2. The violation completes at T2.
	if len(verdicts) != 3 {
		t.Fatalf("verdicts = %d, want 3", len(verdicts))
	}
	if !verdicts[0].Member || !verdicts[1].Member {
		t.Errorf("init/T1 verdicts = %v/%v, want member", verdicts[0].Member, verdicts[1].Member)
	}
	last := verdicts[2]
	if last.Member || last.Violation == nil {
		t.Fatalf("T2 verdict member = %v, violation = %v", last.Member, last.Violation)
	}
	if last.Txn != "T2" {
		t.Errorf("violating txn = %q, want T2", last.Txn)
	}
	if !strings.HasPrefix(last.Violation.Axiom, "NOCONFLICT") {
		t.Errorf("axiom = %q, want NOCONFLICT", last.Violation.Axiom)
	}
	if !last.Violation.Definitive {
		t.Error("lost update with unique values should be definitive")
	}
	if last.Violation.Cycle == "" {
		t.Error("violation carries no witness cycle")
	}
	if len(called) != 1 {
		t.Errorf("OnViolation called %d times, want 1", len(called))
	}
	rep, err := mon.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Member {
		t.Error("final report claims member")
	}
	if s := rep.Violations[0].String(); !strings.Contains(s, "NOCONFLICT") || !strings.Contains(s, "T2") {
		t.Errorf("violation string %q lacks axiom or txn", s)
	}
}

// TestPendingReadResolution streams a reader whose writer commits
// later: the read parks pending and resolves at the writer's commit,
// and the final verdict is a member.
func TestPendingReadResolution(t *testing.T) {
	t.Parallel()
	mon := New(Config{Model: depgraph.SI})
	evs := []eventlog.Event{
		{Seq: 1, Kind: eventlog.Begin, Session: "b", TxID: "b#1"},
		{Seq: 2, Kind: eventlog.Write, Session: "b", TxID: "b#1", Obj: "x", Val: 7},
		{Seq: 3, Kind: eventlog.Begin, Session: "a", TxID: "a#1"},
		{Seq: 4, Kind: eventlog.Read, Session: "a", TxID: "a#1", Obj: "x", Val: 7},
		{Seq: 5, Kind: eventlog.Commit, Session: "a", TxID: "a#1", Name: "A"},
		{Seq: 6, Kind: eventlog.Commit, Session: "b", TxID: "b#1", Name: "B"},
	}
	var verdicts []*Verdict
	for _, ev := range evs {
		if v := mon.Ingest(ev); v != nil {
			verdicts = append(verdicts, v)
		}
	}
	if len(verdicts) != 2 {
		t.Fatalf("verdicts = %d, want 2", len(verdicts))
	}
	if verdicts[0].Pending != 1 {
		t.Errorf("after reader commit pending = %d, want 1", verdicts[0].Pending)
	}
	if verdicts[1].Pending != 0 {
		t.Errorf("after writer commit pending = %d, want 0", verdicts[1].Pending)
	}
	rep, err := mon.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Member || rep.Pending != 0 {
		t.Errorf("report member/pending = %v/%d, want true/0", rep.Member, rep.Pending)
	}
}

// TestUnresolvedPendingRejectedAtFinish: a read of a value nobody
// ever writes passes the optimistic per-commit check but fails the
// authoritative end-of-stream certification (EXT).
func TestUnresolvedPendingRejectedAtFinish(t *testing.T) {
	t.Parallel()
	mon := New(Config{Model: depgraph.SI})
	evs := []eventlog.Event{
		{Seq: 1, Kind: eventlog.Begin, Session: "a", TxID: "a#1"},
		{Seq: 2, Kind: eventlog.Read, Session: "a", TxID: "a#1", Obj: "x", Val: 41},
		{Seq: 3, Kind: eventlog.Commit, Session: "a", TxID: "a#1", Name: "A"},
	}
	for _, ev := range evs {
		mon.Ingest(ev)
	}
	rep, err := mon.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Member {
		t.Fatal("phantom read accepted")
	}
	if rep.Pending != 1 {
		t.Errorf("pending = %d, want 1", rep.Pending)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("no violation recorded")
	}
	if v := rep.Violations[0]; v.Definitive {
		t.Error("verdict with pending reads must not be definitive")
	}
}

// TestAbortedAndConflictedTransactionsIgnored: only commits reach the
// window; aborts and conflicts discard their buffered operations.
func TestAbortedAndConflictedTransactionsIgnored(t *testing.T) {
	t.Parallel()
	mon := New(Config{Model: depgraph.SI})
	evs := []eventlog.Event{
		{Seq: 1, Kind: eventlog.Begin, Session: "a", TxID: "a#1"},
		{Seq: 2, Kind: eventlog.Write, Session: "a", TxID: "a#1", Obj: "x", Val: 1},
		{Seq: 3, Kind: eventlog.Conflict, Session: "a", TxID: "a#1"},
		{Seq: 4, Kind: eventlog.Begin, Session: "a", TxID: "a#2"},
		{Seq: 5, Kind: eventlog.Write, Session: "a", TxID: "a#2", Obj: "x", Val: 2},
		{Seq: 6, Kind: eventlog.Abort, Session: "a", TxID: "a#2"},
		{Seq: 7, Kind: eventlog.Begin, Session: "a", TxID: "a#3"},
		{Seq: 8, Kind: eventlog.Write, Session: "a", TxID: "a#3", Obj: "x", Val: 3},
		{Seq: 9, Kind: eventlog.Commit, Session: "a", TxID: "a#3", Name: "T"},
	}
	for _, ev := range evs {
		mon.Ingest(ev)
	}
	if mon.Window() != 1 {
		t.Errorf("window = %d, want 1 (aborted attempts leaked in)", mon.Window())
	}
	rep, err := mon.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Member || rep.Commits != 1 {
		t.Errorf("member/commits = %v/%d, want true/1", rep.Member, rep.Commits)
	}
}

// TestBoundedWindowGC streams 10k read-modify-write transactions
// with a 64-transaction window: memory stays bounded (the window
// gauge returns to the bound), nearly everything is collapsed, and
// the verdict remains member — the acceptance criterion for the
// monitor's GC.
func TestBoundedWindowGC(t *testing.T) {
	t.Parallel()
	// The window stays under the checker's 64-writers-per-object
	// bound so the end-of-stream certification can run.
	const n, window = 10000, 32
	reg := obs.NewRegistry()
	mon := New(Config{Model: depgraph.SI, Window: window, Metrics: reg})
	seq := int64(0)
	next := func() int64 { seq++; return seq }
	for i := 1; i <= n; i++ {
		txid := fmt.Sprintf("s#%d", i)
		mon.Ingest(eventlog.Event{Seq: next(), Kind: eventlog.Begin, Session: "s", TxID: txid})
		mon.Ingest(eventlog.Event{Seq: next(), Kind: eventlog.Read, Session: "s", TxID: txid, Obj: "x", Val: model.Value(i - 1)})
		mon.Ingest(eventlog.Event{Seq: next(), Kind: eventlog.Write, Session: "s", TxID: txid, Obj: "x", Val: model.Value(i)})
		mon.Ingest(eventlog.Event{Seq: next(), Kind: eventlog.Commit, Session: "s", TxID: txid, Name: fmt.Sprintf("T%d", i)})
		if w := mon.Window(); w > window+1 {
			t.Fatalf("after txn %d window = %d, exceeds bound %d", i, w, window)
		}
	}
	if g := reg.Gauge("monitor_window_txns", obs.L("model", "SI")).Value(); g > window {
		t.Errorf("window gauge = %d, want <= %d", g, window)
	}
	rep, err := mon.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Member {
		t.Error("clean serial stream rejected")
	}
	if !rep.Definitive {
		t.Error("member verdict after GC should stay definitive (one-sided)")
	}
	if rep.GCd != n-window {
		t.Errorf("GCd = %d, want %d", rep.GCd, n-window)
	}
	if len(rep.Violations) != 0 {
		t.Errorf("violations = %v", rep.Violations)
	}
}

// TestGCPreservesViolationDetection: an anomaly whose transactions
// all sit inside the live window is still caught after thousands of
// collapsed predecessors.
func TestGCPreservesViolationDetection(t *testing.T) {
	t.Parallel()
	const warmup, window = 500, 32
	mon := New(Config{Model: depgraph.SI, Window: window})
	seq := int64(0)
	next := func() int64 { seq++; return seq }
	for i := 1; i <= warmup; i++ {
		txid := fmt.Sprintf("w#%d", i)
		mon.Ingest(eventlog.Event{Seq: next(), Kind: eventlog.Begin, Session: "w", TxID: txid})
		mon.Ingest(eventlog.Event{Seq: next(), Kind: eventlog.Write, Session: "w", TxID: txid, Obj: "y", Val: model.Value(i)})
		mon.Ingest(eventlog.Event{Seq: next(), Kind: eventlog.Commit, Session: "w", TxID: txid, Name: fmt.Sprintf("W%d", i)})
	}
	// A lost update on x by two fresh sessions, inside the window.
	for _, s := range []string{"a", "b"} {
		mon.Ingest(eventlog.Event{Seq: next(), Kind: eventlog.Begin, Session: s, TxID: s + "#1"})
		mon.Ingest(eventlog.Event{Seq: next(), Kind: eventlog.Read, Session: s, TxID: s + "#1", Obj: "x", Val: 0})
	}
	mon.Ingest(eventlog.Event{Seq: next(), Kind: eventlog.Write, Session: "a", TxID: "a#1", Obj: "x", Val: 100})
	mon.Ingest(eventlog.Event{Seq: next(), Kind: eventlog.Write, Session: "b", TxID: "b#1", Obj: "x", Val: 200})
	var verdicts []*Verdict
	if v := mon.Ingest(eventlog.Event{Seq: next(), Kind: eventlog.Commit, Session: "a", TxID: "a#1", Name: "A"}); v != nil {
		verdicts = append(verdicts, v)
	}
	if v := mon.Ingest(eventlog.Event{Seq: next(), Kind: eventlog.Commit, Session: "b", TxID: "b#1", Name: "B"}); v != nil {
		verdicts = append(verdicts, v)
	}
	if len(verdicts) != 2 || verdicts[0].Violation != nil || verdicts[1].Violation == nil {
		t.Fatalf("expected the violation at B's commit; verdicts = %+v", verdicts)
	}
	if verdicts[1].Violation.Definitive {
		t.Error("post-GC violation must not claim definitiveness")
	}
	rep, err := mon.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Member {
		t.Error("final report claims member despite lost update")
	}
}

// TestStaleReadBeyondWindow: a read of a value the GC already
// collapsed past cannot be attributed and yields a conservative
// (non-definitive) rejection.
func TestStaleReadBeyondWindow(t *testing.T) {
	t.Parallel()
	const n, window = 200, 8
	mon := New(Config{Model: depgraph.SI, Window: window})
	seq := int64(0)
	next := func() int64 { seq++; return seq }
	for i := 1; i <= n; i++ {
		txid := fmt.Sprintf("s#%d", i)
		mon.Ingest(eventlog.Event{Seq: next(), Kind: eventlog.Begin, Session: "s", TxID: txid})
		mon.Ingest(eventlog.Event{Seq: next(), Kind: eventlog.Write, Session: "s", TxID: txid, Obj: "x", Val: model.Value(i)})
		mon.Ingest(eventlog.Event{Seq: next(), Kind: eventlog.Commit, Session: "s", TxID: txid, Name: fmt.Sprintf("T%d", i)})
	}
	// Read x = 1: written n-1 transactions ago, long collapsed.
	mon.Ingest(eventlog.Event{Seq: next(), Kind: eventlog.Begin, Session: "r", TxID: "r#1"})
	mon.Ingest(eventlog.Event{Seq: next(), Kind: eventlog.Read, Session: "r", TxID: "r#1", Obj: "x", Val: 1})
	v := mon.Ingest(eventlog.Event{Seq: next(), Kind: eventlog.Commit, Session: "r", TxID: "r#1", Name: "R"})
	if v == nil || v.Pending != 1 {
		t.Fatalf("stale read not pending: %+v", v)
	}
	rep, err := mon.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Member {
		t.Error("stale read beyond the window accepted")
	}
	if rep.Definitive {
		t.Error("post-GC rejection must not be definitive")
	}
}

// TestMonitorMetrics checks the obs series a dashboard would scrape.
func TestMonitorMetrics(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	rep := streamHistory(t, workload.WriteSkew().History, Config{Model: depgraph.SI, Metrics: reg})
	lbl := obs.L("model", "SI")
	events := reg.Counter("monitor_events_ingested_total", lbl).Value()
	commits := reg.Counter("monitor_commits_total", lbl).Value()
	if events != rep.Events || events == 0 {
		t.Errorf("events counter = %d, report %d", events, rep.Events)
	}
	if commits != rep.Commits || commits == 0 {
		t.Errorf("commits counter = %d, report %d", commits, rep.Commits)
	}
	if viol := reg.Counter("monitor_violations_total", lbl).Value(); viol != int64(len(rep.Violations)) {
		t.Errorf("violations counter = %d, report %d", viol, len(rep.Violations))
	}
}

// TestIngestAfterFinishIgnored pins Finish's idempotence.
func TestIngestAfterFinishIgnored(t *testing.T) {
	t.Parallel()
	mon := New(Config{Model: depgraph.SI})
	rep1, err := mon.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !rep1.Member || !rep1.Definitive {
		t.Errorf("empty stream report = %+v", rep1)
	}
	if v := mon.Ingest(eventlog.Event{Seq: 1, Kind: eventlog.Begin, Session: "s", TxID: "s#1"}); v != nil {
		t.Error("ingest after finish returned a verdict")
	}
	rep2, _ := mon.Finish()
	if rep1 != rep2 {
		t.Error("Finish not idempotent")
	}
}

// TestWitnessAdoptionRecovers pins the fast-path recovery after a
// duplicate-value misattribution. T1 and T2 both write x=1 and T3 (in
// T2's session) reads x=1: value tracing attributes the read to T1,
// the first writer, so the arrival candidate carries a spurious
// RW(T3, T2) against SO(T2, T3) and fails — while the window is a
// member (the read belongs to T2). The slow path certifies once and
// its witness must be adopted: exactly one recertification, and GC
// must keep running over the following traffic.
func TestWitnessAdoptionRecovers(t *testing.T) {
	t.Parallel()
	sessions := []model.Session{
		{ID: "s1", Transactions: []model.Transaction{
			model.NewTransaction("T1", model.Write("x", 1)),
		}},
		{ID: "s2", Transactions: []model.Transaction{
			model.NewTransaction("T2", model.Write("x", 1)),
			model.NewTransaction("T3", model.Read("x", 1)),
		}},
	}
	tail := model.Session{ID: "s3"}
	for i := 0; i < 40; i++ {
		tail.Transactions = append(tail.Transactions,
			model.NewTransaction(fmt.Sprintf("W%d", i), model.Write("y", model.Value(100+i))))
	}
	sessions = append(sessions, tail)
	h := model.NewHistory(sessions...)

	off := offlineCertify(t, h, depgraph.SI)
	if !off.Member {
		t.Fatal("history must be an SI member offline")
	}
	rep := streamHistory(t, h, Config{Model: depgraph.SI, Window: 8})
	if !rep.Member {
		t.Fatalf("monitor rejected a member: %+v", rep.Violations)
	}
	// One in-stream recertification plus Finish's authoritative
	// end-of-stream pass; anything more means adoption failed and the
	// fast path kept recertifying.
	if rep.Rechecks != 2 {
		t.Errorf("recertifications = %d, want exactly 2 (witness adoption must restore the fast path)", rep.Rechecks)
	}
	if rep.GCd == 0 {
		t.Error("no transactions collapsed: GC stayed blocked after the recertification")
	}
}

// TestWitnessAdoptionDifferential re-runs the differential comparison
// on histories engineered to hit the adoption path: duplicated values
// across sessions followed by further traffic, with and without a
// window, across all models.
func TestWitnessAdoptionDifferential(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 30; i++ {
		h := workload.RandomHistory(rng, workload.RandomConfig{
			Sessions: 3, TxPerSession: 3, OpsPerTx: 2, Objects: 2, Values: 2,
			ReadFraction: 500,
		})
		m := allModels[i%len(allModels)]
		off := offlineCertify(t, h, m)
		rep := streamHistory(t, h, Config{Model: m})
		if rep.Member != off.Member {
			t.Errorf("seed %d under %v: monitor member = %v, offline = %v", i, m, rep.Member, off.Member)
		}
	}
}

// TestMonitorKeepsOnlyItsModelsRelations: after the carrier grows, a
// monitor holds the n×n relations its model's row reads and no others,
// as depgraph.NewBuilder does. SER, SI, PSI and GSI compose RW with
// the closure alone, so they hold no session order, no WR union and no
// PC composites; a PC monitor holds all of them, and every model still
// admits the serial stream.
func TestMonitorKeepsOnlyItsModelsRelations(t *testing.T) {
	t.Parallel()
	for _, m := range allModels {
		mon := New(Config{Model: m})
		for i := 1; i <= 40; i++ {
			sess := []string{"a", "b"}[i%2]
			txid := fmt.Sprintf("%s#%d", sess, i)
			mon.Ingest(eventlog.Event{Kind: eventlog.Read, Session: sess, TxID: txid, Obj: "x", Val: model.Value(i - 1)})
			mon.Ingest(eventlog.Event{Kind: eventlog.Write, Session: sess, TxID: txid, Obj: "x", Val: model.Value(i)})
			mon.Ingest(eventlog.Event{Kind: eventlog.Commit, Session: sess, TxID: txid})
		}
		if mon.nRebuilds == 0 {
			t.Fatalf("%v: 40 unwindowed commits did not grow the carrier (cap %d)", m, mon.cap)
		}
		sc := reflect.ValueOf(mon.scratch).Elem()
		s2, s3 := !sc.FieldByName("s2").IsNil(), !sc.FieldByName("s3").IsNil()
		pc := m == depgraph.PC
		if (mon.so != nil) != pc || (mon.wrAll != nil) != pc || s2 != pc || s3 != pc {
			t.Errorf("%v: SO %v, WR union %v, PC scratch %v/%v; want all present exactly for PC",
				m, mon.so != nil, mon.wrAll != nil, s2, s3)
		}
		if mon.rw == nil || sc.FieldByName("s1").IsNil() {
			t.Errorf("%v: RW or the composite scratch is missing", m)
		}
		rep, err := mon.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Member || rep.Rechecks != 1 {
			t.Errorf("%v: member %v after %d rechecks, want the serial stream admitted by the fast path", m, rep.Member, rep.Rechecks)
		}
	}
}
