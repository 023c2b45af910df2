package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sian/internal/model"
	"sian/internal/storage"
	"sian/internal/storage/drivertest"
)

// testOpts returns fast options for a throwaway directory: no fsync,
// small certification window.
func testOpts(dir string) Options {
	return Options{Dir: dir, NoSync: true, Window: 64}
}

func mustOpen(t testing.TB, opts Options) *Driver {
	t.Helper()
	d, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", opts.Dir, err)
	}
	return d
}

// TestDriverConformance runs the shared storage-driver suite against
// the WAL driver: same semantics as the in-memory driver, plus a log.
func TestDriverConformance(t *testing.T) {
	t.Parallel()
	drivertest.Run(t, func(t *testing.T) storage.Driver {
		return mustOpen(t, testOpts(t.TempDir()))
	})
}

// commitThrough simulates the engine's durable commit: lock the write
// set, install, stage the commit record, unlock (append + sync).
func commitThrough(t testing.TB, d *Driver, rec storage.CommitRecord) uint64 {
	t.Helper()
	tx := model.NewTransaction(rec.TxID, rec.Ops...)
	objs := tx.WriteSet()
	w := d.LockObjs(objs)
	for _, x := range objs {
		v, _ := tx.FinalWrite(x)
		if err := w.Install(x, storage.Version{Val: v, TS: rec.TS}); err != nil {
			t.Fatalf("install %s@%d: %v", x, rec.TS, err)
		}
	}
	w.(storage.CommitLogger).LogCommit(rec)
	w.Unlock()
	lsn, err := w.(storage.DurableWindow).Durable()
	if err != nil {
		t.Fatalf("durable: %v", err)
	}
	if lsn == 0 {
		t.Fatal("commit window reported LSN 0")
	}
	return lsn
}

// counterChain builds the canonical test workload: n read-modify-write
// commits on one object ("r x i-1, w x i" at timestamp i), an SI
// history by construction.
func counterChain(t testing.TB, d *Driver, from, to int) {
	t.Helper()
	for i := from; i <= to; i++ {
		commitThrough(t, d, storage.CommitRecord{
			TS:      uint64(i),
			Session: "s1",
			TxID:    fmt.Sprintf("t%d", i),
			Ops: []model.Op{
				model.Read("x", model.Value(i-1)),
				model.Write("x", model.Value(i)),
			},
		})
	}
}

// TestReopenReplaysLog pins the basic durability loop: commit, close,
// reopen, and the recovered state is certified and complete.
func TestReopenReplaysLog(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	d := mustOpen(t, testOpts(dir))
	const n = 25
	var lastLSN uint64
	for i := 1; i <= n; i++ {
		lsn := commitThrough(t, d, storage.CommitRecord{
			TS: uint64(i), Session: "s1", TxID: fmt.Sprintf("t%d", i),
			Ops: []model.Op{
				model.Read("x", model.Value(i-1)),
				model.Write("x", model.Value(i)),
				model.Write("y", model.Value(-i)),
			},
		})
		if lsn <= lastLSN {
			t.Fatalf("LSN not monotonic: %d after %d", lsn, lastLSN)
		}
		lastLSN = lsn
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re := mustOpen(t, testOpts(dir))
	defer re.Close()
	info := re.Recovery()
	if !info.Certified {
		t.Fatalf("recovery not certified: %s", info.Verdict)
	}
	if info.Commits != n {
		t.Errorf("replayed %d commits, want %d", info.Commits, n)
	}
	if info.MaxTS != n {
		t.Errorf("recovered MaxTS %d, want %d", info.MaxTS, n)
	}
	if re.RecoveredMaxTS() != n {
		t.Errorf("RecoveredMaxTS %d, want %d", re.RecoveredMaxTS(), n)
	}
	if v, ok := re.Latest("x"); !ok || v.Val != n || v.TS != n {
		t.Errorf("Latest(x) = %+v, %v; want val %d at ts %d", v, ok, n, n)
	}
	if v, ok := re.Latest("y"); !ok || v.Val != -n {
		t.Errorf("Latest(y) = %+v, %v; want val %d", v, ok, -n)
	}
	if got := re.VersionCount("x"); got != n {
		t.Errorf("VersionCount(x) = %d, want %d", got, n)
	}
	// And the reopened driver keeps accepting commits past the
	// recovered frontier.
	commitThrough(t, re, storage.CommitRecord{
		TS: n + 1, Session: "s1", TxID: "post",
		Ops: []model.Op{model.Write("x", model.Value(n+1))},
	})
	if v, _ := re.Latest("x"); v.TS != n+1 {
		t.Errorf("post-recovery commit not visible: %+v", v)
	}
}

// TestBatchGroupSurvivesReopen pins the group-commit durability path:
// a batch of disjoint commits staged via LogCommitBatch is appended as
// one contiguous record group covered by one sync, its records replay
// individually on recovery, and the recovered stream still certifies
// SI. Fsync accounting is the acceptance observable: one batch of n
// commits must cost at most one sync, i.e. strictly fewer syncs than
// commits.
func TestBatchGroupSurvivesReopen(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	// Real fsyncs, so the syncs-vs-commits accounting is meaningful.
	d := mustOpen(t, Options{Dir: dir, Window: 64})

	reg := d.cSyncs // wal_syncs_total handle resolved at Open
	syncsBefore := reg.Value()
	const members = 8
	union := make([]model.Obj, 0, members)
	recs := make([]storage.CommitRecord, 0, members)
	for i := 0; i < members; i++ {
		union = append(union, model.Obj(fmt.Sprintf("g%d", i)))
	}
	w := d.LockBatch(union)
	for i, x := range union {
		ts := uint64(i + 1)
		if err := w.Install(x, storage.Version{Val: model.Value(i), TS: ts}); err != nil {
			t.Fatalf("install: %v", err)
		}
		recs = append(recs, storage.CommitRecord{
			TS: ts, Session: fmt.Sprintf("s%d", i), TxID: fmt.Sprintf("t%d", i),
			Ops: []model.Op{model.Write(x, model.Value(i))},
		})
	}
	w.LogCommitBatch(recs)
	w.Unlock()
	lsn, err := w.(storage.DurableWindow).Durable()
	if err != nil {
		t.Fatalf("durable: %v", err)
	}
	if lsn != uint64(members) {
		t.Errorf("group LSN = %d, want %d (one frame per member, contiguous)", lsn, members)
	}
	if syncs := reg.Value() - syncsBefore; syncs >= members {
		t.Errorf("batch of %d commits cost %d syncs; group fsync must cost fewer syncs than commits", members, syncs)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re := mustOpen(t, testOpts(dir))
	defer re.Close()
	info := re.Recovery()
	if !info.Certified {
		t.Fatalf("recovery not certified: %s", info.Verdict)
	}
	if info.Commits != members {
		t.Errorf("replayed %d commits, want %d (one record per batch member)", info.Commits, members)
	}
	if info.MaxTS != members {
		t.Errorf("recovered MaxTS %d, want %d", info.MaxTS, members)
	}
	for i, x := range union {
		v, ok := re.Latest(x)
		if !ok || v.Val != model.Value(i) || v.TS != uint64(i+1) {
			t.Errorf("Latest(%s) = %+v, %v; want val %d at ts %d", x, v, ok, i, i+1)
		}
	}
}

// TestRawInstallsSurviveReopen pins the non-engine append path: plain
// Install / InstallBatch calls are logged as install records.
func TestRawInstallsSurviveReopen(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	d := mustOpen(t, testOpts(dir))
	want := storage.Version{Val: 7, TS: 3}
	if err := d.Install("a", want); err != nil {
		t.Fatal(err)
	}
	if err := d.InstallBatch([]storage.Write{
		{Obj: "b", Version: storage.Version{Val: 1, TS: 1}},
		{Obj: "b", Version: storage.Version{Val: 2, TS: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, testOpts(dir))
	defer re.Close()
	if !re.Recovery().Certified {
		t.Fatalf("recovery not certified: %s", re.Recovery().Verdict)
	}
	if v, ok := re.Latest("a"); !ok || v != want {
		t.Errorf("Latest(a) = %+v, want %+v", v, want)
	}
	if v, ok := re.Latest("b"); !ok || v.Val != 2 || v.TS != 2 {
		t.Errorf("Latest(b) = %+v", v)
	}
}

// TestRecoveryRefusesNonSI hand-crafts a lost-update log — two
// transactions that both read x=0 and both write x — and asserts Open
// refuses to serve it: the replayed history is not SI, and the
// CertifyError carries the witness.
func TestRecoveryRefusesNonSI(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	records := [][]byte{
		encodeFrame(recCommit, 1, encodeCommitBody(storage.CommitRecord{
			TS: 1, Session: "a", TxID: "T1",
			Ops: []model.Op{model.Read("x", 0), model.Write("x", 1)},
		})),
		encodeFrame(recCommit, 2, encodeCommitBody(storage.CommitRecord{
			TS: 2, Session: "b", TxID: "T2",
			Ops: []model.Op{model.Read("x", 0), model.Write("x", 2)},
		})),
	}
	writeSegment(t, filepath.Join(dir, "wal-00000001.log"), records)

	_, err := Open(Options{Dir: dir, NoSync: true, Window: 64})
	var cerr *CertifyError
	if !errors.As(err, &cerr) {
		t.Fatalf("Open = %v, want *CertifyError", err)
	}
	if len(cerr.Info.Violations) == 0 {
		t.Fatal("CertifyError carries no violations")
	}
	if cerr.Info.Violations[0].Cycle == "" {
		t.Error("violation carries no witness cycle")
	}

	// The same log opens with certification disabled (the data is
	// still there, just not SI-certifiable).
	d, err := Open(Options{Dir: dir, NoSync: true, SkipCertify: true})
	if err != nil {
		t.Fatalf("SkipCertify Open: %v", err)
	}
	defer d.Close()
	if v, ok := d.Latest("x"); !ok || v.Val != 2 {
		t.Errorf("Latest(x) = %+v, %v", v, ok)
	}
}

func writeSegment(t *testing.T, path string, frames [][]byte) {
	t.Helper()
	data := []byte(segMagic)
	for _, f := range frames {
		data = append(data, f...)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotTruncatesLog drives enough commits through a small
// SnapshotEvery to force rotations, then checks the snapshot exists,
// old segments are gone, and recovery is exact.
func TestSnapshotTruncatesLog(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	opts := testOpts(dir)
	opts.SnapshotEvery = 8
	d := mustOpen(t, opts)
	const n = 60
	counterChain(t, d, 1, n)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.SnapshotError != "" {
		t.Fatalf("snapshot error: %s", st.SnapshotError)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot")); err != nil {
		t.Fatalf("no snapshot file: %v", err)
	}
	entries, _ := os.ReadDir(dir)
	segs := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".log" {
			segs++
		}
	}
	if segs == 0 || segs > 3 {
		t.Errorf("expected a small number of surviving segments, found %d", segs)
	}

	re := mustOpen(t, testOpts(dir))
	defer re.Close()
	info := re.Recovery()
	if !info.Certified {
		t.Fatalf("recovery not certified: %s", info.Verdict)
	}
	if info.SnapshotObjects == 0 {
		t.Error("recovery loaded no snapshot")
	}
	if v, ok := re.Latest("x"); !ok || v.Val != n || v.TS != n {
		t.Errorf("Latest(x) = %+v, %v; want %d@%d", v, ok, n, n)
	}
	if re.RecoveredMaxTS() != n {
		t.Errorf("RecoveredMaxTS = %d, want %d", re.RecoveredMaxTS(), n)
	}
}

// TestCorruptSnapshotRefuses flips a byte inside the snapshot document
// and asserts Open refuses: the snapshot's segments may already be
// truncated, so serving without it could lose acknowledged commits.
func TestCorruptSnapshotRefuses(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	opts := testOpts(dir)
	opts.SnapshotEvery = 8
	d := mustOpen(t, opts)
	counterChain(t, d, 1, 40)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "snapshot")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(testOpts(dir)); err == nil {
		t.Fatal("Open served a CRC-failing snapshot")
	}
}

// TestStats pins the durability counters: with everything synced the
// appended and synced LSNs agree.
func TestStats(t *testing.T) {
	t.Parallel()
	d := mustOpen(t, testOpts(t.TempDir()))
	defer d.Close()
	counterChain(t, d, 1, 10)
	st := d.Stats()
	if st.AppendedLSN != 10 || st.SyncedLSN != 10 {
		t.Errorf("Stats = %+v, want appended=synced=10", st)
	}
	if st.LastSyncUnixNano == 0 {
		t.Error("LastSyncUnixNano never set")
	}
}

// TestEmptyDirCertifies pins the trivial case: a fresh directory opens
// certified with zero commits.
func TestEmptyDirCertifies(t *testing.T) {
	t.Parallel()
	d := mustOpen(t, testOpts(t.TempDir()))
	defer d.Close()
	info := d.Recovery()
	if !info.Certified || info.Commits != 0 {
		t.Errorf("fresh-dir recovery = %+v", info)
	}
}

// TestOpenDriverCopyRecovers copies the directory of a live, syncing
// driver after n acknowledged commits without closing it — what a
// SIGKILL leaves: the final segment still carries its preallocated
// zero tail. The copy must recover and certify exactly n commits, with
// nothing counted as torn.
func TestOpenDriverCopyRecovers(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	d := mustOpen(t, Options{Dir: dir, Window: 64})
	defer d.Close()
	const n = 20
	counterChain(t, d, 1, n)

	cp := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d.mu.Lock()
	written, alloc, seg := d.written, d.alloc, filepath.Base(d.segmentPath(d.segIndex))
	d.mu.Unlock()
	if alloc == 0 {
		t.Log("file system does not preallocate: the copy has no zero tail")
	} else if st, err := os.Stat(filepath.Join(cp, seg)); err != nil || st.Size() != alloc {
		t.Fatalf("copied live segment: %v, want the preallocated size %d (written %d)", err, alloc, written)
	}

	if got := checkPrefixState(t, cp, "live copy"); got != n {
		t.Fatalf("live copy recovered %d commits, want %d", got, n)
	}
	re := mustOpen(t, testOpts(cp))
	defer re.Close()
	if info := re.Recovery(); info.TruncatedBytes != 0 || info.Commits != n {
		t.Fatalf("second recovery of the live copy = %+v", info)
	}
	assertSealed(t, filepath.Join(cp, seg), written)
}

// TestSealedSegmentSizes pins the seal: a segment retired at rotation,
// and the final one after Close, are exactly their frames long —
// every preallocated byte cut off — and the log recovers whole.
func TestSealedSegmentSizes(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	d := mustOpen(t, Options{Dir: dir, Window: 64, SnapshotEvery: -1})
	counterChain(t, d, 1, 5)
	d.mu.Lock()
	written, first := d.written, d.segmentPath(d.segIndex)
	_, err := d.rotateLocked()
	d.mu.Unlock()
	if err != nil {
		t.Fatalf("rotate: %v", err)
	}
	assertSealed(t, first, written)

	counterChain(t, d, 6, 10)
	d.mu.Lock()
	written, second := d.written, d.segmentPath(d.segIndex)
	d.mu.Unlock()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	assertSealed(t, second, written)

	re := mustOpen(t, testOpts(dir))
	defer re.Close()
	if info := re.Recovery(); !info.Certified || info.Commits != 10 || info.TruncatedBytes != 0 {
		t.Fatalf("recovery of sealed segments = %+v", info)
	}
}

// assertSealed checks that the segment at path is size bytes long and
// holds nothing but the magic and valid frames.
func assertSealed(t testing.TB, path string, size int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != size {
		t.Fatalf("%s: %d bytes on disk, %d written", filepath.Base(path), len(data), size)
	}
	if end := frameEnd(data); end != len(data) {
		t.Fatalf("%s: valid frames end at %d of %d bytes", filepath.Base(path), end, len(data))
	}
}

// frameEnd returns the offset where a segment's run of valid frames
// after the magic ends.
func frameEnd(seg []byte) int {
	off := len(segMagic)
	for off < len(seg) {
		n, payload, _ := nextFrame(seg[off:])
		if payload == nil {
			break
		}
		off += n
	}
	return off
}
