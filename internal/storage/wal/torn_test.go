package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sian/internal/model"
	"sian/internal/storage"
)

// buildPristineLog commits n counter increments into dir and returns
// the final segment's bytes. Each commit is one frame, so the log's
// valid prefixes are exactly the commit prefixes.
func buildPristineLog(t testing.TB, dir string, n int) []byte {
	t.Helper()
	d := mustOpen(t, testOpts(dir))
	counterChain(t, d, 1, n)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "wal-00000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// cloneDir copies the pristine log into a fresh directory with the
// final segment replaced by tail.
func cloneDir(t testing.TB, tail []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-00000001.log"), tail, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// checkPrefixState opens dir and asserts the recovered state is a
// certified prefix of the counter chain: x's latest value equals the
// number of replayed commits (or x is absent when zero). Returns the
// number of commits recovered, or -1 when Open refused.
func checkPrefixState(t *testing.T, dir, label string) int64 {
	t.Helper()
	d, err := Open(testOpts(dir))
	if err != nil {
		return -1
	}
	defer d.Close()
	info := d.Recovery()
	if !info.Certified {
		t.Fatalf("%s: served uncertified state: %s", label, info.Verdict)
	}
	v, ok := d.Latest("x")
	switch {
	case info.Commits == 0 && ok:
		t.Fatalf("%s: zero commits replayed but x = %+v", label, v)
	case info.Commits > 0 && (!ok || int64(v.Val) != info.Commits || int64(v.TS) != info.Commits):
		t.Fatalf("%s: recovered x = %+v (ok=%v), want counter value %d", label, v, ok, info.Commits)
	}
	return info.Commits
}

// TestTornTailTruncation is the torn-write robustness property test:
// for EVERY byte offset of the final segment, a log truncated at that
// offset recovers to a certified prefix of the committed chain —
// recovery stops at the last valid frame and never serves uncertified
// state. It also pins the accounting: TruncatedBytes is exactly the
// dropped tail, and the next Open sees a clean log.
func TestTornTailTruncation(t *testing.T) {
	t.Parallel()
	const n = 12
	pristine := buildPristineLog(t, t.TempDir(), n)

	// Frame boundaries of the pristine segment, for the expected
	// commit count at each truncation offset.
	boundaries := []int{len(segMagic)}
	off := len(segMagic)
	for off < len(pristine) {
		flen, payload, why := nextFrame(pristine[off:])
		if payload == nil {
			t.Fatalf("pristine log has invalid frame at %d: %s", off, why)
		}
		off += flen
		boundaries = append(boundaries, off)
	}
	if got := len(boundaries) - 1; got != n {
		t.Fatalf("pristine log holds %d frames, want %d", got, n)
	}

	for cut := 0; cut <= len(pristine); cut++ {
		dir := cloneDir(t, pristine[:cut])
		label := fmt.Sprintf("cut=%d", cut)
		commits := checkPrefixState(t, dir, label)
		if commits < 0 {
			t.Fatalf("%s: Open refused a truncated log", label)
		}
		// Exactly the complete frames before the cut survive.
		want := int64(0)
		for i := 1; i < len(boundaries); i++ {
			if boundaries[i] <= cut {
				want = int64(i)
			}
		}
		if commits != want {
			t.Fatalf("%s: recovered %d commits, want %d", label, commits, want)
		}
		// A second recovery of the truncated directory is clean: the
		// torn tail was physically dropped.
		d, err := Open(testOpts(dir))
		if err != nil {
			t.Fatalf("%s: second Open: %v", label, err)
		}
		if info := d.Recovery(); info.TruncatedBytes != 0 || info.Commits != want {
			d.Close()
			t.Fatalf("%s: second recovery = %+v, want clean with %d commits", label, info, want)
		}
		d.Close()
	}
}

// TestCorruptTailByteFlip flips every byte of the final segment in
// turn: recovery must either stop at the corruption (a certified
// prefix) or refuse outright — never serve a corrupt frame. A flip in
// an earlier frame's bytes makes that frame invalid, so everything
// from it on is dropped.
func TestCorruptTailByteFlip(t *testing.T) {
	t.Parallel()
	const n = 6
	pristine := buildPristineLog(t, t.TempDir(), n)
	for i := 0; i < len(pristine); i++ {
		corrupt := append([]byte(nil), pristine...)
		corrupt[i] ^= 0x40
		dir := cloneDir(t, corrupt)
		commits := checkPrefixState(t, dir, fmt.Sprintf("flip=%d", i))
		if commits > int64(n) {
			t.Fatalf("flip=%d: recovered %d commits from an %d-commit log", i, commits, n)
		}
	}
}

// TestTornMultiSegment pins torn-tail handling with a snapshot in
// play: truncating the *final* segment of a rotated log still recovers
// certified, while corruption in a non-final segment refuses.
func TestTornMultiSegment(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	opts := testOpts(dir)
	opts.SnapshotEvery = 64 // never triggers: multiple segments come from reopen cycles
	d := mustOpen(t, opts)
	counterChain(t, d, 1, 10)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d = mustOpen(t, testOpts(dir)) // opens segment 2
	counterChain(t, d, 11, 20)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	seg2 := filepath.Join(dir, "wal-00000002.log")
	data, err := os.ReadFile(seg2)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final segment mid-way: certified prefix.
	if err := os.Truncate(seg2, int64(len(data)-3)); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, testOpts(dir))
	info := re.Recovery()
	if !info.Certified || info.Commits != 19 || info.TruncatedBytes == 0 {
		re.Close()
		t.Fatalf("torn final segment: recovery = %+v", info)
	}
	if v, _ := re.Latest("x"); v.Val != 19 {
		re.Close()
		t.Fatalf("torn final segment: x = %+v", v)
	}
	re.Close()

	// Corrupt the middle of a NON-final segment: unexplainable (it
	// was fsynced before rotation), so Open refuses.
	seg1 := filepath.Join(dir, "wal-00000001.log")
	data, err = os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(seg1, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(testOpts(dir)); err == nil {
		t.Fatal("Open served a log with a corrupt interior segment")
	}
}

// TestZeroTailFinalSegment: a final segment whose frames are followed
// by zeros (a preallocated tail a crash left behind) recovers every
// commit, counts nothing as torn, and is cut back to its last frame.
func TestZeroTailFinalSegment(t *testing.T) {
	t.Parallel()
	const n = 8
	pristine := buildPristineLog(t, t.TempDir(), n)
	dir := cloneDir(t, append(pristine[:len(pristine):len(pristine)], make([]byte, 4096)...))
	d := mustOpen(t, testOpts(dir))
	info := d.Recovery()
	d.Close()
	if !info.Certified || info.Commits != n || info.TruncatedBytes != 0 {
		t.Fatalf("zero-tail recovery = %+v, want %d certified commits and TruncatedBytes 0", info, n)
	}
	assertSealed(t, filepath.Join(dir, "wal-00000001.log"), int64(len(pristine)))
}

// TestTornFrameThenZeros: a torn frame followed by a zero tail is
// still a torn tail — recovery cuts at the last valid frame and counts
// the torn bytes, not the zeros.
func TestTornFrameThenZeros(t *testing.T) {
	t.Parallel()
	const n = 8
	pristine := buildPristineLog(t, t.TempDir(), n)
	lastFrame := frameEnd(pristine[:len(pristine)-1])
	torn := pristine[: len(pristine)-5 : len(pristine)-5]
	dir := cloneDir(t, append(torn, make([]byte, 4096)...))
	d := mustOpen(t, testOpts(dir))
	info := d.Recovery()
	d.Close()
	if want := tornLen(torn[lastFrame:]); !info.Certified || info.Commits != n-1 || info.TruncatedBytes != want {
		t.Fatalf("torn+zero recovery = %+v, want %d certified commits and TruncatedBytes %d", info, n-1, want)
	}
	assertSealed(t, filepath.Join(dir, "wal-00000001.log"), int64(lastFrame))
}

// TestZeroTailNonFinalRefuses: a segment is sealed to its written
// length before its successor exists, so a zero tail in a non-final
// segment is corruption and recovery refuses.
func TestZeroTailNonFinalRefuses(t *testing.T) {
	t.Parallel()
	pristine := buildPristineLog(t, t.TempDir(), 8)
	dir := cloneDir(t, append(pristine[:len(pristine):len(pristine)], make([]byte, 4096)...))
	if err := os.WriteFile(filepath.Join(dir, "wal-00000002.log"), []byte(segMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(testOpts(dir)); err == nil || !strings.Contains(err.Error(), "zero tail") {
		t.Fatalf("Open = %v, want a refusal naming the zero tail", err)
	}
}

// FuzzReplaySegment feeds arbitrary bytes after segMagic to recovery:
// it must never panic or hang. As the final segment the result is a
// refusal or a certified prefix — the file cut to its valid frames, and
// a second Open recovering the same commits from a clean log. Followed
// by another segment it opens only if it is nothing but valid frames.
func FuzzReplaySegment(f *testing.F) {
	// Small seeds: the fuzzer minimises every new input it finds, and
	// that cost grows with the input.
	pristine := buildPristineLog(f, f.TempDir(), 3)
	frames := pristine[len(segMagic):len(pristine):len(pristine)]
	zeros := make([]byte, 32)
	f.Add(frames, false)
	f.Add(append(frames, zeros...), false)
	f.Add(append(frames[:len(frames)-5:len(frames)-5], zeros...), false)
	f.Add(append(frames, zeros...), true)
	f.Add(frames, true)

	f.Fuzz(func(t *testing.T, tail []byte, nonFinal bool) {
		seg := append([]byte(segMagic), tail...)
		dir := cloneDir(t, seg)
		if nonFinal {
			if err := os.WriteFile(filepath.Join(dir, "wal-00000002.log"), []byte(segMagic), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		d, err := Open(testOpts(dir))
		if err != nil {
			return // refused
		}
		info := d.Recovery()
		d.Close()
		if !info.Certified {
			t.Fatalf("served uncertified state: %s", info.Verdict)
		}
		data, err := os.ReadFile(filepath.Join(dir, "wal-00000001.log"))
		if err != nil {
			t.Fatal(err)
		}
		if frameEnd(data) != len(data) || !bytes.Equal(data, seg[:len(data)]) {
			t.Fatalf("recovery left %d bytes that are not a valid-frame prefix of the %d-byte segment", len(data), len(seg))
		}
		if nonFinal && len(data) != len(seg) {
			t.Fatalf("a non-final segment with an invalid tail opened (%+v)", info)
		}
		re, err := Open(testOpts(dir))
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		again := re.Recovery()
		re.Close()
		if again.TruncatedBytes != 0 || again.Commits != info.Commits {
			t.Fatalf("second recovery = %+v, first %+v", again, info)
		}
	})
}

// TestWriterMetaRoundTrip pins the install-record codec end to end
// through a real file (not just in memory).
func TestWriterMetaRoundTrip(t *testing.T) {
	t.Parallel()
	want := storage.Version{Val: -5, TS: ^uint64(0)}
	x, v, err := decodeInstallBody(encodeInstallBody(model.Obj("k\nj"), want))
	if err != nil {
		t.Fatal(err)
	}
	if x != "k\nj" || v != want {
		t.Errorf("round trip: %q %+v", x, v)
	}
}

// TestInstallWriterSlotReserved pins the reserved writer and meta slots
// of the install record: they are written empty and 0, and a record
// that carries a writer or a meta stamp there (as logs written by older
// versions may) still decodes.
func TestInstallWriterSlotReserved(t *testing.T) {
	t.Parallel()
	want := storage.Version{Val: 7, TS: 3}
	record := func(writer string, meta uint64) []byte {
		b := appendString(nil, "a")
		b = appendValue(b, want.Val)
		b = appendUint64(b, want.TS)
		b = appendString(b, writer)
		return appendUint64(b, meta)
	}
	for _, old := range [][]byte{record("w1", 0), record("", 42), record("w1", ^uint64(0))} {
		x, v, err := decodeInstallBody(old)
		if err != nil || x != "a" || v != want {
			t.Errorf("record %x = %q %+v, %v; want a %+v", old, x, v, err, want)
		}
	}
	if got := encodeInstallBody("a", want); !bytes.Equal(got, record("", 0)) {
		t.Errorf("encoded record = %x, want empty writer and zero meta slots: %x", got, record("", 0))
	}
}
