package wal

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"strconv"
	"strings"

	"sian/internal/codec"
	"sian/internal/model"
	"sian/internal/monitor"
	"sian/internal/obs/eventlog"
	"sian/internal/storage"
)

// recover rebuilds the in-memory store from the snapshot and the log
// segments, certifying the replayed commit stream along the way. On
// return d.store, d.lsn, d.segIndex, d.synced and d.recovery are
// populated; the caller opens a fresh segment for new appends.
//
// Replay is conditional per object — a record's version installs only
// if the object's current latest timestamp is older — which makes
// recovery insensitive to where exactly a crash fell in the
// snapshot/truncation sequence: segments whose records are also
// covered by the snapshot replay as no-ops. Because a commit window
// installs its whole write set under its shard locks and the snapshot
// cut holds every shard at once, a commit is either entirely inside or
// entirely outside the snapshot; "any object installed" therefore
// means "all installed", and exactly the applied commits are streamed
// to the monitor.
func (d *Driver) recover() error {
	// A leftover temp file is a snapshot that never renamed: dead.
	os.Remove(d.snapshotPath() + ".tmp")

	var mon *monitor.Monitor
	if !d.opts.SkipCertify {
		mon = monitor.New(monitor.Config{
			Model:   d.opts.Model,
			Window:  d.opts.Window,
			Metrics: d.opts.Metrics,
		})
	}
	var seq int64
	ingest := func(ev eventlog.Event) {
		if mon != nil {
			seq++
			ev.Seq = seq
			mon.Ingest(ev)
		}
	}

	// Snapshot. An unreadable or CRC-failing snapshot refuses
	// recovery outright: the segments it covered may already be
	// deleted, so ignoring it could silently lose acknowledged
	// commits.
	var snapLSN uint64
	if data, err := os.ReadFile(d.snapshotPath()); err == nil {
		writes, maxTS, lastLSN, derr := decodeSnapshot(data)
		if derr != nil {
			return fmt.Errorf("wal: snapshot unreadable, refusing recovery (its segments may already be truncated): %w", derr)
		}
		if err := d.store.InstallBatch(writes); err != nil {
			return fmt.Errorf("wal: snapshot replay: %w", err)
		}
		snapLSN = lastLSN
		d.recovery.SnapshotObjects = len(writes)
		d.recovery.MaxTS = maxTS
		d.recovery.LastLSN = lastLSN
		// The snapshot becomes the monitor's init frontier: one
		// synthetic init commit holding each object's final value, the
		// same absorption the online monitor applies to a history's
		// own init transaction.
		if mon != nil && len(writes) > 0 {
			base := eventlog.Event{Session: model.InitTransactionID, TxID: "snapshot"}
			ev := base
			ev.Kind = eventlog.Begin
			ingest(ev)
			for _, w := range writes {
				ev = base
				ev.Kind, ev.Obj, ev.Val = eventlog.Write, w.Obj, w.Version.Val
				ingest(ev)
			}
			ev = base
			ev.Kind, ev.Name = eventlog.Commit, model.InitTransactionID
			ingest(ev)
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("wal: %w", err)
	}

	// Segments, in index order.
	segs, maxIdx, err := d.listSegments()
	if err != nil {
		return err
	}
	d.recovery.Segments = len(segs)
	d.segIndex = maxIdx
	sawCommit := false
	for i, idx := range segs {
		final := i == len(segs)-1
		if err := d.replaySegment(d.segmentPath(idx), final, snapLSN, &sawCommit, ingest); err != nil {
			return err
		}
	}
	if snapLSN > d.recovery.LastLSN {
		d.recovery.LastLSN = snapLSN
	}
	d.lsn = d.recovery.LastLSN
	d.synced = d.lsn

	// Certify. The monitor verdict is one-sidedly sound even after
	// window collapse: certified implies the full replayed stream is
	// a member of the model.
	if mon == nil {
		d.recovery.Verdict = "certification skipped"
		return nil
	}
	rep, merr := mon.Finish()
	d.recovery.Violations = rep.Violations
	certified := merr == nil && rep.Member && len(rep.Violations) == 0
	d.recovery.Certified = certified
	switch {
	case certified:
		d.recovery.Verdict = fmt.Sprintf("recovered state certified: %d replayed commits are a member of %s",
			d.recovery.Commits, d.opts.Model)
	case merr != nil:
		d.recovery.Verdict = fmt.Sprintf("certification inconclusive for %s: %v", d.opts.Model, merr)
	default:
		d.recovery.Verdict = fmt.Sprintf("replayed history is NOT a member of %s (%d violations)",
			d.opts.Model, len(rep.Violations))
	}
	if !certified {
		return &CertifyError{Info: d.recovery}
	}
	return nil
}

// listSegments returns the existing segment indices in ascending order
// plus the highest index ever used (so fresh segments never reuse a
// deleted predecessor's name).
func (d *Driver) listSegments() ([]uint64, uint64, error) {
	entries, err := os.ReadDir(d.opts.Dir)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	var segs []uint64
	var maxIdx uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		idx, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
		if perr != nil {
			continue
		}
		segs = append(segs, idx)
		if idx > maxIdx {
			maxIdx = idx
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, maxIdx, nil
}

// replaySegment applies one segment file. A final segment whose
// non-zero bytes are a strict prefix of the magic is what a crash in
// createSegment leaves, and is removed; any other magic refuses, in
// every segment. The final segment ends at
// its first invalid frame: an all-zero remainder is the unwritten part
// of its preallocation, anything else a torn or corrupt tail (an
// un-synced tail was never acknowledged), and either way the file is
// cut at the last valid frame. Only the torn bytes count in
// TruncatedBytes, never trailing zeros. Any invalid frame elsewhere —
// a zero tail included, since a segment is sealed to its written
// length before its successor exists — is unexplainable corruption,
// and recovery refuses.
func (d *Driver) replaySegment(path string, final bool, snapLSN uint64, sawCommit *bool, ingest func(eventlog.Event)) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if magic := data[:min(len(data), len(segMagic))]; string(magic) != segMagic {
		rest := bytes.TrimRight(data, "\x00")
		if final && len(rest) < len(segMagic) && strings.HasPrefix(segMagic, string(rest)) {
			// A crash during createSegment tore the magic itself; no
			// record in this file was ever durable.
			d.recovery.TruncatedBytes += int64(len(rest))
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			return nil
		}
		return fmt.Errorf("wal: %s: segment magic %q: this build reads and writes only %q", path, magic, segMagic)
	}
	off := len(segMagic)
	for off < len(data) {
		frameLen, payload, why := nextFrame(data[off:])
		if payload == nil {
			torn := tornLen(data[off:])
			if !final {
				if torn == 0 {
					why = "zero tail"
				}
				return fmt.Errorf("wal: %s: corrupt frame at offset %d in non-final segment (%s)", path, off, why)
			}
			// Drop the tail so the next append continues from a valid
			// frame boundary.
			d.recovery.TruncatedBytes += torn
			return d.truncateSegment(path, int64(off))
		}
		if err := d.applyRecord(payload, snapLSN, sawCommit, ingest); err != nil {
			return fmt.Errorf("wal: %s: offset %d: %w", path, off, err)
		}
		off += frameLen
	}
	return nil
}

// tornLen is the length of b without its trailing zero bytes.
func tornLen(b []byte) int64 { return int64(len(bytes.TrimRight(b, "\x00"))) }

// truncateSegment cuts a final segment at size and, unless NoSync,
// syncs the cut: the segment stops being final once Open creates the
// next one, and a non-final segment must not regrow its tail.
func (d *Driver) truncateSegment(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	err = f.Truncate(size)
	if err == nil && !d.opts.NoSync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// nextFrame validates the frame at the head of b. It returns the full
// frame length and the payload, or a nil payload with the reason the
// frame is invalid (truncated or corrupt — the caller decides whether
// that is a torn tail or fatal).
func nextFrame(b []byte) (int, []byte, string) {
	if len(b) < frameHeaderLen {
		return 0, nil, "truncated header"
	}
	plen := int(codec.U32(b))
	if plen < 9 { // kind + lsn minimum
		return 0, nil, "implausibly short payload"
	}
	if plen > maxFramePayload {
		return 0, nil, "implausibly long payload"
	}
	if len(b) < frameHeaderLen+plen {
		return 0, nil, "truncated payload"
	}
	payload := b[frameHeaderLen : frameHeaderLen+plen]
	if crc32.Checksum(payload, castagnoli) != codec.U32(b[4:]) {
		return 0, nil, "CRC mismatch"
	}
	return frameHeaderLen + plen, payload, ""
}

// applyRecord replays one CRC-valid record. A record the snapshot
// already covers (by LSN, or per object by timestamp) is skipped.
func (d *Driver) applyRecord(payload []byte, snapLSN uint64, sawCommit *bool, ingest func(eventlog.Event)) error {
	r := codec.NewReader("wal", payload)
	kind, lsn := r.U8("record kind"), r.U64("record lsn")
	if lsn > d.recovery.LastLSN {
		d.recovery.LastLSN = lsn
	}
	if lsn <= snapLSN {
		// Rotated out before the snapshot's cut: fully covered.
		d.recovery.Skipped++
		return nil
	}
	switch kind {
	case recCommit:
		rec := readCommit(&r)
		if err := r.Done("commit record"); err != nil {
			return err
		}
		tx := model.NewTransaction(rec.TxID, rec.Ops...)
		installed := false
		for _, x := range tx.WriteSet() {
			if d.store.LatestTS(x) < rec.TS {
				v, _ := tx.FinalWrite(x)
				if err := d.store.Install(x, storage.Version{Val: v, TS: rec.TS}); err != nil {
					return err
				}
				installed = true
			}
		}
		if !installed {
			// A commit racing the snapshot cut: in the snapshot and in
			// the log; the snapshot (and its synthetic init feed)
			// already accounts for it.
			d.recovery.Skipped++
			return nil
		}
		d.recovery.Records++
		d.recovery.Commits++
		if rec.TS > d.recovery.MaxTS {
			d.recovery.MaxTS = rec.TS
		}
		name := ""
		if !*sawCommit && rec.Session == model.InitTransactionID {
			// The history's own initialisation commit leads the log:
			// name it so the monitor absorbs it as the frontier.
			name = model.InitTransactionID
		}
		*sawCommit = true
		base := eventlog.Event{Session: rec.Session, TxID: rec.TxID}
		ev := base
		ev.Kind = eventlog.Begin
		ingest(ev)
		for _, op := range rec.Ops {
			ev = base
			ev.Obj, ev.Val = op.Obj, op.Val
			if op.Kind == model.OpWrite {
				ev.Kind = eventlog.Write
			} else {
				ev.Kind = eventlog.Read
			}
			ingest(ev)
		}
		ev = base
		ev.Kind, ev.Name = eventlog.Commit, name
		ingest(ev)
	case recInstall:
		x, v := readWrite(&r)
		if err := r.Done("install record"); err != nil {
			return err
		}
		if d.store.LatestTS(x) >= v.TS {
			d.recovery.Skipped++
			return nil
		}
		if err := d.store.Install(x, v); err != nil {
			return err
		}
		d.recovery.Records++
		if v.TS > d.recovery.MaxTS {
			d.recovery.MaxTS = v.TS
		}
		// A raw install is an atomic single-write transaction; feed it
		// as one so certification stays meaningful for mixed logs.
		*sawCommit = true
		base := eventlog.Event{Session: "wal:install", TxID: fmt.Sprintf("install/%d", lsn)}
		ev := base
		ev.Kind = eventlog.Begin
		ingest(ev)
		ev = base
		ev.Kind, ev.Obj, ev.Val = eventlog.Write, x, v.Val
		ingest(ev)
		ev = base
		ev.Kind = eventlog.Commit
		ingest(ev)
	default:
		return fmt.Errorf("unknown record kind %d", kind)
	}
	return nil
}
