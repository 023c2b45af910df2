package wal

import (
	"fmt"
	"hash/crc32"

	"sian/internal/codec"
	"sian/internal/model"
	"sian/internal/storage"
)

// On-disk format, version 2. A segment file is the magic followed by
// frames:
//
//	frame   := u32 payloadLen | u32 crc32c(payload) | payload
//	payload := u8 kind | u64 lsn | body
//
// A segment is preallocated, so on disk the frames may be followed by
// zeros: the unwritten rest of the allocation. A zero header is never
// a frame (payloadLen 0 is below the minimum), so an all-zero
// remainder after the last frame is the segment's clean end — legal
// only in the final segment, since every other one was sealed to its
// written length (see replaySegment).
//
// Integers, strings and the op list are codec's. Record kinds:
//
//	commit  (1): u64 ts | str session | str txid | ops
//	             — one engine commit; ops is codec's op list, the same
//	             bytes the engine's history log keeps, so recovery
//	             replay re-certifies the history.
//	install (2): str obj | u64 val | u64 ts
//	             — one raw version install that bypassed the engine
//	             commit path (Driver.Install / InstallBatch).
//
// The snapshot file is magic, u64 lastLSN, u64 maxTS, u32 count,
// count × install-shaped entries, then u32 crc32c over everything
// after the magic. It is written to a temp file, fsynced and renamed,
// so a torn snapshot never becomes visible; a snapshot that fails its
// CRC is disk corruption and refuses recovery (its segments may
// already be truncated, so falling back to "ignore it" could silently
// lose acknowledged commits).

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	segMagic  = "SIWAL002"
	snapMagic = "SISNAP02"

	recCommit  byte = 1
	recInstall byte = 2

	// maxFramePayload bounds a single frame (64 MiB): a sanity check
	// that turns a corrupt length prefix into a clean torn-tail stop
	// instead of a giant allocation.
	maxFramePayload = 1 << 26

	// frameHeaderLen is the length+CRC prefix.
	frameHeaderLen = 8
)

// beginFrame starts a frame in the scratch buf: the length and CRC
// slots, which endFrame fills, then kind and LSN; the body follows.
func beginFrame(buf []byte, kind byte, lsn uint64) []byte {
	return codec.AppendU64(append(buf[:0], 0, 0, 0, 0, 0, 0, 0, 0, kind), lsn)
}

// endFrame fills the length and CRC slots of the frame in b.
func endFrame(b []byte) []byte {
	payload := b[frameHeaderLen:]
	codec.PutU32(b, uint32(len(payload)))
	codec.PutU32(b[4:], crc32.Checksum(payload, castagnoli))
	return b
}

// commitFrame builds rec's commit frame at lsn in buf.
func commitFrame(buf []byte, lsn uint64, rec *storage.CommitRecord) []byte {
	b := beginFrame(buf, recCommit, lsn)
	b = codec.AppendU64(b, rec.TS)
	b = codec.AppendStr(b, rec.Session)
	b = codec.AppendStr(b, rec.TxID)
	return endFrame(codec.AppendOps(b, rec.Ops))
}

// installFrame builds the install frame of x's version v at lsn in buf.
func installFrame(buf []byte, lsn uint64, x model.Obj, v storage.Version) []byte {
	return endFrame(appendWrite(beginFrame(buf, recInstall, lsn), x, v))
}

// appendWrite appends an install record body, which is also a
// snapshot entry.
func appendWrite(b []byte, x model.Obj, v storage.Version) []byte {
	b = codec.AppendStr(b, string(x))
	b = codec.AppendU64(b, uint64(v.Val))
	return codec.AppendU64(b, v.TS)
}

func readWrite(r *codec.Reader) (model.Obj, storage.Version) {
	x := model.Obj(r.Str("object"))
	return x, storage.Version{Val: model.Value(r.U64("value")), TS: r.U64("ts")}
}

func readCommit(r *codec.Reader) storage.CommitRecord {
	return storage.CommitRecord{TS: r.U64("commit ts"), Session: r.Str("commit session"), TxID: r.Str("commit txid"), Ops: r.Ops(nil)}
}

// encodeSnapshot renders the snapshot document for the given latest
// versions. Entries are emitted in map order — recovery rebuilds a
// map, so order is irrelevant, and the trailing CRC covers whatever
// order was written.
func encodeSnapshot(latest map[model.Obj]storage.Version, maxTS, lastLSN uint64) []byte {
	b := append(make([]byte, 0, 32+32*len(latest)), snapMagic...)
	b = codec.AppendU64(b, lastLSN)
	b = codec.AppendU64(b, maxTS)
	b = codec.AppendU32(b, uint32(len(latest)))
	for x, v := range latest {
		b = appendWrite(b, x, v)
	}
	return codec.AppendU32(b, crc32.Checksum(b[len(snapMagic):], castagnoli))
}

// decodeSnapshot parses and CRC-verifies a snapshot document.
func decodeSnapshot(b []byte) (latest []storage.Write, maxTS, lastLSN uint64, err error) {
	if magic := b[:min(len(b), len(snapMagic))]; string(magic) != snapMagic {
		return nil, 0, 0, fmt.Errorf("wal: snapshot magic %q: this build reads and writes only %q", magic, snapMagic)
	}
	if len(b) < len(snapMagic)+4 {
		return nil, 0, 0, fmt.Errorf("wal: snapshot: truncated")
	}
	body, crc := b[len(snapMagic):len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, castagnoli) != codec.U32(crc) {
		return nil, 0, 0, fmt.Errorf("wal: snapshot: CRC mismatch")
	}
	r := codec.NewReader("wal", body)
	lastLSN = r.U64("snapshot lsn")
	maxTS = r.U64("snapshot maxTS")
	n := r.U32("snapshot entry count")
	for i := 0; i < int(n) && r.Err() == nil; i++ {
		x, v := readWrite(&r)
		latest = append(latest, storage.Write{Obj: x, Version: v})
	}
	if err := r.Done("snapshot"); err != nil {
		return nil, 0, 0, err
	}
	return latest, maxTS, lastLSN, nil
}
