package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"sian/internal/model"
	"sian/internal/storage"
)

// On-disk format. A segment file is the magic followed by frames:
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
// All integers are big-endian; strings are u32 length + bytes; values
// (model.Value, int64) travel as their two's-complement uint64 bits.
// Record kinds:
//
//	commit  (1): u64 ts | str session | str txid | u32 nops |
//	             nops × (u8 opKind | str obj | i64 val)
//	             — one engine commit, full operation list included so
//	             recovery replay re-certifies the history.
//	install (2): str obj | i64 val | u64 ts | str writer | u64 meta
//	             — one raw version install that bypassed the engine
//	             commit path (Driver.Install / InstallBatch). The
//	             writer and meta slots are reserved: always written
//	             empty and 0, and read and discarded (logs that carry
//	             a writer or a meta stamp there still open).
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
	segMagic  = "SIWAL001"
	snapMagic = "SISNAP01"

	recCommit  byte = 1
	recInstall byte = 2

	wireOpRead  byte = 0
	wireOpWrite byte = 1

	// maxFramePayload bounds a single frame (64 MiB): a sanity check
	// that turns a corrupt length prefix into a clean torn-tail stop
	// instead of a giant allocation.
	maxFramePayload = 1 << 26

	// frameHeaderLen is the length+CRC prefix.
	frameHeaderLen = 8
)

func beUint32(b []byte) uint32 { return binary.BigEndian.Uint32(b) }
func beUint64(b []byte) uint64 { return binary.BigEndian.Uint64(b) }

func crcChecksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

func appendUint32(b []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(b, v)
}

func appendUint64(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v)
}

func appendString(b []byte, s string) []byte {
	b = appendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func appendValue(b []byte, v model.Value) []byte {
	return appendUint64(b, uint64(v))
}

// encodeFrame wraps kind+lsn+body into a length-prefixed CRC-framed
// record.
func encodeFrame(kind byte, lsn uint64, body []byte) []byte {
	payload := make([]byte, 0, 9+len(body))
	payload = append(payload, kind)
	payload = appendUint64(payload, lsn)
	payload = append(payload, body...)
	out := make([]byte, 0, frameHeaderLen+len(payload))
	out = appendUint32(out, uint32(len(payload)))
	out = appendUint32(out, crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

func encodeCommitBody(rec storage.CommitRecord) []byte {
	b := make([]byte, 0, 32+16*len(rec.Ops))
	b = appendUint64(b, rec.TS)
	b = appendString(b, rec.Session)
	b = appendString(b, rec.TxID)
	b = appendUint32(b, uint32(len(rec.Ops)))
	for _, op := range rec.Ops {
		k := wireOpRead
		if op.Kind == model.OpWrite {
			k = wireOpWrite
		}
		b = append(b, k)
		b = appendString(b, string(op.Obj))
		b = appendValue(b, op.Val)
	}
	return b
}

func encodeInstallBody(x model.Obj, v storage.Version) []byte {
	b := make([]byte, 0, 40+len(x))
	b = appendString(b, string(x))
	b = appendValue(b, v.Val)
	b = appendUint64(b, v.TS)
	b = appendString(b, "") // the reserved writer slot
	b = appendUint64(b, 0)  // the reserved meta slot
	return b
}

// byteReader decodes a frame body with sticky error handling, so a
// record truncated mid-field surfaces as one decode error instead of a
// panic.
type byteReader struct {
	b   []byte
	off int
	err error
}

func (r *byteReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wal: truncated %s at offset %d", what, r.off)
	}
}

func (r *byteReader) u8(what string) byte {
	if r.err != nil {
		return 0
	}
	if r.off+1 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *byteReader) u32(what string) uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *byteReader) u64(what string) uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *byteReader) str(what string) string {
	n := r.u32(what)
	if r.err != nil {
		return ""
	}
	if n > math.MaxInt32 || r.off+int(n) > len(r.b) {
		r.fail(what)
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *byteReader) val(what string) model.Value {
	return model.Value(r.u64(what))
}

func (r *byteReader) done(what string) error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wal: %d trailing bytes after %s", len(r.b)-r.off, what)
	}
	return nil
}

func decodeCommitBody(b []byte) (storage.CommitRecord, error) {
	r := &byteReader{b: b}
	rec := storage.CommitRecord{
		TS:      r.u64("commit ts"),
		Session: r.str("commit session"),
		TxID:    r.str("commit txid"),
	}
	n := r.u32("commit op count")
	if r.err == nil && int(n) > len(b) { // each op is ≥ 13 bytes; cheap bound
		return rec, fmt.Errorf("wal: implausible op count %d in %d-byte commit record", n, len(b))
	}
	for i := 0; i < int(n) && r.err == nil; i++ {
		k := r.u8("op kind")
		obj := model.Obj(r.str("op object"))
		val := r.val("op value")
		switch k {
		case wireOpRead:
			rec.Ops = append(rec.Ops, model.Read(obj, val))
		case wireOpWrite:
			rec.Ops = append(rec.Ops, model.Write(obj, val))
		default:
			return rec, fmt.Errorf("wal: unknown op kind %d in commit record", k)
		}
	}
	return rec, r.done("commit record")
}

func decodeInstallBody(b []byte) (model.Obj, storage.Version, error) {
	r := &byteReader{b: b}
	x := model.Obj(r.str("install object"))
	v := storage.Version{Val: r.val("install value"), TS: r.u64("install ts")}
	r.str("install writer") // reserved; discarded
	r.u64("install meta")   // reserved; discarded
	return x, v, r.done("install record")
}

// encodeSnapshot renders the snapshot document for the given latest
// versions. Entries are emitted in map order — recovery rebuilds a
// map, so order is irrelevant, and the trailing CRC covers whatever
// order was written.
func encodeSnapshot(latest map[model.Obj]storage.Version, maxTS, lastLSN uint64) []byte {
	b := make([]byte, 0, 32+48*len(latest))
	b = append(b, snapMagic...)
	body := make([]byte, 0, 24+48*len(latest))
	body = appendUint64(body, lastLSN)
	body = appendUint64(body, maxTS)
	body = appendUint32(body, uint32(len(latest)))
	for x, v := range latest {
		body = append(body, encodeInstallBody(x, v)...)
	}
	b = append(b, body...)
	return appendUint32(b, crc32.Checksum(body, castagnoli))
}

// decodeSnapshot parses and CRC-verifies a snapshot document.
func decodeSnapshot(b []byte) (latest []storage.Write, maxTS, lastLSN uint64, err error) {
	if len(b) < len(snapMagic)+20 || string(b[:len(snapMagic)]) != snapMagic {
		return nil, 0, 0, fmt.Errorf("wal: snapshot: bad magic")
	}
	body, crcBytes := b[len(snapMagic):len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(crcBytes) {
		return nil, 0, 0, fmt.Errorf("wal: snapshot: CRC mismatch")
	}
	r := &byteReader{b: body}
	lastLSN = r.u64("snapshot lsn")
	maxTS = r.u64("snapshot maxTS")
	n := r.u32("snapshot entry count")
	for i := 0; i < int(n) && r.err == nil; i++ {
		x := model.Obj(r.str("snapshot object"))
		v := storage.Version{Val: r.val("snapshot value"), TS: r.u64("snapshot ts")}
		r.str("snapshot writer") // reserved; discarded
		r.u64("snapshot meta")   // reserved; discarded
		latest = append(latest, storage.Write{Obj: x, Version: v})
	}
	if derr := r.done("snapshot"); derr != nil {
		return nil, 0, 0, derr
	}
	return latest, maxTS, lastLSN, nil
}
