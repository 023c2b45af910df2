// Package codec is the repository's one byte format: the big-endian
// integers and length-prefixed strings of the write-ahead log and the
// siwire protocol, the varint-coded transaction op list, and one
// sticky-error Reader that decodes them all. It is the only package
// that imports encoding/binary.
//
// Fixed-width integers are big-endian; a string is a u32 length and
// its bytes; a model.Value travels as its two's-complement u64 bits.
//
// # Op list
//
// A committed transaction is the paper's ordered list of read(x, n)
// and write(x, n) events. It encodes as
//
//	ops := uvarint n | n × (uvarint(len(obj)<<1 | isWrite) | obj | zigzag-varint val)
//
// The engine's history log keeps these bytes per transaction, and the
// WAL's commit record carries the same bytes after its header. An op
// takes at least two bytes, so Reader.Ops refuses a count above half
// the bytes left and never allocates more than its input justifies.
package codec

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"sian/internal/model"
)

// AppendU32 appends v big-endian.
func AppendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

// AppendU64 appends v big-endian.
func AppendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// AppendStr appends s as a u32 length and its bytes.
func AppendStr(b []byte, s string) []byte { return append(AppendU32(b, uint32(len(s))), s...) }

// PutU32 writes v big-endian into b[:4], a slot filled after its data.
func PutU32(b []byte, v uint32) { binary.BigEndian.PutUint32(b, v) }

// U32 reads the big-endian u32 at b[:4].
func U32(b []byte) uint32 { return binary.BigEndian.Uint32(b) }

// AppendOps appends the op list of ops (see the package doc).
func AppendOps(b []byte, ops []model.Op) []byte {
	b = binary.AppendUvarint(b, uint64(len(ops)))
	for _, op := range ops {
		b = binary.AppendUvarint(b, opHeader(op))
		b = append(b, op.Obj...)
		b = binary.AppendVarint(b, int64(op.Val))
	}
	return b
}

// OpsLen is len(AppendOps(nil, ops)), computed without encoding.
func OpsLen(ops []model.Op) int {
	n := uvarintLen(uint64(len(ops)))
	for _, op := range ops {
		n += uvarintLen(opHeader(op)) + len(op.Obj) + uvarintLen(uint64(op.Val<<1)^uint64(op.Val>>63))
	}
	return n
}

func opHeader(op model.Op) uint64 {
	h := uint64(len(op.Obj)) << 1
	if op.Kind == model.OpWrite {
		h |= 1
	}
	return h
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Reader decodes a byte slice front to back. Each accessor names what
// it reads, for the error. The first failure sticks: Err reports it,
// every later read returns the zero value, and a failed reader offers
// no bytes.
type Reader struct {
	b   []byte
	off int
	err error
	pkg string
}

// NewReader reads b; its errors start with pkg, the caller's name.
func NewReader(pkg string, b []byte) Reader { return Reader{b: b, pkg: pkg} }

// Err is the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(r.pkg+": "+format, args...)
	}
}

// take consumes the next n bytes, or fails and returns nil.
func (r *Reader) take(n uint64, what string) []byte {
	if r.err != nil || n > uint64(len(r.b)-r.off) {
		r.fail("truncated %s at offset %d", what, r.off)
		return nil
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

var zeros [8]byte

// word returns the next n ≤ 8 bytes, or n bytes of zeros after a failure.
func (r *Reader) word(n uint64, what string) []byte {
	if b := r.take(n, what); b != nil {
		return b
	}
	return zeros[:n]
}

// U8 reads one byte.
func (r *Reader) U8(what string) byte { return r.word(1, what)[0] }

// U32 reads a big-endian u32.
func (r *Reader) U32(what string) uint32 { return binary.BigEndian.Uint32(r.word(4, what)) }

// U64 reads a big-endian u64.
func (r *Reader) U64(what string) uint64 { return binary.BigEndian.Uint64(r.word(8, what)) }

// Str reads a u32-length string, copied out of the input.
func (r *Reader) Str(what string) string {
	n := r.U32(what)
	return string(r.take(uint64(n), what))
}

// uvarint reads an unsigned varint.
func (r *Reader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint %s at offset %d", what, r.off)
		return 0
	}
	r.off += n
	return v
}

// varint reads a zigzag-coded signed varint.
func (r *Reader) varint(what string) int64 {
	u := r.uvarint(what)
	return int64(u>>1) ^ -int64(u&1)
}

// Ops reads an op list (see the package doc). Object names that
// intern already holds are shared, and new ones are added to it; a nil
// intern copies every name. After a failure Ops returns nil.
func (r *Reader) Ops(intern map[string]model.Obj) []model.Op {
	n := r.uvarint("op count")
	if left := r.Remaining(); n > uint64(left/2) {
		r.fail("op count %d exceeds what %d bytes can hold at offset %d", n, left, r.off)
	}
	if r.err != nil {
		return nil
	}
	ops := make([]model.Op, n)
	for i := range ops {
		h := r.uvarint("op header")
		b := r.take(h>>1, "op object")
		v := r.varint("op value")
		if r.err != nil {
			return nil
		}
		x, ok := intern[string(b)]
		if !ok {
			x = model.Obj(b)
			if intern != nil {
				intern[string(x)] = x
			}
		}
		ops[i] = model.Op{Kind: model.OpRead, Obj: x, Val: model.Value(v)}
		if h&1 == 1 {
			ops[i].Kind = model.OpWrite
		}
	}
	return ops
}

// Rest returns the undecoded bytes, unconsumed; nil after a failure.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	return r.b[r.off:]
}

// Remaining is len(Rest()).
func (r *Reader) Remaining() int { return len(r.Rest()) }

// Done reports the first failure, or an error if bytes are left over
// after what the caller decoded.
func (r *Reader) Done(what string) error {
	if r.err == nil && r.off != len(r.b) {
		return fmt.Errorf("%s: %d trailing bytes after %s", r.pkg, len(r.b)-r.off, what)
	}
	return r.err
}
