package codec

import (
	"math"
	"reflect"
	"testing"

	"sian/internal/model"
)

// FuzzCodec drives a Reader over arbitrary bytes with an arbitrary
// accessor sequence: no panic, errors stick, the offset stays in
// bounds, a failed reader offers no bytes, and an op list never
// allocates beyond its input. Every op list it decodes survives
// encode → decode, and OpsLen is the length AppendOps writes.
func FuzzCodec(f *testing.F) {
	ops := func(ops ...model.Op) []byte { return AppendOps(nil, ops) }
	f.Add([]byte{0, 1, 2, 3}, []byte("payload"))
	f.Add([]byte{3, 3}, AppendStr(AppendStr(nil, "key"), "value"))
	f.Add([]byte{3}, AppendU32(nil, 0xffffffff))
	f.Add([]byte{4, 5, 5}, []byte{0x80, 0x01, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{6, 6, 6}, ops(model.Read("", 0), model.Write("", -1)))
	f.Add([]byte{6}, ops(model.Write("\xff\xfe\x00", 1), model.Read("é", 2)))
	f.Add([]byte{6}, ops(model.Write("x", math.MinInt64), model.Write("x", math.MaxInt64), model.Read("x", -1<<40)))
	f.Add([]byte{6, 6}, ops())
	f.Add([]byte{6}, []byte{0xff, 0xff, 0x03, 0x01, 0x78, 0x02})       // 65535 ops in 3 bytes
	f.Add([]byte{6}, []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 0x01}) // 1<<40 ops
	f.Fuzz(func(t *testing.T, script, data []byte) {
		r := NewReader("codec", data)
		intern := map[string]model.Obj{}
		for _, step := range script {
			failed := r.Err() != nil
			switch step % 7 {
			case 0:
				r.U8("u8")
			case 1:
				r.U32("u32")
			case 2:
				r.U64("u64")
			case 3:
				r.Str("str")
			case 4:
				r.uvarint("uvarint")
			case 5:
				r.varint("varint")
			case 6:
				left := r.Remaining()
				got := r.Ops(intern)
				if r.Err() != nil {
					if got != nil {
						t.Fatalf("partial op list (%d ops) despite %v", len(got), r.Err())
					}
					break
				}
				if cap(got) > left/2 {
					t.Fatalf("%d ops allocated from %d bytes", cap(got), left)
				}
				enc := AppendOps(nil, got)
				if len(enc) != OpsLen(got) {
					t.Fatalf("OpsLen = %d, AppendOps wrote %d bytes", OpsLen(got), len(enc))
				}
				back := NewReader("codec", enc)
				if again := back.Ops(nil); !reflect.DeepEqual(again, got) || back.Done("ops") != nil {
					t.Fatalf("round trip of %v gave %v (%v)", got, again, back.Done("ops"))
				}
			}
			if failed && r.Err() == nil {
				t.Fatal("sticky error cleared")
			}
			if r.off < 0 || r.off > len(data) {
				t.Fatalf("offset %d outside the %d-byte input", r.off, len(data))
			}
			if r.Err() != nil && (r.Remaining() != 0 || r.Rest() != nil || r.Done("input") == nil) {
				t.Fatal("failed reader still offers bytes")
			}
		}
	})
}
