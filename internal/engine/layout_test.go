package engine

import (
	"testing"
	"unsafe"
)

// lastWord is the offset of the last 8-byte word of a field of the
// given size at off.
func lastWord(off, size uintptr) uintptr { return (off + size - 1) &^ 7 }

// apart reports an error unless the field at next starts at least 64
// bytes after the last word of the field at off: two words 64 bytes
// apart never share a cache line, however the struct is aligned.
func apart(t *testing.T, what string, off, size, next uintptr) {
	t.Helper()
	if next < lastWord(off, size)+64 {
		t.Errorf("%s: %d bytes apart, want at least 64", what, next-lastWord(off, size))
	}
}

// TestProtocolLayout: a commit of one session writes no cache line
// that a commit of a session with a disjoint write set reads or
// writes, except the line of the timestamps. nextTS, commitTS and
// pubWaiters sit at least 64 bytes from the fields every read loads
// (store, ssi, psi) and from the compaction books, and the per-stripe
// supersede counts and the snapshot registry's slots are 64 bytes
// apart from each other and from their neighbours.
func TestProtocolLayout(t *testing.T) {
	var p siProtocol
	apart(t, "parks → nextTS", unsafe.Offsetof(p.parks), unsafe.Sizeof(p.parks), unsafe.Offsetof(p.nextTS))
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"store", unsafe.Offsetof(p.store), unsafe.Sizeof(p.store)},
		{"ssi", unsafe.Offsetof(p.ssi), unsafe.Sizeof(p.ssi)},
		{"psi", unsafe.Offsetof(p.psi), unsafe.Sizeof(p.psi)},
	} {
		apart(t, f.name+" → nextTS", f.off, f.size, unsafe.Offsetof(p.nextTS))
	}
	if !(unsafe.Offsetof(p.nextTS) < unsafe.Offsetof(p.commitTS) && unsafe.Offsetof(p.commitTS) < unsafe.Offsetof(p.pubWaiters)) {
		t.Error("want nextTS, commitTS, pubWaiters in that order")
	}
	apart(t, "pubWaiters → pubMu", unsafe.Offsetof(p.pubWaiters), unsafe.Sizeof(p.pubWaiters), unsafe.Offsetof(p.pubMu))
	apart(t, "pubWaiters → superseded", unsafe.Offsetof(p.pubWaiters), unsafe.Sizeof(p.pubWaiters), unsafe.Offsetof(p.superseded))
	apart(t, "compacting → pending", unsafe.Offsetof(p.compacting), unsafe.Sizeof(p.compacting), unsafe.Offsetof(p.pending))
	apart(t, "pending stripes", 0, unsafe.Sizeof(p.pending[0].v), unsafe.Sizeof(p.pending[0]))
	lastCell := unsafe.Offsetof(p.pending) + (uintptr(len(p.pending))-1)*unsafe.Sizeof(p.pending[0])
	apart(t, "pending → snaps", lastCell, unsafe.Sizeof(p.pending[0].v), unsafe.Offsetof(p.snaps))

	r := &p.snaps
	apart(t, "cursor → slots", unsafe.Offsetof(r.cursor), unsafe.Sizeof(r.cursor), unsafe.Offsetof(r.slots))
	apart(t, "gcIntent → slots", unsafe.Offsetof(r.gcIntent), unsafe.Sizeof(r.gcIntent), unsafe.Offsetof(r.slots))
	apart(t, "snapshot slots", 0, unsafe.Sizeof(r.slots[0].v), unsafe.Sizeof(r.slots[0]))
	last := unsafe.Offsetof(r.slots) + (snapSlots-1)*unsafe.Sizeof(r.slots[0])
	apart(t, "last slot → spillMu", last, unsafe.Sizeof(r.slots[0].v), unsafe.Offsetof(r.spillMu))
}
