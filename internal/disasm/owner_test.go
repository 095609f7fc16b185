package disasm

import (
	"math"
	"testing"

	"fetch/internal/elfx"
)

// requireOwner fails unless addr is owned by the instruction at want
// (ok) or is uncovered (!ok).
func requireOwner(t *testing.T, o *ownerIndex, addr, want uint64, ok bool) {
	t.Helper()
	got, gotOK := o.get(addr)
	if gotOK != ok || (ok && got != want) {
		t.Fatalf("owner of %#x = %#x (%v), want %#x (%v)", addr, got, gotOK, want, ok)
	}
}

// TestOwnerIndexOverlappingDecodes pins last-writer-wins ownership
// when decodes at different phases overlap, from either side.
func TestOwnerIndexOverlappingDecodes(t *testing.T) {
	const base = 0x401000
	o := newOwnerIndex([]Range{{Start: base, End: base + 0x100}})
	o.setRange(base+0x10, 5) // [0x10, 0x15)
	o.setRange(base+0x0e, 4) // [0x0e, 0x12) takes the first two bytes
	o.setRange(base+0x13, 3) // [0x13, 0x16) takes the last two bytes
	for a, want := range map[uint64]uint64{
		0x0e: 0x0e, 0x0f: 0x0e, 0x10: 0x0e, 0x11: 0x0e,
		0x12: 0x10,
		0x13: 0x13, 0x14: 0x13, 0x15: 0x13,
	} {
		requireOwner(t, o, base+a, base+want, true)
	}
	requireOwner(t, o, base+0x0d, 0, false)
	requireOwner(t, o, base+0x16, 0, false)
	requireOwner(t, o, base-1, 0, false)
	requireOwner(t, o, base+0x100, 0, false)
}

// TestOwnerIndexChunkStraddle covers an instruction whose bytes span
// two chunks: both chunks are allocated, and every byte resolves to the
// one start.
func TestOwnerIndexChunkStraddle(t *testing.T) {
	const base = 0x10000000
	o := newOwnerIndex([]Range{{Start: base, End: base + 3*ownerChunkLen}})
	start := uint64(base + ownerChunkLen - 3)
	o.setRange(start, 7)
	for a := start; a < start+7; a++ {
		requireOwner(t, o, a, start, true)
	}
	requireOwner(t, o, start+7, 0, false)
	if o.alloc != 2*ownerChunkLen {
		t.Fatalf("alloc = %d, want two chunks (%d)", o.alloc, 2*ownerChunkLen)
	}
}

// TestOwnerIndexHugeSection reserves a section past 2 GiB, beyond any
// 32-bit offset encoding, and checks that ownership near its end is
// exact and that only the written chunk is allocated.
func TestOwnerIndexHugeSection(t *testing.T) {
	const base = 0x400000
	const size = 3 << 30
	o := newOwnerIndex([]Range{{Start: base, End: base + size}})
	start := uint64(base + size - 10)
	o.setRange(start, 5)
	for a := start; a < start+5; a++ {
		requireOwner(t, o, a, start, true)
	}
	requireOwner(t, o, start-1, 0, false)
	requireOwner(t, o, base+(1<<31)+5, 0, false)
	if o.alloc != ownerChunkLen {
		t.Fatalf("alloc = %d, want one chunk (%d)", o.alloc, ownerChunkLen)
	}
}

// TestOwnerIndexEpochReset pins the O(1) reset: stale chunks read as
// uncovered, are cleared on their next write without reallocating, and
// an epoch wrap clears every stamp so no chunk from 2^32 resets ago
// comes back to life.
func TestOwnerIndexEpochReset(t *testing.T) {
	const base = 0x401000
	o := newOwnerIndex([]Range{{Start: base, End: base + 2*ownerChunkLen}})
	o.setRange(base, 4)
	o.reset()
	requireOwner(t, o, base, 0, false)
	o.setRange(base+8, 2)
	requireOwner(t, o, base, 0, false) // cleared, not resurrected
	requireOwner(t, o, base+9, base+8, true)
	if o.alloc != ownerChunkLen {
		t.Fatalf("alloc = %d after reuse, want %d", o.alloc, ownerChunkLen)
	}

	// Wrap: chunk 0 keeps stamp 1 from long ago, chunk 1 is written
	// in the last epoch before the wrap. Neither may read as live in
	// the new epoch 1.
	w := newOwnerIndex([]Range{{Start: base, End: base + 2*ownerChunkLen}})
	w.setRange(base, 4)
	w.epoch = math.MaxUint32
	w.setRange(base+ownerChunkLen, 3)
	w.reset()
	if w.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", w.epoch)
	}
	requireOwner(t, w, base, 0, false)
	requireOwner(t, w, base+ownerChunkLen, 0, false)
	w.setRange(base+ownerChunkLen+1, 1)
	requireOwner(t, w, base+ownerChunkLen, 0, false)
	requireOwner(t, w, base+ownerChunkLen+1, base+ownerChunkLen+1, true)
}

// TestOwnerWorkspaceBorrow pins the workspace contract: a nested
// borrow on the session panics, and a returned borrow detaches the
// workspace from the walk's result.
func TestOwnerWorkspaceBorrow(t *testing.T) {
	const base = 0x401000
	img := &elfx.Image{
		Entry: base,
		Sections: []*elfx.Section{{
			Name: ".text", Addr: base, Data: []byte{0x90, 0xC3},
			Flags: elfx.FlagAlloc | elfx.FlagExec,
		}},
	}
	sess := NewSession(img, Options{})

	ws := sess.borrowOwner()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("nested borrow did not panic")
			}
		}()
		sess.borrowOwner()
	}()
	res := &Result{owner: ws}
	sess.returnOwner(res)
	if res.owner != nil {
		t.Fatal("returned borrow left the workspace on the result")
	}
	if sess.borrowOwner() != ws {
		t.Fatal("borrow after return did not lend the same workspace")
	}
	sess.returnOwner(&Result{})

	// A probe walks in the workspace and hands back a result without
	// coverage; its decodes are still there.
	p := sess.Probe([]uint64{base}, Options{})
	if len(p.Insts) != 2 || p.Covered(base) {
		t.Fatalf("probe: %d insts, covered=%v; want 2 insts and no coverage index", len(p.Insts), p.Covered(base))
	}
}
