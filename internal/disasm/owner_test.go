package disasm

import (
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
// when decodes at different phases overlap, from either side, and that
// setRange reports exactly the writes that overlap an owned byte.
func TestOwnerIndexOverlappingDecodes(t *testing.T) {
	const base = 0x401000
	o := newOwnerIndex([]Range{{Start: base, End: base + 0x100}})
	for _, w := range []struct {
		at      uint64
		n       int
		overlap bool
	}{
		{0x10, 5, false}, // [0x10, 0x15)
		{0x0e, 4, true},  // [0x0e, 0x12) takes the first two bytes
		{0x13, 3, true},  // [0x13, 0x16) takes the last two bytes
		{0x16, 2, false}, // [0x16, 0x18) abuts the last
	} {
		if got := o.setRange(base+w.at, w.n); got != w.overlap {
			t.Fatalf("setRange(%#x, %d) reported overlap %v, want %v", base+w.at, w.n, got, w.overlap)
		}
	}
	for a, want := range map[uint64]uint64{
		0x0e: 0x0e, 0x0f: 0x0e, 0x10: 0x0e, 0x11: 0x0e,
		0x12: 0x10,
		0x13: 0x13, 0x14: 0x13, 0x15: 0x13,
		0x16: 0x16, 0x17: 0x16,
	} {
		requireOwner(t, o, base+a, base+want, true)
	}
	requireOwner(t, o, base+0x0d, 0, false)
	requireOwner(t, o, base+0x18, 0, false)
	requireOwner(t, o, base-1, 0, false)
	requireOwner(t, o, base+0x100, 0, false)
}

// TestOwnerIndexChunkStraddle covers an instruction whose bytes span
// two chunks: both chunks are allocated, and every byte resolves to the
// one start.
func TestOwnerIndexChunkStraddle(t *testing.T) {
	const base = 0x10000000
	o := newOwnerIndex([]Range{{Start: base, End: base + 3*tableChunkLen}})
	start := uint64(base + tableChunkLen - 3)
	o.setRange(start, 7)
	for a := start; a < start+7; a++ {
		requireOwner(t, o, a, start, true)
	}
	requireOwner(t, o, start+7, 0, false)
	if o.alloc != 2*tableChunkLen {
		t.Fatalf("alloc = %d, want two chunks (%d)", o.alloc, 2*tableChunkLen)
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
	if o.alloc != tableChunkLen {
		t.Fatalf("alloc = %d, want one chunk (%d)", o.alloc, tableChunkLen)
	}
}

// TestOwnerIndexReset pins reset: written chunks read as uncovered
// afterwards, and later first writes — to the same chunk or another —
// take them back from the free list, cleared and not charged again.
func TestOwnerIndexReset(t *testing.T) {
	const base = 0x401000
	o := newOwnerIndex([]Range{{Start: base, End: base + 3*tableChunkLen}})
	o.setRange(base, 4)
	o.setRange(base+tableChunkLen-2, 4) // straddles into the second chunk
	o.reset()
	for _, a := range []uint64{base, base + tableChunkLen - 1, base + tableChunkLen} {
		requireOwner(t, o, a, 0, false)
	}
	o.setRange(base+8, 2)
	o.setRange(base+2*tableChunkLen, 1)
	requireOwner(t, o, base, 0, false) // cleared, not resurrected
	requireOwner(t, o, base+9, base+8, true)
	requireOwner(t, o, base+tableChunkLen, 0, false)
	requireOwner(t, o, base+2*tableChunkLen, base+2*tableChunkLen, true)
	if o.alloc != 2*tableChunkLen {
		t.Fatalf("alloc = %d after reuse, want two chunks (%d)", o.alloc, 2*tableChunkLen)
	}
	if len(o.free) != 0 {
		t.Fatalf("%d chunks left on the free list, want none", len(o.free))
	}
	// Past what reset took back, a first write is charged again.
	o.setRange(base+tableChunkLen, 1)
	if o.alloc != 3*tableChunkLen {
		t.Fatalf("alloc = %d after a third chunk, want %d", o.alloc, 3*tableChunkLen)
	}
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
