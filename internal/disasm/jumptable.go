package disasm

import (
	"fetch/internal/arch"
	"fetch/internal/elfx"
)

// maxJumpTableEntries caps table reads to keep malformed bounds from
// flooding the worklist.
const maxJumpTableEntries = 512

// jtCtx adapts a walk's image and in-progress Result to the
// arch.JumpTableCtx surface the backend jump-table resolvers consume:
// backward instruction context, data reads, and the two record sinks
// (consulted intervals for delta invalidation, resolved table bases
// for pointer-candidate suppression).
type jtCtx struct {
	img *elfx.Image
	isa arch.ISA
	res *Result
}

// InstEndingAt returns the decoded instruction that ends exactly at
// addr, scanning the walk's owner index back over the backend's maximum
// instruction length.
func (c jtCtx) InstEndingAt(addr uint64) (*arch.Inst, bool) {
	start, ok := prevInstIn(c.res, c.isa, addr)
	if !ok {
		return nil, false
	}
	return c.res.Insts[start], true
}

// ReadU64 reads a little-endian uint64 from the image.
func (c jtCtx) ReadU64(addr uint64) (uint64, error) { return c.img.ReadU64(addr) }

// ReadU32 reads a little-endian uint32 from the image.
func (c jtCtx) ReadU32(addr uint64) (uint32, error) { return c.img.ReadU32(addr) }

// IsExec reports whether addr lies in an executable section.
func (c jtCtx) IsExec(addr uint64) bool { return c.img.IsExec(addr) }

// RecordTableRead records a data interval the resolution consulted.
func (c jtCtx) RecordTableRead(lo, hi uint64) {
	c.res.tableReads = append(c.res.tableReads, Interval{lo, hi})
}

// RecordTableBase records a resolved table's base address.
func (c jtCtx) RecordTableBase(table uint64) { c.res.TableBases[table] = true }

// prevInstIn returns the start of the decoded instruction that ends
// exactly at addr, scanning back at most isa's longest instruction. It
// runs mid-walk, while the walk still holds its owner index: its own
// for a committed pass, the borrowed workspace for probes and bounded
// walks.
func prevInstIn(res *Result, isa arch.ISA, addr uint64) (uint64, bool) {
	for back := uint64(1); back <= uint64(isa.MaxInstLen()); back++ {
		start, ok := res.owner.get(addr - back)
		if !ok {
			continue
		}
		in, ok2 := res.Insts[start]
		if ok2 && in.Next() == addr {
			return start, true
		}
	}
	return 0, false
}
