package disasm

import "fetch/internal/arch"

// maxJumpTableEntries caps table reads to keep malformed bounds from
// flooding the worklist.
const maxJumpTableEntries = 512

// jtCtx adapts a walk's session and in-progress Result to the
// arch.JumpTableCtx surface the backend jump-table resolvers consume:
// backward instruction context, data reads, and the two record sinks
// (consulted intervals for delta invalidation, resolved table bases
// for pointer-candidate suppression).
type jtCtx struct {
	s   *Session
	res *Result
}

// InstEndingAt returns the decoded instruction that ends exactly at
// addr, scanning the walk's owner index back over the backend's maximum
// instruction length. It runs mid-walk, while the walk still holds its
// owner index — its own for a committed pass, the borrowed workspace
// for probes and bounded walks — and reads the walk's instructions
// through passInst, since Insts is still in walk order.
func (c jtCtx) InstEndingAt(addr uint64) (*arch.Inst, bool) {
	for back := uint64(1); back <= uint64(c.s.isa.MaxInstLen()); back++ {
		start, ok := c.res.owner.get(addr - back)
		if !ok {
			continue
		}
		if in, ok := c.s.passInst(c.res, start); ok && in.Next() == addr {
			return in, true
		}
	}
	return nil, false
}

// ReadU64 reads a little-endian uint64 from the image.
func (c jtCtx) ReadU64(addr uint64) (uint64, error) { return c.s.img.ReadU64(addr) }

// ReadU32 reads a little-endian uint32 from the image.
func (c jtCtx) ReadU32(addr uint64) (uint32, error) { return c.s.img.ReadU32(addr) }

// IsExec reports whether addr lies in an executable section.
func (c jtCtx) IsExec(addr uint64) bool { return c.s.img.IsExec(addr) }

// RecordTableRead records a data interval the resolution consulted.
func (c jtCtx) RecordTableRead(lo, hi uint64) {
	c.res.tableReads = append(c.res.tableReads, Interval{lo, hi})
}

// RecordTableBase records a resolved table's base address.
func (c jtCtx) RecordTableBase(table uint64) { c.res.TableBases[table] = true }
