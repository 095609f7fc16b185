package disasm

// ownerMap indexes every byte of decoded instructions to the covering
// instruction's start. Unbounded passes re-walk whole binaries every
// round, so they use a dense offset representation per executable
// section (per-byte map writes dominated the pass profile); short
// capped probe walks (candidate validation) keep a sparse map, which
// is cheaper than clearing text-sized arrays per probe. Both
// representations index identical content — the choice never affects
// results.
//
// The dense form is chunk-lazy: a span reserves address space for its
// whole section but allocates 64 Ki-entry chunks only when bytes in
// them are first written. Huge binaries are mostly padding and data
// the walk never touches — eager per-byte arrays would cost 4 bytes
// per text byte per pass regardless, which is exactly the memory the
// bytes-per-text-byte budget forbids.
type ownerMap struct {
	// spans is the dense form, one per executable section, sorted by
	// base; nil when the sparse form is in use.
	spans []ownerSpan
	// m is the sparse form; nil when the dense form is in use.
	m map[uint64]uint64
	// alloc counts bytes of chunk storage allocated so far — the
	// memory-accounting input for Stats.PeakAuxBytes.
	alloc int64
}

const (
	// ownerChunkLen is the dense chunk granule: 64 Ki entries (256 KiB)
	// balances lazy savings on sparse text against per-write overhead.
	ownerChunkShift = 16
	ownerChunkLen   = 1 << ownerChunkShift
	ownerChunkMask  = ownerChunkLen - 1
)

// ownerSpan covers one executable section of size bytes starting at
// base: chunk entry (addr-base)&mask of chunk (addr-base)>>shift holds
// the owning instruction's section offset + 1, or 0 when uncovered.
// Unallocated chunks read as all-uncovered.
type ownerSpan struct {
	base   uint64
	size   int
	chunks [][]int32
}

// newOwnerSpan reserves a dense span without allocating any chunks.
func newOwnerSpan(base uint64, size int) ownerSpan {
	return ownerSpan{
		base:   base,
		size:   size,
		chunks: make([][]int32, (size+ownerChunkLen-1)>>ownerChunkShift),
	}
}

// chunk returns the chunk for section offset d, allocating it on first
// write and charging the allocation to the map's accounting.
func (o *ownerMap) chunk(sp *ownerSpan, d uint64) []int32 {
	ci := d >> ownerChunkShift
	c := sp.chunks[ci]
	if c == nil {
		c = make([]int32, ownerChunkLen)
		sp.chunks[ci] = c
		o.alloc += ownerChunkLen * 4
	}
	return c
}

// get returns the start of the instruction covering addr.
func (o *ownerMap) get(addr uint64) (uint64, bool) {
	if o.m != nil {
		s, ok := o.m[addr]
		return s, ok
	}
	for i := range o.spans {
		sp := &o.spans[i]
		if addr < sp.base {
			break // spans are sorted; no later span can match
		}
		if d := addr - sp.base; d < uint64(sp.size) {
			c := sp.chunks[d>>ownerChunkShift]
			if c == nil {
				return 0, false
			}
			if v := c[d&ownerChunkMask]; v != 0 {
				return sp.base + uint64(v-1), true
			}
			return 0, false
		}
	}
	return 0, false
}

// setRange marks the n bytes starting at addr as owned by the
// instruction at addr. Instruction bytes never cross a section end
// (decode windows are section-bounded), so the run stays in one span.
func (o *ownerMap) setRange(addr uint64, n int) {
	if o.m != nil {
		for b := addr; b < addr+uint64(n); b++ {
			o.m[b] = addr
		}
		return
	}
	for i := range o.spans {
		sp := &o.spans[i]
		if addr < sp.base {
			break
		}
		if d := addr - sp.base; d < uint64(sp.size) {
			v := int32(d) + 1
			for k := d; k < d+uint64(n); k++ {
				o.chunk(sp, k)[k&ownerChunkMask] = v
			}
			return
		}
	}
}
