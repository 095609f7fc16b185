package disasm

import "sync"

// ownerIndex maps every byte of decoded instructions to the start of
// the instruction that last covered it: the coverage queries behind the
// mid-instruction rule, jump-table back-scans, xref rule (ii), and gap
// scans. It is the engine's one representation of byte ownership. It
// stores one byte per text byte: 0 when the byte is uncovered,
// otherwise 1 + the byte's distance from the start of its owning
// instruction. Decoded instructions are at most 15 bytes long, well
// within maxOwnedInstLen, so the distance always fits, whatever the
// section size.
//
// Storage is chunk-lazy: an index reserves one span per executable
// section but allocates 64 KiB chunks only when bytes in them are first
// written. Huge binaries are mostly padding and data the walk never
// touches; an eager array would cost a byte per text byte per pass
// regardless.
//
// Every chunk is stamped with the epoch it was last written in, and
// only chunks stamped with the index's current epoch are live. reset
// therefore empties the whole index in O(1), and a stale chunk is
// cleared when it is next written. That is what lets the short walks
// (Probe, and WalkLocal's bounded pass) borrow one session-wide
// workspace index instead of building coverage per walk; committed
// passes allocate their own.
type ownerIndex struct {
	// spans are the reserved sections, sorted by base.
	spans []ownerSpan
	// epoch is the live stamp. It is never 0, so never-written
	// (zero-stamped) chunks always read as stale.
	epoch uint32
	// alloc counts bytes of chunk storage allocated so far — the
	// memory-accounting input for Stats.PeakAuxBytes.
	alloc int64
	// borrowed marks a workspace index lent to a running walk.
	borrowed bool
}

const (
	// ownerChunkShift sets the chunk granule: 64 Ki entries (64 KiB)
	// balances lazy savings on sparse text against per-write overhead.
	ownerChunkShift = 16
	ownerChunkLen   = 1 << ownerChunkShift
	ownerChunkMask  = ownerChunkLen - 1

	// maxOwnedInstLen is the longest instruction the one-byte encoding
	// can own; persisted instruction facts beyond it are rejected.
	maxOwnedInstLen = 255
)

// ownerSpan covers one reserved address range of size bytes starting
// at base. Entry (addr-base)&mask of chunk (addr-base)>>shift holds the
// byte's encoding.
type ownerSpan struct {
	base   uint64
	size   uint64
	chunks []ownerChunk
}

// ownerChunk is one lazily allocated granule and the epoch it was last
// written in.
type ownerChunk struct {
	b     *[ownerChunkLen]uint8
	epoch uint32
}

// newOwnerIndex reserves one span per range without allocating any
// chunks.
func newOwnerIndex(layout []Range) *ownerIndex {
	o := &ownerIndex{spans: make([]ownerSpan, len(layout)), epoch: 1}
	for i, r := range layout {
		o.spans[i] = newOwnerSpan(r)
	}
	return o
}

// newOwnerSpan reserves a span over r without allocating any chunks.
func newOwnerSpan(r Range) ownerSpan {
	return ownerSpan{
		base:   r.Start,
		size:   r.Len(),
		chunks: make([]ownerChunk, (r.Len()+ownerChunkLen-1)>>ownerChunkShift),
	}
}

// reset empties the index in O(1) by advancing its epoch. When the
// epoch wraps, every stamp is cleared so no chunk written 2^32 resets
// ago can alias the new epoch.
func (o *ownerIndex) reset() {
	o.epoch++
	if o.epoch != 0 {
		return
	}
	for i := range o.spans {
		for j := range o.spans[i].chunks {
			o.spans[i].chunks[j].epoch = 0
		}
	}
	o.epoch = 1
}

// span returns the span containing addr, or nil.
func (o *ownerIndex) span(addr uint64) *ownerSpan {
	for i := range o.spans {
		sp := &o.spans[i]
		if addr < sp.base {
			break // spans are sorted; no later span can match
		}
		if addr-sp.base < sp.size {
			return sp
		}
	}
	return nil
}

// chunk returns the live chunk for span offset d, allocating it on its
// first write (charged to alloc) or clearing it on its first write in a
// new epoch.
func (o *ownerIndex) chunk(sp *ownerSpan, d uint64) *[ownerChunkLen]uint8 {
	c := &sp.chunks[d>>ownerChunkShift]
	if c.epoch != o.epoch {
		if c.b == nil {
			c.b = newOwnerChunk()
			o.alloc += ownerChunkLen
		} else {
			*c.b = [ownerChunkLen]uint8{}
		}
		c.epoch = o.epoch
	}
	return c.b
}

// ownerChunks recycles chunks between sessions like the byte tables'
// pools (see int32Chunks).
var ownerChunks sync.Pool

// newOwnerChunk returns a zeroed chunk, a recycled one when the pool
// has one.
func newOwnerChunk() *[ownerChunkLen]uint8 {
	if c, _ := ownerChunks.Get().(*[ownerChunkLen]uint8); c != nil {
		*c = [ownerChunkLen]uint8{}
		return c
	}
	return new([ownerChunkLen]uint8)
}

// release hands every chunk to the pool; the index then reads as
// empty.
func (o *ownerIndex) release() {
	for i := range o.spans {
		for j := range o.spans[i].chunks {
			c := &o.spans[i].chunks[j]
			if c.b != nil {
				ownerChunks.Put(c.b)
			}
			*c = ownerChunk{}
		}
	}
}

// get returns the start of the instruction covering addr. A nil index
// (a result whose walk returned its borrowed workspace) covers nothing.
func (o *ownerIndex) get(addr uint64) (uint64, bool) {
	if o == nil {
		return 0, false
	}
	sp := o.span(addr)
	if sp == nil {
		return 0, false
	}
	d := addr - sp.base
	c := &sp.chunks[d>>ownerChunkShift]
	if c.epoch != o.epoch {
		return 0, false
	}
	if v := c.b[d&ownerChunkMask]; v != 0 {
		return addr - uint64(v-1), true
	}
	return 0, false
}

// setRange marks the n bytes starting at addr as owned by the
// instruction at addr; n must not exceed maxOwnedInstLen. Instruction
// bytes never cross a section end (decode windows are section-bounded),
// so the run stays in one span, though it may straddle two chunks.
func (o *ownerIndex) setRange(addr uint64, n int) {
	if sp := o.span(addr); sp != nil {
		o.fill(sp, addr-sp.base, n)
	}
}

// fill marks the n bytes at offset d of sp as owned by the instruction
// starting at d, looking up each chunk the run touches once.
func (o *ownerIndex) fill(sp *ownerSpan, d uint64, n int) {
	for k := 0; k < n; {
		c := o.chunk(sp, d+uint64(k))
		for off := (d + uint64(k)) & ownerChunkMask; k < n && off < ownerChunkLen; off++ {
			k++
			c[off] = uint8(k)
		}
	}
}
