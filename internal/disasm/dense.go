package disasm

import (
	"math"
	"sync"
	"unsafe"
)

// This file holds the engine's per-byte walk state: a chunk-lazy table
// with one slot per byte of the executable layout, and the two
// structures built on it — the decode index behind the session's
// decode cache, and the epoch-stamped walk marks that stand in for the
// per-walk visited and enqueued sets. A session owns one decode cache
// and two mark sets, as it owns the owner workspace.

// byteTable holds one T per byte of a layout. It reserves one span per
// range but allocates a chunk of tableChunkLen slots only when a slot
// in it is first written: huge binaries are mostly padding and data
// the walks never touch, and an eager table would cost four bytes per
// text byte regardless.
type byteTable[T int32 | uint32] struct {
	// spans are the reserved ranges, sorted by base.
	spans []tableSpan[T]
	// alloc counts bytes of chunk storage allocated so far — an input
	// of Stats.PeakAuxBytes.
	alloc int64
}

// tableSpan covers one reserved range of size bytes starting at base.
// Slot (addr-base)&mask of chunk (addr-base)>>shift belongs to addr; a
// nil chunk has never been written.
type tableSpan[T int32 | uint32] struct {
	base, size uint64
	chunks     []*[tableChunkLen]T
}

const (
	// tableChunkShift sets the chunk granule: 16 Ki slots, 64 KiB for
	// the four-byte slot types.
	tableChunkShift = 14
	tableChunkLen   = 1 << tableChunkShift
	tableChunkMask  = tableChunkLen - 1
)

// newByteTable reserves one span per range without allocating any
// chunks.
func newByteTable[T int32 | uint32](layout []Range) byteTable[T] {
	t := byteTable[T]{spans: make([]tableSpan[T], len(layout))}
	for i, r := range layout {
		t.spans[i] = tableSpan[T]{
			base:   r.Start,
			size:   r.Len(),
			chunks: make([]*[tableChunkLen]T, (r.Len()+tableChunkLen-1)>>tableChunkShift),
		}
	}
	return t
}

// cell returns the chunk pointer covering addr and addr's offset in
// that chunk, or nil when addr lies outside the layout.
func (t *byteTable[T]) cell(addr uint64) (**[tableChunkLen]T, uint64) {
	for i := range t.spans {
		sp := &t.spans[i]
		if addr < sp.base {
			break // spans are sorted; no later span can match
		}
		if d := addr - sp.base; d < sp.size {
			return &sp.chunks[d>>tableChunkShift], d & tableChunkMask
		}
	}
	return nil, 0
}

// at returns addr's slot, or nil when addr lies outside the layout or
// its chunk has never been written (every slot of which reads as zero).
func (t *byteTable[T]) at(addr uint64) *T {
	if c, off := t.cell(addr); c != nil && *c != nil {
		return &(*c)[off]
	}
	return nil
}

// slot returns addr's slot, allocating its chunk on first use (charged
// to alloc), or nil when addr lies outside the layout.
func (t *byteTable[T]) slot(addr uint64) *T {
	c, off := t.cell(addr)
	if c == nil {
		return nil
	}
	if *c == nil {
		*c = newChunk[T]()
		t.alloc += int64(unsafe.Sizeof(**c))
	}
	return &(*c)[off]
}

// Chunks outlive the session that filled them: Session.Release hands a
// finished session's chunks to a pool, and a table that needs a chunk
// takes one from it, cleared, before allocating. Delta replay builds
// two sessions per request, each touching a few chunks of every table
// around the changed ranges; recycling keeps those chunks from being
// allocated anew for every request. A recycled chunk is charged to
// alloc like a fresh one.
var int32Chunks, uint32Chunks sync.Pool

// chunkPool returns the pool of T chunks.
func chunkPool[T int32 | uint32]() *sync.Pool {
	var zero T
	if _, ok := any(zero).(int32); ok {
		return &int32Chunks
	}
	return &uint32Chunks
}

// newChunk returns a zeroed chunk, a recycled one when the pool has
// one.
func newChunk[T int32 | uint32]() *[tableChunkLen]T {
	if c, _ := chunkPool[T]().Get().(*[tableChunkLen]T); c != nil {
		*c = [tableChunkLen]T{}
		return c
	}
	return new([tableChunkLen]T)
}

// release hands every chunk to the pool; the table then reads as
// never written.
func (t *byteTable[T]) release() {
	pool := chunkPool[T]()
	for i := range t.spans {
		chunks := t.spans[i].chunks
		for j, c := range chunks {
			if c != nil {
				pool.Put(c)
				chunks[j] = nil
			}
		}
	}
}

// decodeCache memoizes decodes by address: an int32 per text byte in
// the index holds 1 + the position of the address's entry in one
// append-only arena (0 = never decoded). Entries are pure in the image
// bytes and never invalidate, so the arena only grows. An address
// outside the executable layout has no index slot: it is decoded on
// every request and never memoized.
type decodeCache struct {
	index   byteTable[int32]
	entries []decodeEntry
}

// full reports whether the arena has reached the int32 bound of the
// index, past which no decode is memoized.
func (c *decodeCache) full() bool { return len(c.entries) >= math.MaxInt32 }

// walkMarks is an epoch-stamped set of addresses: a slot holds the
// epoch in which its byte was last marked, and only the current epoch
// counts, so next empties the set in O(1). The rare address outside the
// executable layout (a stray seed) lives in a small map that next
// clears.
//
// A session owns two mark sets — pushed (the worklist's enqueued
// addresses) and decoded (the instruction starts of the current walk).
// The non-return verdict walks reuse both after a pass — exec's
// inference after each committed or probe pass, a LocalWalk's verdicts
// after its bounded pass: pushed as their visited set, and decoded as
// the pass's instruction set (see Session.passInst). That sharing is
// sound only because walks never nest — the owner workspace's borrow
// check enforces it for probes and bounded walks — and because the
// verdicts run before any other walk resets the marks: exec runs the
// inference straight after the pass, and a LocalWalk checks the
// decoded epoch its walk left.
type walkMarks struct {
	tab byteTable[uint32]
	// epoch is the live stamp. It is never 0, so slots in fresh chunks
	// read as unmarked.
	epoch uint32
	extra map[uint64]bool
}

func newWalkMarks(layout []Range) *walkMarks {
	return &walkMarks{tab: newByteTable[uint32](layout), epoch: 1}
}

// next empties the set. When the epoch wraps, every stamp is cleared so
// no mark from 2^32 sets ago can alias the new epoch.
func (m *walkMarks) next() {
	if len(m.extra) > 0 {
		clear(m.extra)
	}
	m.epoch++
	if m.epoch != 0 {
		return
	}
	for i := range m.tab.spans {
		for _, c := range m.tab.spans[i].chunks {
			if c != nil {
				*c = [tableChunkLen]uint32{}
			}
		}
	}
	m.epoch = 1
}

// release empties the set and hands its chunks to the pool. The epoch
// moves on, so a LocalWalk over the released marks panics on its next
// verdict read rather than reading an empty set.
func (m *walkMarks) release() {
	m.tab.release()
	m.next()
}

// has reports whether addr is in the set.
func (m *walkMarks) has(addr uint64) bool {
	if p := m.tab.at(addr); p != nil {
		return *p == m.epoch
	}
	return len(m.extra) > 0 && m.extra[addr]
}

// add puts addr in the set and reports whether it was absent.
func (m *walkMarks) add(addr uint64) bool {
	if p := m.tab.slot(addr); p != nil {
		if *p == m.epoch {
			return false
		}
		*p = m.epoch
		return true
	}
	if m.extra[addr] {
		return false
	}
	if m.extra == nil {
		m.extra = make(map[uint64]bool)
	}
	m.extra[addr] = true
	return true
}
