package disasm

import (
	"math"
	"sync"
	"unsafe"
)

// This file holds the engine's per-byte walk state: a chunk-lazy table
// with one slot per byte of the executable layout, and the three
// structures built on it — the decode index behind the session's
// decode cache, the epoch-stamped walk marks that stand in for the
// per-walk visited and enqueued sets, and the owner index (owner.go).
// Every per-text-byte table of the engine is a byteTable. A session
// owns one decode cache, two mark sets and the owner workspace.

// byteTable holds one T per byte of a layout. It reserves one span per
// range but allocates a chunk of tableChunkLen slots only when a slot
// in it is first written: huge binaries are mostly padding and data
// the walks never touch, and an eager table would cost a slot per text
// byte regardless. Reading a slot is a bare nil check on its chunk.
//
// reset empties the table by taking back every chunk written since the
// last reset onto the table's own free list; a later first write takes
// a chunk from there, cleared, before it asks the pool or the
// allocator. A table reused walk after walk — the owner workspace —
// thus keeps its chunks, and pays for emptying only the chunks the last
// walk wrote.
type byteTable[T uint8 | int32 | uint32] struct {
	// spans are the reserved ranges, sorted by base.
	spans []tableSpan[T]
	// written are the chunk pointers set since the last reset, and
	// free the chunks reset took back.
	written []**[tableChunkLen]T
	free    []*[tableChunkLen]T
	// alloc counts bytes of the chunks taken from the pool or the
	// allocator so far — an input of Stats.PeakAuxBytes. A chunk taken
	// from the free list is not counted again.
	alloc int64
}

// tableSpan covers one reserved range of size bytes starting at base.
// Slot (addr-base)&mask of chunk (addr-base)>>shift belongs to addr; a
// nil chunk has not been written since the last reset.
type tableSpan[T uint8 | int32 | uint32] struct {
	base, size uint64
	chunks     []*[tableChunkLen]T
}

const (
	// tableChunkShift sets the chunk granule: 16 Ki slots, 16 KiB for
	// the owner index and 64 KiB for the four-byte slot types.
	tableChunkShift = 14
	tableChunkLen   = 1 << tableChunkShift
	tableChunkMask  = tableChunkLen - 1
)

// newByteTable reserves one span per range without allocating any
// chunks.
func newByteTable[T uint8 | int32 | uint32](layout []Range) byteTable[T] {
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
// its chunk is unwritten (every slot of which reads as zero).
func (t *byteTable[T]) at(addr uint64) *T {
	if c, off := t.cell(addr); c != nil && *c != nil {
		return &(*c)[off]
	}
	return nil
}

// slot returns addr's slot, giving its chunk storage on first write,
// or nil when addr lies outside the layout.
func (t *byteTable[T]) slot(addr uint64) *T {
	if run := t.slots(addr, 1); run != nil {
		return &run[0]
	}
	return nil
}

// slots returns the run of slots from addr's up to n long, cut at the
// end of addr's chunk, giving the chunk storage on first write; nil
// when addr lies outside the layout. A caller writing a run across a
// chunk boundary asks again for the rest.
func (t *byteTable[T]) slots(addr uint64, n int) []T {
	c, off := t.cell(addr)
	if c == nil {
		return nil
	}
	if *c == nil {
		t.fill(c)
	}
	return (*c)[off:min(off+uint64(n), tableChunkLen)]
}

// fill gives the unwritten chunk pointer c a cleared chunk: one from
// the free list, else one from the pool or the allocator, charged to
// alloc.
func (t *byteTable[T]) fill(c **[tableChunkLen]T) {
	if n := len(t.free); n > 0 {
		*c = t.free[n-1]
		t.free = t.free[:n-1]
		**c = [tableChunkLen]T{}
	} else {
		*c = newChunk[T]()
		t.alloc += int64(unsafe.Sizeof(**c))
	}
	t.written = append(t.written, c)
}

// reset empties the table: the chunks written since the last reset go
// to the free list, and every slot reads as zero again.
func (t *byteTable[T]) reset() {
	for _, c := range t.written {
		t.free = append(t.free, *c)
		*c = nil
	}
	t.written = t.written[:0]
}

// Chunks outlive the session that filled them: Session.Release hands a
// finished session's chunks to a pool, and a table that needs a chunk
// and has none free takes one from the pool, cleared, before
// allocating. Delta replay builds two sessions per request, each
// touching a few chunks of every table around the changed ranges;
// recycling keeps those chunks from being allocated anew for every
// request. A recycled chunk is charged to alloc like a fresh one.
var uint8Chunks, int32Chunks, uint32Chunks sync.Pool

// chunkPool returns the pool of T chunks.
func chunkPool[T uint8 | int32 | uint32]() *sync.Pool {
	switch any(*new(T)).(type) {
	case uint8:
		return &uint8Chunks
	case int32:
		return &int32Chunks
	}
	return &uint32Chunks
}

// newChunk returns a zeroed chunk, a recycled one when the pool has
// one.
func newChunk[T uint8 | int32 | uint32]() *[tableChunkLen]T {
	if c, _ := chunkPool[T]().Get().(*[tableChunkLen]T); c != nil {
		*c = [tableChunkLen]T{}
		return c
	}
	return new([tableChunkLen]T)
}

// release empties the table and hands every chunk it holds, written or
// free, to the pool.
func (t *byteTable[T]) release() {
	t.reset()
	pool := chunkPool[T]()
	for _, c := range t.free {
		pool.Put(c)
	}
	t.free = nil
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

// next empties the set. When the epoch wraps, the table is reset, so
// no mark from 2^32 sets ago can alias the new epoch.
func (m *walkMarks) next() {
	if len(m.extra) > 0 {
		clear(m.extra)
	}
	m.epoch++
	if m.epoch == 0 {
		m.tab.reset()
		m.epoch = 1
	}
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
