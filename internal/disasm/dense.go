package disasm

import (
	"math"
	"math/bits"
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
// a chunk from there, cleared, before it asks the chunk store or the
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
	// alloc counts bytes of the chunks taken from the store or the
	// allocator so far — an input of Stats.PeakAuxBytes. A chunk taken
	// from the free list is not counted again.
	alloc int64
	// stamp, set on a walk-mark table, is its set's live epoch: a
	// released chunk whose values all lie below it needs no clearing,
	// and the table's own chunks hold no value above it.
	stamp *uint32
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
// the free list, else one from the store or the allocator, charged to
// alloc. A walk-mark table may take a released chunk uncleared (see
// chunkStore.get).
func (t *byteTable[T]) fill(c **[tableChunkLen]T) {
	if n := len(t.free); n > 0 {
		*c = t.free[n-1]
		t.free = t.free[:n-1]
		**c = [tableChunkLen]T{}
	} else {
		var live uint32
		if t.stamp != nil {
			live = *t.stamp
		}
		*c = newChunk[T](live)
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
// finished session's chunks to the store of their slot type, and a
// table that needs a chunk and has none free takes one from the store,
// cleared, before allocating. Delta replay builds two sessions per
// request, each touching a few chunks of every table around the
// changed ranges; recycling keeps those chunks from being allocated
// anew for every request. A recycled chunk is charged to alloc like a
// fresh one.
var (
	uint8Chunks  chunkStore[uint8]
	int32Chunks  chunkStore[int32]
	uint32Chunks chunkStore[uint32]
)

// reservedChunks is how many released chunks of each slot type a store
// keeps: more than the two replay sessions of a delta request touch
// (24 four-byte chunks in all on the delta benchmark's shape).
const reservedChunks = 48

// chunkStore holds up to reservedChunks released chunks of one slot
// type in a reserve the garbage collector never empties, and leaves
// the rest to the collector. A cached service's delta request follows
// the cold run that recorded its base, and that run's collections
// would empty a sync.Pool by the time the replay asks.
//
// A reserved chunk keeps its stamp: no value in it is above the stamp.
// A walk-mark chunk's stamp is its set's epoch at release; every other
// chunk's is the largest uint32, which no epoch exceeds.
type chunkStore[T uint8 | int32 | uint32] struct {
	mu      sync.Mutex
	reserve []stampedChunk[T]
	// top is the highest stamp put so far (see startEpoch).
	top uint32
}

// stampedChunk is a reserved chunk and its stamp.
type stampedChunk[T uint8 | int32 | uint32] struct {
	c     *[tableChunkLen]T
	stamp uint32
}

// get returns a released chunk, or nil when the store has none, and
// whether it is clean for a walk-mark set whose live epoch is live:
// every value in it below live, so that it reads as empty to the set
// now and for every later epoch until the set's epoch wraps. A chunk
// that is not clean must be cleared.
func (st *chunkStore[T]) get(live uint32) (c *[tableChunkLen]T, clean bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := len(st.reserve)
	if n == 0 {
		return nil, false
	}
	sc := st.reserve[n-1]
	st.reserve = st.reserve[:n-1]
	return sc.c, sc.stamp < live
}

// put takes a released chunk with its stamp into the reserve while it
// has room; a chunk beyond that is left to the garbage collector.
func (st *chunkStore[T]) put(c *[tableChunkLen]T, stamp uint32) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.top = max(st.top, stamp)
	if len(st.reserve) < reservedChunks {
		st.reserve = append(st.reserve, stampedChunk[T]{c, stamp})
	}
}

// startEpoch returns the epoch a new walk-mark set starts at: one above
// every stamp put so far, so that the set takes every reserved chunk
// without clearing it. When that would overflow, the count restarts at
// 1, and chunks stamped higher are cleared when taken.
func (st *chunkStore[T]) startEpoch() uint32 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.top == math.MaxUint32 {
		st.top = 0
	}
	return st.top + 1
}

// chunkStoreOf returns the store of T chunks.
func chunkStoreOf[T uint8 | int32 | uint32]() *chunkStore[T] {
	var st any
	switch any(*new(T)).(type) {
	case uint8:
		st = &uint8Chunks
	case int32:
		st = &int32Chunks
	default:
		st = &uint32Chunks
	}
	return st.(*chunkStore[T])
}

// newChunk returns a chunk that reads as empty to a table whose live
// walk-mark epoch is live (0 for tables without epochs): a recycled one
// when the store has one, cleared unless it is clean for live.
func newChunk[T uint8 | int32 | uint32](live uint32) *[tableChunkLen]T {
	if c, clean := chunkStoreOf[T]().get(live); c != nil {
		if !clean {
			*c = [tableChunkLen]T{}
		}
		return c
	}
	return new([tableChunkLen]T)
}

// release empties the table and hands every chunk it holds, written or
// free, to the store, stamped with the table's live epoch if it has
// one.
func (t *byteTable[T]) release() {
	t.reset()
	stamp := uint32(math.MaxUint32)
	if t.stamp != nil {
		stamp = *t.stamp
	}
	st := chunkStoreOf[T]()
	for _, c := range t.free {
		st.put(c, stamp)
	}
	t.free = nil
}

// decodeCache memoizes decodes by address: an int32 per text byte in
// the index holds 1 + the position of the address's entry in one
// append-only arena (0 = never decoded). Entries are pure in the image
// bytes and never invalidate, so the arena only grows. An address
// outside the executable layout has no index slot: it is decoded on
// every request and never memoized.
//
// The arena is a list of segments that never move: segment k holds
// arenaFirstSeg<<k entries, so n entries take about log2(n) segments
// and no entry is ever copied to grow it. Each entry holds its
// instruction in place, and results point into the arena; the first
// segment is small, so a short-lived session (delta replay builds two
// per request) allocates little.
type decodeCache struct {
	index byteTable[int32]
	segs  [][]decodeEntry
	// n is the number of entries in use.
	n int
}

// arenaFirstSeg is the entry count of the arena's first segment.
const arenaFirstSeg = 64

// full reports whether the arena has reached the int32 bound of the
// index, past which no decode is memoized.
func (c *decodeCache) full() bool { return c.n >= math.MaxInt32 }

// entry returns the entry at position p (0-based).
func (c *decodeCache) entry(p int32) *decodeEntry {
	k := bits.Len(uint(p)/arenaFirstSeg+1) - 1
	return &c.segs[k][int(p)-(1<<k-1)*arenaFirstSeg]
}

// add appends an entry and returns it, with the index value (1 + its
// position) that locates it.
func (c *decodeCache) add() (*decodeEntry, int32) {
	if k := len(c.segs); c.n == (1<<k-1)*arenaFirstSeg {
		c.segs = append(c.segs, make([]decodeEntry, arenaFirstSeg<<k))
	}
	c.n++
	return c.entry(int32(c.n - 1)), int32(c.n)
}

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
//
// A set's chunks go back to the chunk store stamped with its epoch, and
// a set whose epoch is above a reserved chunk's stamp takes the chunk
// without clearing it: no stale mark in it can equal the set's epoch
// now or later. A new set therefore starts above every epoch a released
// set reached (chunkStore.startEpoch), so that a delta replay's
// sessions, built after the recorded run released its own, clear none
// of the walk-mark chunks they take.
type walkMarks struct {
	tab byteTable[uint32]
	// epoch is the live stamp. It is never 0, so slots in fresh chunks
	// read as unmarked, and it only grows until it wraps.
	epoch uint32
	extra map[uint64]bool
}

func newWalkMarks(layout []Range) *walkMarks {
	m := &walkMarks{tab: newByteTable[uint32](layout), epoch: uint32Chunks.startEpoch()}
	m.tab.stamp = &m.epoch
	return m
}

// next empties the set. When the epoch wraps, the table is reset, so
// no mark from 2^32 sets ago can alias the new epoch, and the set stops
// stamping: the reset chunks hold epochs above the new one, so every
// chunk it takes or releases from then on is cleared before reuse.
func (m *walkMarks) next() {
	if len(m.extra) > 0 {
		clear(m.extra)
	}
	m.epoch++
	if m.epoch == 0 {
		m.tab.reset()
		m.tab.stamp = nil
		m.epoch = 1
	}
}

// release empties the set and hands its chunks to the store. The epoch
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
