package disasm

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"fetch/internal/arch"
	"fetch/internal/elfx"
)

// twoSectionImage is an image with two executable sections: .text,
// three table chunks long with a five-byte call straddling the first
// chunk boundary, and a one-byte .plt past a gap.
func twoSectionImage() (img *elfx.Image, straddle, plt uint64) {
	const base = 0x10000000
	code := make([]byte, 3*tableChunkLen)
	for i := range code {
		code[i] = 0x90 // nop
	}
	off := tableChunkLen - 2
	copy(code[off:], []byte{0xE8, 0, 0, 0, 0}) // call next
	straddle = base + uint64(off)
	plt = base + 4*tableChunkLen
	img = &elfx.Image{
		Entry: base,
		Sections: []*elfx.Section{
			{Name: ".text", Addr: base, Data: code, Flags: elfx.FlagAlloc | elfx.FlagExec},
			{Name: ".plt", Addr: plt, Data: []byte{0xC3}, Flags: elfx.FlagAlloc | elfx.FlagExec},
			{Name: ".data", Addr: base + 8*tableChunkLen, Data: make([]byte, 16), Flags: elfx.FlagAlloc},
		},
	}
	return img, straddle, plt
}

// TestDecodeIndex pins the decode cache: addresses in either section
// decode once and are reused after, an instruction straddling a chunk
// boundary allocates only the chunk of its start, and an address
// outside the executable layout is decoded on every request without
// being memoized.
func TestDecodeIndex(t *testing.T) {
	img, straddle, plt := twoSectionImage()
	sess := NewSession(img, Options{})
	c := sess.cache

	for round := 0; round < 2; round++ {
		for _, a := range []uint64{straddle, plt} {
			e := sess.decode(a)
			if e.kind != decodeOK || e.inst.Addr != a {
				t.Fatalf("round %d: decode(%#x) = kind %d", round, a, e.kind)
			}
		}
	}
	if e := sess.decode(straddle); e.inst.Len != 5 || e.inst.Op != arch.OpCall {
		t.Fatalf("straddling entry = %+v, want a five-byte call", e.inst)
	}
	st := sess.Stats()
	if st.InstsDecoded != 2 || st.InstsReused != 3 {
		t.Fatalf("decoded %d, reused %d; want 2 and 3", st.InstsDecoded, st.InstsReused)
	}
	if c.n != 2 {
		t.Fatalf("arena holds %d entries, want 2", c.n)
	}
	// One chunk per section: the straddling entry's start chunk only.
	if want := int64(2 * tableChunkLen * 4); c.index.alloc != want {
		t.Fatalf("index alloc = %d, want %d", c.index.alloc, want)
	}
	if c.index.at(straddle+2) != nil {
		t.Fatal("the chunk after the straddling entry's start was allocated")
	}

	// Outside the layout: a data address (whose zero bytes decode) and
	// an unmapped one.
	data := img.Sections[2].Addr
	for i := 0; i < 2; i++ {
		if e := sess.decode(data); e.kind != decodeOK || e.inst.Addr != data {
			t.Fatalf("data address %#x: kind %d, want a decode", data, e.kind)
		}
		if e := sess.decode(0x1000); e.kind != decodeNoWindow {
			t.Fatalf("unmapped address kind %d, want decodeNoWindow", e.kind)
		}
	}
	st = sess.Stats()
	if st.InstsDecoded != 6 || c.n != 2 {
		t.Fatalf("out-of-layout decodes: decoded %d, arena %d; want 6 and 2", st.InstsDecoded, c.n)
	}
}

// TestWalkMarks pins the mark set: marks in two sections and out of
// the layout, next emptying the set in O(1) without reallocating, and
// an epoch wrap that clears every stamp.
func TestWalkMarks(t *testing.T) {
	img, straddle, plt := twoSectionImage()
	sess := NewSession(img, Options{})
	m := sess.pushed
	const stray = 0x1000 // outside the layout

	for _, a := range []uint64{straddle, plt, stray} {
		if m.has(a) {
			t.Fatalf("%#x marked in a fresh set", a)
		}
		if !m.add(a) || m.add(a) || !m.has(a) {
			t.Fatalf("add(%#x) twice did not report absent, then present", a)
		}
	}
	if m.has(straddle+1) || m.has(plt+1) || m.has(stray+1) {
		t.Fatal("a neighbour of a marked address reads as marked")
	}
	if len(m.extra) != 1 {
		t.Fatalf("out-of-layout map holds %d addresses, want 1", len(m.extra))
	}
	alloc := m.tab.alloc
	if want := int64(2 * tableChunkLen * 4); alloc != want {
		t.Fatalf("mark alloc = %d, want %d", alloc, want)
	}

	m.next()
	for _, a := range []uint64{straddle, plt, stray} {
		if m.has(a) {
			t.Fatalf("%#x still marked after next", a)
		}
	}
	if !m.add(straddle) || m.tab.alloc != alloc {
		t.Fatalf("re-marking after next: alloc %d, want %d", m.tab.alloc, alloc)
	}

	// Wrap: a stamp written in the last epoch before the wrap, and one
	// left over from epoch 1 long ago, must both read as unmarked in
	// the new epoch 1.
	w := newWalkMarks([]Range{{Start: 0x401000, End: 0x401000 + 2*tableChunkLen}})
	w.add(0x401000)
	w.epoch = math.MaxUint32
	w.add(0x401000 + tableChunkLen)
	w.next()
	if w.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", w.epoch)
	}
	if w.has(0x401000) || w.has(0x401000+tableChunkLen) {
		t.Fatal("a stamp from before the wrap reads as marked")
	}
}

// TestDenseStateSharedByProbes pins that probes and committed walks
// share the session's decode cache and walk marks: a probe's decodes
// are reused by the next committed Extend, and each walk starts from
// empty marks whatever the walk before it left there.
func TestDenseStateSharedByProbes(t *testing.T) {
	img, straddle, _ := twoSectionImage()
	sess := NewSession(img, Options{})
	p := sess.Probe([]uint64{straddle}, Options{})
	if len(p.Insts) == 0 {
		t.Fatal("probe decoded nothing")
	}
	before := sess.Stats()
	c := sess.Extend([]uint64{straddle})
	after := sess.Stats()
	if after.InstsDecoded != before.InstsDecoded {
		t.Fatalf("Extend decoded %d instructions afresh; want every decode reused from the probe",
			after.InstsDecoded-before.InstsDecoded)
	}
	if after.InstsReused-before.InstsReused < int64(len(c.Insts)) {
		t.Fatalf("Extend reused %d decodes for %d instructions", after.InstsReused-before.InstsReused, len(c.Insts))
	}
	// Both walks start from the same seed: had either inherited the
	// other's marks, it would have stopped at the seed.
	requireEqualWalks(t, "extend after probe", c, p)
	q := sess.Probe([]uint64{straddle}, Options{})
	requireEqualWalks(t, "probe after extend", q, p)
}

// tableChunks counts the chunks a session's per-byte tables hold,
// written or free.
func tableChunks(s *Session) int {
	return chunksHeld(&s.cache.index) + chunksHeld(&s.pushed.tab) + chunksHeld(&s.decoded.tab) +
		chunksHeld(&s.ws.byteTable)
}

// chunksHeld counts the chunks one table holds, written or free.
func chunksHeld[T uint8 | int32 | uint32](t *byteTable[T]) int {
	n := len(t.free)
	for _, sp := range t.spans {
		for _, c := range sp.chunks {
			if c != nil {
				n++
			}
		}
	}
	return n
}

// TestReleaseRecyclesChunks pins Session.Release: the released session
// keeps no chunk, its committed results stay intact, and sessions
// built after it — drawing chunks from stores that also hold garbage
// — walk exactly like the released one did, with the same PeakAuxBytes.
func TestReleaseRecyclesChunks(t *testing.T) {
	im, _, sec := buildBinary(t, 113, nil)
	seeds := sec.FunctionStarts()
	a := NewSession(im, defaultOpts())
	resA := a.Extend(seeds)
	probeA := a.Probe(seeds[:1], Options{})
	statsA := a.Stats()
	if tableChunks(a) == 0 {
		t.Fatal("the walk filled no table chunk")
	}
	before := resA.Insts
	a.Release()
	if n := tableChunks(a); n != 0 {
		t.Fatalf("released session still holds %d chunks", n)
	}
	if !reflect.DeepEqual(resA.Insts, before) || a.Result() != resA {
		t.Fatal("Release changed the committed result")
	}
	// Garbage chunks in every store: a table must clear what it takes.
	// Emptied first, so that no store is too full to take them.
	drainStore(&int32Chunks)
	drainStore(&uint32Chunks)
	drainStore(&uint8Chunks)
	for i := 0; i < 8; i++ {
		var i32 [tableChunkLen]int32
		var u32 [tableChunkLen]uint32
		var own [tableChunkLen]uint8
		for k := range i32 {
			i32[k], u32[k] = -1, math.MaxUint32
		}
		for k := range own {
			own[k] = 0xFF
		}
		int32Chunks.put(&i32, math.MaxUint32)
		uint32Chunks.put(&u32, math.MaxUint32)
		uint8Chunks.put(&own, math.MaxUint32)
	}
	for i := 0; i < 3; i++ {
		b := NewSession(im, defaultOpts())
		resB := b.Extend(seeds)
		requireEqualResults(t, "extend after release", resB, resA)
		requireEqualWalks(t, "probe after release", b.Probe(seeds[:1], Options{}), probeA)
		if got := b.Stats().PeakAuxBytes; got != statsA.PeakAuxBytes {
			t.Fatalf("PeakAuxBytes = %d after release, want %d", got, statsA.PeakAuxBytes)
		}
		b.Release()
	}
}

// TestChunkReserveSurvivesGC pins the chunk stores' reserve: released
// chunks up to reservedChunks per slot type come back after garbage
// collections, which would empty a sync.Pool, and the store holds no
// more than that.
func TestChunkReserveSurvivesGC(t *testing.T) {
	st := &chunkStore[int32]{}
	put := map[*[tableChunkLen]int32]bool{}
	for i := 0; i < reservedChunks+5; i++ {
		c := new([tableChunkLen]int32)
		put[c] = true
		st.put(c, math.MaxUint32)
	}
	if len(st.reserve) != reservedChunks {
		t.Fatalf("reserve holds %d chunks, want %d", len(st.reserve), reservedChunks)
	}
	runtime.GC()
	runtime.GC()
	for i := 0; i < reservedChunks; i++ {
		c, _ := st.get(0)
		if c == nil || !put[c] {
			t.Fatalf("get %d after two collections returned %p, want a released chunk", i, c)
		}
		delete(put, c)
	}
	if c, _ := st.get(0); c != nil {
		t.Fatalf("the store kept a chunk beyond its %d-chunk reserve", reservedChunks)
	}
}

// drainStore empties a chunk store.
func drainStore[T uint8 | int32 | uint32](st *chunkStore[T]) {
	for c, _ := st.get(0); c != nil; c, _ = st.get(0) {
	}
}

// TestWalkMarkChunksCleanByStamp pins when a walk-mark set takes a
// released chunk without clearing it: only when every stamp in it is
// below the set's epoch. A set built after the release starts above the
// released epoch and takes the chunk as it is; a set at the released
// epoch, or built before the release with a lower one, takes it
// cleared, and no stale stamp aliases its epochs as they grow past the
// released ones.
func TestWalkMarkChunksCleanByStamp(t *testing.T) {
	layout := []Range{{Start: 0x10000, End: 0x10000 + tableChunkLen}}
	drain := func() { drainStore(&uint32Chunks) }
	drain()
	early := newWalkMarks(layout) // built before the release below
	a := newWalkMarks(layout)
	for i := 0; i < 5; i++ {
		a.next()
		a.add(0x10000 + uint64(i))
	}
	released := a.epoch
	chunk := *a.tab.at(0x10000) // the stamp of a's last mark of that byte
	a.release()
	if chunk == 0 || chunk > released {
		t.Fatalf("a's mark at 0x10000 is %d, released at epoch %d", chunk, released)
	}

	late := newWalkMarks(layout)
	if late.epoch <= released {
		t.Fatalf("a set built after the release starts at epoch %d, not above %d", late.epoch, released)
	}
	late.add(0x10100)
	if got := *late.tab.at(0x10000); got != chunk {
		t.Fatalf("late set's chunk holds %d at 0x10000, want a's stale %d: it was cleared", got, chunk)
	}
	for i := 0; i < 5; i++ {
		if late.has(0x10000 + uint64(i)) {
			t.Fatalf("late set sees a's mark at %#x", 0x10000+i)
		}
	}
	lateStamp := late.epoch
	late.release()

	// A set whose epoch equals the stamp would read late's mark as its
	// own: it must clear the chunk.
	eq := newWalkMarks(layout)
	eq.epoch = lateStamp
	eq.add(0x10200)
	if eq.has(0x10100) {
		t.Fatalf("a set at the released epoch %d sees the released mark at 0x10100", lateStamp)
	}
	eq.release()

	if early.epoch >= released {
		t.Fatalf("early set at epoch %d, want below %d", early.epoch, released)
	}
	early.add(0x10100)
	if got := *early.tab.at(0x10000); got != 0 {
		t.Fatalf("early set took a chunk holding %d at 0x10000 uncleared", got)
	}
	for early.epoch <= released {
		early.next()
		for i := 0; i < 5; i++ {
			if early.has(0x10000 + uint64(i)) {
				t.Fatalf("early set at epoch %d sees a stale mark at %#x", early.epoch, 0x10000+i)
			}
		}
	}
	drain()
}

// TestReleaseConcurrent runs sessions on several goroutines at once,
// each releasing its chunks for the others to take: every result still
// equals a lone session's.
func TestReleaseConcurrent(t *testing.T) {
	im, _, sec := buildBinary(t, 113, nil)
	seeds := sec.FunctionStarts()
	want := NewSession(im, defaultOpts()).Extend(seeds)
	const workers, rounds = 4, 3
	results := make([][]*Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s := NewSession(im, defaultOpts())
				results[w] = append(results[w], s.Extend(seeds))
				s.Release()
			}
		}(w)
	}
	wg.Wait()
	for w := range results {
		for r, res := range results[w] {
			requireEqualResults(t, fmt.Sprintf("worker %d round %d", w, r), res, want)
		}
	}
}
