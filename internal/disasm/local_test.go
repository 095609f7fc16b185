package disasm

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"fetch/internal/elfx"
)

// TestInstFactsGobLengths round-trips every length the owner index
// can hold and rejects the ones it cannot: zero, and anything past
// maxOwnedInstLen — including lengths a uint16 would silently
// truncate.
func TestInstFactsGobLengths(t *testing.T) {
	facts := []InstFact{{Addr: 0x401000, Len: 1}, {Addr: 0x401001, Len: 15}, {Addr: 0x401100, Len: maxOwnedInstLen}}
	blob, err := PackInstFacts(facts).GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var back InstFacts
	if err := back.GobDecode(blob); err != nil {
		t.Fatalf("valid facts rejected: %v", err)
	}
	if got := back.Unpack(); back.Len() != len(facts) || !reflect.DeepEqual(got, facts) {
		t.Fatalf("round trip = %v (Len %d), want %v", got, back.Len(), facts)
	}
	var none InstFacts
	if blob, err := none.GobEncode(); err != nil || none.Unpack() != nil {
		t.Fatalf("zero InstFacts: %v, %v", err, none.Unpack())
	} else if err := back.GobDecode(blob); err != nil || back.Len() != 0 {
		t.Fatalf("zero InstFacts round trip: %v, Len %d", err, back.Len())
	}

	// A count the input is too short to hold fails before reserving
	// anything for it.
	var huge InstFacts
	if err := huge.GobDecode(binary.AppendUvarint(nil, 1<<62)); err == nil {
		t.Error("a count of 2^62 facts in a 9-byte input was accepted")
	}

	for _, l := range []uint64{0, 256, 70000} {
		// One fact at 0x401000 of length l, in the packed form.
		blob := binary.AppendUvarint(nil, 1)
		blob = binary.AppendUvarint(blob, 0x401000)
		blob = binary.AppendUvarint(blob, l)
		var got InstFacts
		if err := got.GobDecode(blob); err == nil {
			t.Errorf("length %d accepted as %v", l, got.Unpack())
		}
	}
}

// boundedCounts tallies what a differential run compared, so the tests
// can tell when their inputs stop exercising a path.
type boundedCounts struct {
	walks, unfaithful, tableBases, verdicts, nonReturning, escaped, condEscaped, gateTests int
}

// requireBoundedMatch walks rng from entries under one environment with
// the bounded pass (on sess) and with the former mirror (on ref), and
// requires identical facts, no overlapping instructions unless the
// facts are Unfaithful, and identical verdicts, queried lists and ok
// flags for the range's start, its entries and every in-range call
// target, with funcs as the function set.
func requireBoundedMatch(t *testing.T, label string, sess, ref *Session, rng FuncRange, entries []uint64,
	nonRet, cond, funcs map[uint64]bool, n *boundedCounts) {
	t.Helper()
	lw := sess.WalkLocal(rng, entries, nonRet, cond)
	rw := refWalkLocal(ref, rng, entries, nonRet, cond)
	rf := rw.Facts()
	want := LocalFacts{
		Insts: rf.Insts, Calls: rf.Calls, Pushes: rf.Pushes, RefCounts: rf.RefCounts,
		Consts: rf.Consts, TableBases: rf.TableBases, TableReads: rf.TableReads,
		JmpOut: rf.JmpOut, Unfaithful: rf.Flags != 0,
	}
	if got := lw.Facts(); !reflect.DeepEqual(*got, want) {
		t.Fatalf("%s: bounded walk facts\n%+v\nreference\n%+v", label, *got, want)
	}
	if !want.Unfaithful {
		// A faithful walk's coverage is order-independent: no two of
		// its instructions share a byte.
		for i := 1; i < len(want.Insts); i++ {
			if prev := want.Insts[i-1]; prev.Addr+uint64(prev.Len) > want.Insts[i].Addr {
				t.Fatalf("%s: faithful walk holds overlapping instructions %+v and %+v", label, prev, want.Insts[i])
			}
		}
	}
	n.walks++
	if want.Unfaithful {
		n.unfaithful++
	}
	if len(want.TableBases) > 0 {
		n.tableBases++
	}

	returnsOf := func(t uint64) bool { return !nonRet[t] }
	isFunc := func(t uint64) bool { return funcs[t] }
	verdictEntries := append([]uint64{rng.Start}, entries...)
	for _, c := range want.Calls {
		if rng.contains(c) {
			verdictEntries = append(verdictEntries, c)
		}
	}
	for _, e := range verdictEntries {
		v, q, ok := lw.EntryReturns(e, nonRet, funcs)
		rv, rq, rok := rw.EntryReturns(e, returnsOf, isFunc)
		if v != rv || ok != rok || !reflect.DeepEqual(q, rq) {
			t.Fatalf("%s entry %#x: EntryReturns = %v %#x %v, reference %v %#x %v", label, e, v, q, ok, rv, rq, rok)
		}
		h, b, q2, ok2 := lw.CondFacts(e, funcs)
		rh, rb, rq2, rok2 := rw.CondFacts(e, isFunc)
		if h != rh || ok2 != rok2 || !reflect.DeepEqual(b, rb) || !reflect.DeepEqual(q2, rq2) {
			t.Fatalf("%s entry %#x: CondFacts = %v %#x %#x %v, reference %v %#x %#x %v",
				label, e, h, b, q2, ok2, rh, rb, rq2, rok2)
		}
		n.verdicts++
		switch {
		case !ok:
			n.escaped++
		case !v:
			n.nonReturning++
		}
		switch {
		case !ok2:
			n.condEscaped++
		case h:
			n.gateTests++
		}
	}
}

// requireBoundedMatchAllEnvs runs requireBoundedMatch under the empty
// environment, then with each call target of the range made
// non-returning, then conditionally non-returning, one target at a time.
func requireBoundedMatchAllEnvs(t *testing.T, label string, sess, ref *Session, rng FuncRange, entries []uint64,
	funcs map[uint64]bool, n *boundedCounts) {
	t.Helper()
	none := map[uint64]bool{}
	requireBoundedMatch(t, label, sess, ref, rng, entries, none, none, funcs, n)
	for _, c := range sess.WalkLocal(rng, entries, none, none).Facts().Calls {
		one := map[uint64]bool{c: true}
		requireBoundedMatch(t, fmt.Sprintf("%s nonret %#x", label, c), sess, ref, rng, entries, one, none, funcs, n)
		requireBoundedMatch(t, fmt.Sprintf("%s cond %#x", label, c), sess, ref, rng, entries, none, one, funcs, n)
	}
}

// TestBoundedWalkMatchesMirror compares delta replay's bounded walk and
// verdicts — the engine's own pass and inference walks — with the
// former hand-kept mirrors (localref_test.go) over every FDE range
// of the adversarial profiles on both ISAs, and over every union of two
// adjacent FDE ranges (where a conditionally non-returning function's
// body walk stays in range), with the committed function set as the
// tail-edge set.
func TestBoundedWalkMatchesMirror(t *testing.T) {
	opts := Options{ResolveJumpTables: true, NonReturning: true}
	var n boundedCounts
	for _, p := range contractProfiles(t) {
		funcs := Recursive(p.img, p.sec.FunctionStarts(), opts).Funcs
		sess, ref := NewSession(p.img, opts), NewSession(p.img, opts)
		for i, f := range p.sec.FDEs {
			rng := FuncRange{Start: f.PCBegin, End: f.End()}
			requireBoundedMatchAllEnvs(t, fmt.Sprintf("%s range %#x", p.name, rng.Start), sess, ref, rng,
				[]uint64{rng.Start}, funcs, &n)
			if i+1 < len(p.sec.FDEs) && p.sec.FDEs[i+1].End() > rng.End {
				rng.End = p.sec.FDEs[i+1].End()
				requireBoundedMatchAllEnvs(t, fmt.Sprintf("%s ranges %#x+1", p.name, rng.Start), sess, ref, rng,
					[]uint64{rng.Start}, funcs, &n)
			}
		}
	}
	if testing.Verbose() {
		t.Logf("%+v", n)
	}
	if n.unfaithful == 0 || n.tableBases == 0 || n.nonReturning == 0 || n.escaped == 0 ||
		n.condEscaped == 0 || n.gateTests == 0 {
		t.Fatalf("compared %+v: the profiles no longer exercise every path", n)
	}
}

// FuzzBoundedWalk runs the bounded-walk differential on arbitrary code:
// the fuzz bytes become a .text section, lo and hi pick a range (which
// may run past the section end) and entry an address in it, and the
// function set is the committed one from the section start and entry.
// The differential includes requireBoundedMatch's overlap check.
func FuzzBoundedWalk(f *testing.F) {
	f.Add([]byte{0x55, 0x48, 0x89, 0xE5, 0xC3, 0xE8, 0xF6, 0xFF, 0xFF, 0xFF}, uint16(5), uint16(10), uint16(0))
	// A call to an unmapped target, then ret.
	f.Add([]byte{0xE8, 0xFB, 0xEF, 0xEF, 0xFF, 0xC3}, uint16(0), uint16(6), uint16(0))
	f.Add([]byte{0x48, 0x83, 0xF8, 0x03, 0x77, 0x02, 0xEB, 0x00, 0xC3}, uint16(0), uint16(6), uint16(1))
	// Jumps into instruction interiors, then an invalid opcode.
	f.Add([]byte{0xEB, 0x01, 0x48, 0x31, 0xC0, 0xC3, 0x74, 0xFC, 0xC3, 0x06, 0x90}, uint16(0), uint16(11), uint16(0))
	// test rdi, rdi; jz; call; ret — the gate shape.
	f.Add([]byte{0x48, 0x85, 0xFF, 0x74, 0x05, 0xE8, 0x00, 0x00, 0x00, 0x00, 0xC3}, uint16(0), uint16(11), uint16(0))
	f.Fuzz(func(t *testing.T, code []byte, lo, hi, entry uint16) {
		if len(code) == 0 || len(code) > 1<<10 {
			return
		}
		const base = 0x401000
		img := &elfx.Image{
			Entry: base,
			Sections: []*elfx.Section{{
				Name: ".text", Addr: base, Data: code,
				Flags: elfx.FlagAlloc | elfx.FlagExec,
			}},
		}
		start := uint64(lo) % uint64(len(code))
		end := start + 1 + uint64(hi)%(uint64(len(code))+16-start)
		rng := FuncRange{Start: base + start, End: base + end}
		e := rng.Start + uint64(entry)%(end-start)
		opts := Options{ResolveJumpTables: true, NonReturning: true}
		funcs := Recursive(img, []uint64{base, e}, opts).Funcs
		var n boundedCounts
		requireBoundedMatchAllEnvs(t, "fuzz", NewSession(img, opts), NewSession(img, opts), rng, []uint64{e}, funcs, &n)
	})
}

// TestLocalWalkStaleVerdictPanics pins the LocalWalk contract: its
// verdicts read the session's walk marks, so asking for one after the
// session walks again — here a probe — must panic instead of reading
// the other walk's instructions.
func TestLocalWalkStaleVerdictPanics(t *testing.T) {
	img, start := tableImage(t, 2, []uint64{0, 0, 0}, true)
	text, _ := img.Section(".text")
	sess := NewSession(img, Options{ResolveJumpTables: true, NonReturning: true})
	lw := sess.WalkLocal(FuncRange{Start: start, End: text.End()}, []uint64{start}, nil, nil)
	if v, _, ok := lw.EntryReturns(start, nil, nil); !v || !ok {
		t.Fatalf("EntryReturns = %v, ok %v; want a returning verdict", v, ok)
	}
	if _, _, _, ok := lw.CondFacts(start, nil); !ok {
		t.Fatal("CondFacts escaped the range")
	}
	sess.Probe([]uint64{start}, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("a verdict read after another walk did not panic")
		}
	}()
	lw.EntryReturns(start, nil, nil)
}

// TestLocalWalkVerdictAfterReleasePanics pins that a LocalWalk's
// verdicts cannot read marks its session handed back with Release.
func TestLocalWalkVerdictAfterReleasePanics(t *testing.T) {
	img, start := tableImage(t, 2, []uint64{0, 0, 0}, true)
	text, _ := img.Section(".text")
	sess := NewSession(img, Options{ResolveJumpTables: true, NonReturning: true})
	lw := sess.WalkLocal(FuncRange{Start: start, End: text.End()}, []uint64{start}, nil, nil)
	if v, _, ok := lw.EntryReturns(start, nil, nil); !v || !ok {
		t.Fatalf("EntryReturns = %v, ok %v; want a returning verdict", v, ok)
	}
	sess.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a verdict read after Release did not panic")
		}
	}()
	lw.EntryReturns(start, nil, nil)
}

// overlapImage is the smallest committed walk whose instructions
// overlap: `call base+10` at base (five bytes) and `add eax, imm32` at
// base+1 (five bytes, then `ret`). The call's target `jmp $` never
// returns, so once the non-return fixed point knows it, no walk falls
// through into the add's bytes and no arrival is mid-instruction. The
// seeds are base and base+1; the walk pops base+1 first, so the call
// takes the shared bytes base+1…base+4 last.
func overlapImage() (*elfx.Image, []uint64) {
	const base = 0x401000
	code := []byte{0xE8, 0x05, 0x00, 0x00, 0x00, 0x90, 0xC3, 0xCC, 0xCC, 0xCC, 0xEB, 0xFE}
	img := &elfx.Image{
		Entry: base,
		Sections: []*elfx.Section{{
			Name: ".text", Addr: base, Data: code,
			Flags: elfx.FlagAlloc | elfx.FlagExec,
		}},
	}
	return img, []uint64{base, base + 1}
}

// TestOverlapIsOrderSensitive pins that overlapping instructions mark a
// walk order-sensitive: the committed result reports SawMid, since its
// coverage of the shared bytes is the walk's last writer and
// BuildCoverage over its facts answers otherwise, and a bounded walk
// over the same bytes is Unfaithful.
func TestOverlapIsOrderSensitive(t *testing.T) {
	img, seeds := overlapImage()
	base := seeds[0]
	opts := Options{ResolveJumpTables: true, NonReturning: true}
	res := Recursive(img, seeds, opts)
	if !res.NonRet[base+10] {
		t.Fatalf("NonRet = %v, want the jmp $ at %#x", res.NonRet, base+10)
	}
	if _, ok := res.Inst(base + 5); ok {
		t.Fatal("the final pass fell through the call")
	}
	if !res.SawMid() {
		t.Fatal("a committed walk with overlapping instructions does not report SawMid")
	}
	cov := BuildCoverage(res.InstFacts())
	for a := base + 1; a < base+5; a++ {
		if got, _ := res.InstStartAt(a); got != base {
			t.Fatalf("InstStartAt(%#x) = %#x, want the call at %#x (the walk's last writer)", a, got, base)
		}
		if got, _ := cov.InstStartAt(a); got != base+1 {
			t.Fatalf("rebuilt InstStartAt(%#x) = %#x, want %#x (address order)", a, got, base+1)
		}
	}

	sess := NewSession(img, opts)
	lw := sess.WalkLocal(FuncRange{Start: base, End: base + 12}, seeds, res.NonRet, nil)
	if f := lw.Facts(); !f.Unfaithful || len(f.Insts) != 4 {
		t.Fatalf("bounded walk: Unfaithful %v over %d instructions, want an unfaithful walk over 4", f.Unfaithful, len(f.Insts))
	}
}
