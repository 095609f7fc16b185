package core

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"fetch/internal/disasm"
	"fetch/internal/elfx"
	"fetch/internal/synth"
	"fetch/internal/xref"
)

// fullTrace returns a trace that sets every field, with multi-byte
// values, both bits of every two-flag byte, and nested lists.
func fullTrace() *Trace {
	tr := &Trace{
		BinSHA:      [32]byte{1, 2, 3},
		ResidueHash: [32]byte{31: 9},
		Roster: []RangeInfo{
			{Start: 0x401000, End: 0x401040, Foreign: true},
			{Start: 0x401040, End: 0x401041},
			{Start: 1 << 40, End: 1<<40 + 0x10000},
		},
		UNonRet:         []uint64{0x401000, 1 << 63},
		UCondNonRet:     []uint64{0x401040},
		FinalNonRet:     []uint64{0x401000},
		FinalCondNonRet: []uint64{7},
		EV:              []uint64{0x401100},
		Funcs:           []uint64{0x401000, 0x401040, 1 << 40},
		SawMid:          true,
		GlobalInsts:     packFacts(fullTraceFacts...),
		TableReads:      []disasm.Interval{{Lo: 0x600000, Hi: 0x600040}},
		XrefRecs: []XrefRec{
			{C: 0x401000, OK: true, End: 0x401080, Consts: []uint64{7, 1 << 40},
				Extent: []disasm.Interval{{Lo: 0x401000, Hi: 0x401080}, {Lo: 0x600000, Hi: 0x600010}}},
			{C: 0x401200, Post: true},
			{C: 1<<64 - 1, End: 3, Extent: []disasm.Interval{{Lo: 5, Hi: 2}}},
		},
		ConvRecs: []ConvRec{{Addr: 0x401000, End: 0x401010, OK: true}, {Addr: 0x401100, End: 0x401100}},
		JumpRecs: []JumpRec{
			{FDE: 0x401000, Addr: 0x401020, Target: 0x402000, HOK: true, HZero: true},
			{FDE: 0x401000, Addr: 0x401030, Target: 1 << 63},
		},
		Removed:         []uint64{0x401100},
		RemovedOrMerged: []uint64{0x401100, 0x401200},
		Result:          []byte("recorded result"),
		ResultSHA:       [32]byte{0xAA, 31: 0xBB},
	}
	for i := range tr.Roster {
		for k := range tr.Roster[i].Hash {
			tr.Roster[i].Hash[k] = byte(17*i + k)
		}
	}
	return tr
}

// fullTraceFacts is fullTrace's skeleton: the shortest and longest
// lengths a fact may have, and address steps of one and two bytes.
var fullTraceFacts = []disasm.InstFact{
	{Addr: 0x401000, Len: 1}, {Addr: 0x401001, Len: 15},
	{Addr: 0x401100, Len: disasm.MaxFactLen}, {Addr: 0x401180, Len: 4},
}

// packFacts packs address-sorted facts as a coverage skeleton
// (Trace.GlobalInsts).
func packFacts(facts ...disasm.InstFact) []byte {
	var b []byte
	prev := uint64(0)
	for _, f := range facts {
		b = binary.AppendUvarint(b, f.Addr-prev)
		b = binary.AppendUvarint(b, uint64(f.Len))
		prev = f.Addr
	}
	return b
}

func mustMarshal(t testing.TB, tr *Trace) []byte {
	t.Helper()
	b, err := tr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// assertRoundTrip checks that mk's trace decodes from its packed form
// to an equal trace, and that every truncation of that form, and the
// form with a byte appended, is rejected. It returns the form.
func assertRoundTrip(t *testing.T, mk func() *Trace) []byte {
	t.Helper()
	want := mk()
	blob := mustMarshal(t, want)
	var back Trace
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	if !reflect.DeepEqual(&back, want) {
		t.Fatalf("round trip = %+v, want %+v", back, *want)
	}
	for n := 0; n < len(blob); n++ {
		assertRejects(t, mk, fmt.Sprintf("trace truncated to %d of %d bytes", n, len(blob)), blob[:n])
	}
	assertRejects(t, mk, "trace with trailing data", append(slices.Clone(blob), 0))
	return blob
}

// assertRejects checks that decoding b into mk's trace fails and
// leaves that trace unchanged.
func assertRejects(t *testing.T, mk func() *Trace, label string, b []byte) {
	t.Helper()
	got := mk()
	if err := got.UnmarshalBinary(b); err == nil {
		t.Fatalf("%s accepted", label)
	}
	if !reflect.DeepEqual(got, mk()) {
		t.Fatalf("%s changed the trace it was decoded into", label)
	}
}

// assertFlagBounded finds the flag byte of mk's packed form as the one
// byte that clear — clearing the byte's lowest flag — changes, and
// checks that the form with that byte set one above top is rejected.
func assertFlagBounded(t *testing.T, mk func() *Trace, name string, clear func(*Trace), top byte) {
	t.Helper()
	blob := mustMarshal(t, mk())
	cleared := mk()
	clear(cleared)
	cb := mustMarshal(t, cleared)
	if len(cb) != len(blob) {
		t.Fatalf("%s: clearing the flag changed the form's length", name)
	}
	at := -1
	for i := range blob {
		if blob[i] != cb[i] {
			if at >= 0 {
				t.Fatalf("%s: clearing the flag changed bytes %d and %d", name, at, i)
			}
			at = i
		}
	}
	if at < 0 {
		t.Fatalf("%s: clearing the flag changed no byte", name)
	}
	bad := slices.Clone(blob)
	bad[at] = top + 1
	assertRejects(t, mk, fmt.Sprintf("%s flag byte %d", name, top+1), bad)
}

// TestTraceCodecRoundTrip round-trips a trace that sets every field
// through its packed form, reads its skeleton back, keeps a nil Result
// apart from an empty one, and rejects every truncation, trailing data,
// a SawMid byte above its range, and a skeleton fact that is truncated
// or of a length outside [1, MaxFactLen] — including lengths a uint16
// would silently truncate. A rejected input leaves the trace it was
// decoded into unchanged.
func TestTraceCodecRoundTrip(t *testing.T) {
	var back Trace
	if err := back.UnmarshalBinary(assertRoundTrip(t, fullTrace)); err != nil {
		t.Fatal(err)
	}
	if got := substituteCoverage(&back, nil, nil); !reflect.DeepEqual(got, fullTraceFacts) {
		t.Fatalf("skeleton reads back as %v, want %v", got, fullTraceFacts)
	}

	for _, result := range [][]byte{nil, {}} {
		in := &Trace{Result: result}
		var out Trace
		if err := out.UnmarshalBinary(mustMarshal(t, in)); err != nil {
			t.Fatalf("trace with Result %#v rejected: %v", result, err)
		}
		if !reflect.DeepEqual(&out, in) || (out.Result == nil) != (result == nil) {
			t.Fatalf("trace with Result %#v came back with %#v", result, out.Result)
		}
	}

	assertFlagBounded(t, fullTrace, "SawMid", func(tr *Trace) { tr.SawMid = false }, 3)

	for _, skel := range []struct {
		name string
		b    []byte
	}{
		{"length 0", binary.AppendUvarint(binary.AppendUvarint(nil, 0x401000), 0)},
		{"length 256", binary.AppendUvarint(binary.AppendUvarint(nil, 0x401000), 256)},
		{"length 70000", binary.AppendUvarint(binary.AppendUvarint(nil, 0x401000), 70000)},
		{"one-byte length 0", []byte{1, 0}},
		{"a step without a length", []byte{5}},
		{"a truncated step", []byte{0x80}},
		{"a truncated length", []byte{5, 0x80}},
	} {
		tr := fullTrace()
		tr.GlobalInsts = append(packFacts(fullTraceFacts...), skel.b...)
		assertRejects(t, fullTrace, "skeleton fact with "+skel.name, mustMarshal(t, tr))
	}
}

// TestRosterGobRoundTrip round-trips a roster through the trace's
// packed form, alone and empty, and rejects every truncation, trailing
// data, a Foreign byte above 1 (alone and beside every other field), a
// range ending before its start, and a roster count the input cannot
// hold.
func TestRosterGobRoundTrip(t *testing.T) {
	rosterOnly := func() *Trace { return &Trace{Roster: fullTrace().Roster} }
	assertRoundTrip(t, rosterOnly)

	var empty Trace
	if err := empty.UnmarshalBinary(mustMarshal(t, &Trace{Roster: []RangeInfo{}})); err != nil || len(empty.Roster) != 0 {
		t.Fatalf("empty roster: %v, %d ranges", err, len(empty.Roster))
	}

	for _, mk := range []func() *Trace{rosterOnly, fullTrace} {
		assertFlagBounded(t, mk, "roster Foreign", func(tr *Trace) { tr.Roster[0].Foreign = false }, 1)
	}
	assertRejects(t, rosterOnly, "a roster range ending before its start",
		mustMarshal(t, &Trace{Roster: []RangeInfo{{Start: 2, End: 1}}}))
	// A count the rest of the input cannot hold fails before anything
	// is reserved for it: the roster's, after the two hashes.
	assertRejects(t, rosterOnly, "roster count of 2^62", binary.AppendUvarint(make([]byte, 64), 1<<62))
}

// TestVerdictRecordsGobRoundTrip round-trips the recorded verdict
// lists through the trace's packed form, and rejects every truncation,
// trailing data, and each record's flag byte above its range, alone
// and beside every other field.
func TestVerdictRecordsGobRoundTrip(t *testing.T) {
	verdictsOnly := func() *Trace {
		full := fullTrace()
		return &Trace{XrefRecs: full.XrefRecs, ConvRecs: full.ConvRecs, JumpRecs: full.JumpRecs}
	}
	assertRoundTrip(t, verdictsOnly)

	for _, mk := range []func() *Trace{verdictsOnly, fullTrace} {
		assertFlagBounded(t, mk, "xref record", func(tr *Trace) { tr.XrefRecs[0].OK = false }, 3)
		assertFlagBounded(t, mk, "convention record", func(tr *Trace) { tr.ConvRecs[0].OK = false }, 1)
		assertFlagBounded(t, mk, "jump record", func(tr *Trace) { tr.JumpRecs[0].HOK = false }, 3)
	}
}

// FuzzTraceDecode feeds arbitrary bytes to UnmarshalBinary, seeded with
// the recorded trace of a synth binary, fullTrace and the zero trace:
// decoding never panics, and a trace it accepts marshals to bytes that
// decode to an equal trace.
func FuzzTraceDecode(f *testing.F) {
	// The smallest synth binary: the fuzzer minimizes every input it
	// finds interesting, at a cost that grows with the input's size.
	cfg := synth.DefaultConfig("trace-fuzz", 5, synth.O2, synth.GCC, synth.LangC)
	cfg.NumFuncs = 8
	img, _, err := synth.Generate(cfg)
	if err != nil {
		f.Fatal(err)
	}
	_, recorded, err := AnalyzeRecorded(img.Strip(), FETCH, nil)
	if err != nil || recorded == nil || len(recorded.GlobalInsts) == 0 {
		f.Fatalf("no recorded trace with a skeleton: %v", err)
	}
	recorded.Result = []byte("recorded result")
	for _, tr := range []*Trace{recorded, fullTrace(), {}} {
		f.Add(mustMarshal(f, tr))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr Trace
		if tr.UnmarshalBinary(data) != nil {
			return
		}
		var back Trace
		if err := back.UnmarshalBinary(mustMarshal(t, &tr)); err != nil {
			t.Fatalf("re-marshaled trace rejected: %v", err)
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("re-marshaled trace decodes to %+v, want %+v", back, tr)
		}
	})
}

// TestXrefRecordCoversRejectingWalk records a candidate whose
// validation walk leaves the convention window and then fails on an
// invalid opcode. The record's extent must cover every instruction the
// walk decoded and the bytes at the error, which no decoded
// instruction covers: a recompile that changes any of them must
// re-validate the candidate instead of replaying the stale rejection.
func TestXrefRecordCoversRejectingWalk(t *testing.T) {
	const base, far = 0x401000, 0x402000
	code := make([]byte, 0x1100)
	for i := range code {
		code[i] = 0x90 // nop
	}
	// base: jmp far, past the convention window.
	copy(code, []byte{0xE9})
	binary.LittleEndian.PutUint32(code[1:], far-(base+5))
	// far: je far+5; nop; nop; ret; then an invalid opcode at far+5.
	copy(code[far-base:], []byte{0x74, 0x03, 0x90, 0x90, 0xC3, 0x06})
	img := &elfx.Image{
		Entry: base,
		Sections: []*elfx.Section{{
			Name: ".text", Addr: base, Data: code,
			Flags: elfx.FlagAlloc | elfx.FlagExec,
		}},
	}
	if far-base < convWindow {
		t.Fatalf("the walk must leave the %d-byte convention window", convWindow)
	}

	v, ok := xref.ValidateCandidate(img, disasm.BuildCoverage(nil), base, xref.Options{})
	if ok || v == nil {
		t.Fatalf("validation = %v with result %v, want a walk-rejected verdict", ok, v != nil)
	}
	if len(v.Errors) != 1 || v.Errors[0].Kind != disasm.ErrInvalidOpcode || v.Errors[0].At != far+5 {
		t.Fatalf("walk errors = %+v, want one invalid opcode at %#x", v.Errors, far+5)
	}
	if len(v.Insts) != 5 {
		t.Fatalf("walk decoded %d instructions, want 5", len(v.Insts))
	}

	rec := newRecorder(img.ISA().MaxInstLen())
	rec.onXref(base, ok, v)
	ext := rec.xrefRecs[0].Extent
	covered := func(lo, hi uint64) bool {
		for _, iv := range ext {
			if iv.Lo <= lo && hi <= iv.Hi {
				return true
			}
		}
		return false
	}
	for _, f := range v.InstFacts() {
		if !covered(f.Addr, f.Addr+uint64(f.Len)) {
			t.Errorf("extent %+v misses the walked instruction at %#x", ext, f.Addr)
		}
	}
	at := v.Errors[0].At
	if !covered(at, at+uint64(img.ISA().MaxInstLen())) {
		t.Errorf("extent %+v misses the bytes at the error %#x", ext, at)
	}
}
