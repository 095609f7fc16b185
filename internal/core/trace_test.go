package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"reflect"
	"slices"
	"testing"

	"fetch/internal/disasm"
	"fetch/internal/elfx"
	"fetch/internal/xref"
)

// TestRosterGobRoundTrip round-trips a roster through its packed form,
// alone and inside a gob-encoded Trace, and rejects every truncation,
// trailing data, and a Foreign byte other than 0 or 1.
func TestRosterGobRoundTrip(t *testing.T) {
	roster := Roster{
		{Start: 0x401000, End: 0x401040, Foreign: true},
		{Start: 0x401040, End: 0x401041},
		{Start: 1 << 40, End: 1<<40 + 0x10000},
	}
	for i := range roster {
		for k := range roster[i].Hash {
			roster[i].Hash[k] = byte(17*i + k)
		}
	}
	blob, err := roster.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var back Roster
	if err := back.GobDecode(blob); err != nil {
		t.Fatalf("valid roster rejected: %v", err)
	}
	if !reflect.DeepEqual(back, roster) {
		t.Fatalf("round trip = %+v, want %+v", back, roster)
	}

	tr := &Trace{BinSHA: [32]byte{1}, Roster: roster, Funcs: []uint64{0x401000}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(tr); err != nil {
		t.Fatal(err)
	}
	var trBack Trace
	if err := gob.NewDecoder(&buf).Decode(&trBack); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trBack.Roster, roster) || trBack.BinSHA != tr.BinSHA {
		t.Fatalf("trace round trip lost the roster: %+v", trBack.Roster)
	}

	var empty Roster
	if err := empty.GobDecode(mustEncode(t, Roster{})); err != nil || len(empty) != 0 {
		t.Fatalf("empty roster: %v, %d ranges", err, len(empty))
	}

	for n := 0; n < len(blob); n++ {
		var got Roster
		if err := got.GobDecode(blob[:n]); err == nil {
			t.Fatalf("roster truncated to %d of %d bytes accepted as %+v", n, len(blob), got)
		}
	}
	var got Roster
	if err := got.GobDecode(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("roster with trailing data accepted")
	}
	bad := append([]byte(nil), blob...)
	// The first range's Foreign byte follows the count, its Start, and
	// its length.
	foreign := binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, 3), 0x401000), 0x40)
	if bad[len(foreign)] != 1 {
		t.Fatalf("byte %d = %d, want the first range's Foreign flag", len(foreign), bad[len(foreign)])
	}
	bad[len(foreign)] = 2
	if err := got.GobDecode(bad); err == nil {
		t.Fatal("roster with Foreign byte 2 accepted")
	}
}

func mustEncode(t *testing.T, r Roster) []byte {
	t.Helper()
	b, err := r.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestVerdictRecordsGobRoundTrip round-trips the recorded verdict
// lists through their packed forms, alone and inside a gob-encoded
// Trace, and rejects every truncation, trailing data, and a flag byte
// with an unknown bit.
func TestVerdictRecordsGobRoundTrip(t *testing.T) {
	xrefs := XrefRecs{
		{C: 0x401000, OK: true, End: 0x401080, Consts: []uint64{7, 1 << 40},
			Extent: []disasm.Interval{{Lo: 0x401000, Hi: 0x401080}, {Lo: 0x600000, Hi: 0x600010}}},
		{C: 0x401200, Post: true},
		{C: 1<<64 - 1, End: 3, Extent: []disasm.Interval{{Lo: 5, Hi: 2}}},
	}
	convs := ConvRecs{{Addr: 0x401000, End: 0x401010, OK: true}, {Addr: 0x401100, End: 0x401100}}
	jumps := JumpRecs{{FDE: 0x401000, Addr: 0x401020, Target: 0x402000, HOK: true, HZero: true}, {FDE: 0x401000, Addr: 0x401030, Target: 1 << 63}}
	lists := []struct {
		name string
		in   gobCodec
		out  func() gobCodec
		// flag is the offset of the first record's flag byte.
		flag int
	}{
		{"XrefRecs", &xrefs, func() gobCodec { return new(XrefRecs) }, uvarintsLen(3, 0x401000, 0x401080)},
		{"ConvRecs", &convs, func() gobCodec { return new(ConvRecs) }, uvarintsLen(2, 0x401000, 0x401010)},
		{"JumpRecs", &jumps, func() gobCodec { return new(JumpRecs) }, uvarintsLen(2, 0x401000, 0x401020, 0x402000)},
	}
	for _, l := range lists {
		blob, err := l.in.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		back := l.out()
		if err := back.GobDecode(blob); err != nil {
			t.Fatalf("%s: valid list rejected: %v", l.name, err)
		}
		if got, want := reflect.ValueOf(back).Elem().Interface(), reflect.ValueOf(l.in).Elem().Interface(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: round trip = %+v, want %+v", l.name, got, want)
		}
		for n := 0; n < len(blob); n++ {
			if err := l.out().GobDecode(blob[:n]); err == nil {
				t.Fatalf("%s truncated to %d of %d bytes accepted", l.name, n, len(blob))
			}
		}
		if err := l.out().GobDecode(append(slices.Clone(blob), 0)); err == nil {
			t.Fatalf("%s with trailing data accepted", l.name)
		}
		bad := slices.Clone(blob)
		if bad[l.flag] != 1 && bad[l.flag] != 3 {
			t.Fatalf("%s: byte %d = %d, want the first record's flags", l.name, l.flag, bad[l.flag])
		}
		bad[l.flag] = 4
		if err := l.out().GobDecode(bad); err == nil {
			t.Fatalf("%s with flag byte 4 accepted", l.name)
		}
	}

	tr := &Trace{XrefRecs: xrefs, ConvRecs: convs, JumpRecs: jumps}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(tr); err != nil {
		t.Fatal(err)
	}
	var trBack Trace
	if err := gob.NewDecoder(&buf).Decode(&trBack); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trBack.XrefRecs, xrefs) || !reflect.DeepEqual(trBack.ConvRecs, convs) || !reflect.DeepEqual(trBack.JumpRecs, jumps) {
		t.Fatalf("trace round trip lost verdict records: %+v", trBack)
	}
}

// uvarintsLen returns the bytes vs take as uvarints.
func uvarintsLen(vs ...uint64) int {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return len(b)
}

// gobCodec is a value with a packed gob form.
type gobCodec interface {
	GobEncode() ([]byte, error)
	GobDecode([]byte) error
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
