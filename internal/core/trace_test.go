package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"reflect"
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
