package ehframe

import (
	"encoding/binary"
	"testing"
)

// frame64 wraps an entry body (starting at its id field) in a 64-bit
// DWARF initial length: 0xffffffff escape followed by a uint64 length.
func frame64(body []byte) []byte {
	out := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	var ln [8]byte
	binary.LittleEndian.PutUint64(ln[:], uint64(len(body)))
	out = append(out, ln[:]...)
	return append(out, body...)
}

// u64 returns v in little-endian.
func u64(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

// u32 returns v in little-endian.
func u32(v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return b[:]
}

// cieBody64 is a default-style CIE body (version 1, "zR", code align
// 1, data align -8, RA 16, pcrel|sdata4 FDEs) behind an 8-byte id.
func cieBody64() []byte {
	body := append(u64(0),
		1,           // version
		'z', 'R', 0, // augmentation
		1,             // code align (ULEB)
		0x78,          // data align -8 (SLEB)
		16,            // RA register
		1,             // augmentation data length
		PEPCRelSData4, // FDE pointer encoding
		// initial program: def_cfa rsp, 8; offset ra at cfa-8
		rawDefCFA, 7, 8,
		rawOffset|16, 1,
	)
	return body
}

// TestDecode64BitDWARF pins the 64-bit DWARF initial-length path: a
// hand-framed 64-bit CIE/FDE pair must decode to the same result a
// 32-bit framing would give. Before the fix, the decoder aborted the
// whole section with "64-bit DWARF format not supported" — so a single
// such entry anywhere in a large real binary killed its analysis.
func TestDecode64BitDWARF(t *testing.T) {
	const base = 0x500000
	sec := frame64(cieBody64())
	fdeStart := len(sec)

	// FDE body: 8-byte CIE pointer (back-distance from the id field to
	// the CIE at offset 0), then pcrel|sdata4 PC begin/range.
	idField := fdeStart + 12 // 4-byte escape + 8-byte length
	pcField := idField + 8
	const pcBegin, pcRange = 0x401000, 0x40
	body := u64(uint64(idField))
	body = append(body, u32(uint32(int32(pcBegin-(base+pcField))))...)
	body = append(body, u32(pcRange)...)
	body = append(body, 0) // augmentation data length
	body = append(body, rawAdvanceLoc|4, rawDefCFAOfs, 16)
	sec = append(sec, frame64(body)...)
	sec = append(sec, 0, 0, 0, 0) // terminator

	s, err := Decode(sec, base)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(s.CIEs) != 1 || len(s.FDEs) != 1 {
		t.Fatalf("decoded %d CIEs, %d FDEs; want 1 and 1", len(s.CIEs), len(s.FDEs))
	}
	f := s.FDEs[0]
	if f.PCBegin != pcBegin || f.PCRange != pcRange {
		t.Errorf("FDE = [%#x,+%#x), want [%#x,+%#x)", f.PCBegin, f.PCRange, pcBegin, pcRange)
	}
	if got := s.Stats; got.Entries != 2 || got.DWARF64 != 2 || got.Skipped() {
		t.Errorf("Stats = %+v, want 2 entries, 2 DWARF64, none skipped", got)
	}
	ht := f.Heights()
	if !ht.Complete {
		t.Errorf("64-bit FDE heights not Complete: %+v", ht)
	}
}

// TestDecode64BitTruncatedLength keeps the hardening contract: a bare
// 0xffffffff escape with no 64-bit length behind it is still an error,
// never an accepted entry.
func TestDecode64BitTruncatedLength(t *testing.T) {
	for _, data := range [][]byte{
		{0xFF, 0xFF, 0xFF, 0xFF},
		{0xFF, 0xFF, 0xFF, 0xFF, 8, 0, 0},
	} {
		if _, err := Decode(data, 0x500000); err == nil {
			t.Errorf("Decode(%x) accepted truncated 64-bit length", data)
		}
	}
}

// validCIE32 is a minimal valid 32-bit CIE entry (offset-dependent
// pieces none), for composing mixed sections.
func validCIE32() []byte {
	body := append(u32(0),
		1,
		'z', 'R', 0,
		1, 0x78, 16,
		1, PEPCRelSData4,
		rawDefCFA, 7, 8,
	)
	for len(body)%4 != 0 {
		body = append(body, rawNop)
	}
	return append(u32(uint32(len(body))), body...)
}

// TestDecodeSkipsUnsupportedEntries pins the real-binary tolerance
// contract: a well-framed entry using a feature the codec does not
// support (here an unknown CFI opcode in one CIE, plus the FDE owned
// by it) is skipped and counted in DecodeStats, while entries around
// it still decode. Structural damage stays a hard error (see
// hardening_test.go).
func TestDecodeSkipsUnsupportedEntries(t *testing.T) {
	const base = 0x500000

	// CIE 0: valid. CIE 1: ends in an unknown (vendor) CFI opcode.
	var sec []byte
	sec = append(sec, validCIE32()...)
	badCIEStart := len(sec)
	badBody := append(u32(0),
		1,
		'z', 'R', 0,
		1, 0x78, 16,
		1, PEPCRelSData4,
		0x3C, // DW_CFA_? — no such opcode
	)
	for len(badBody)%4 != 0 {
		badBody = append(badBody, rawNop)
	}
	sec = append(sec, u32(uint32(len(badBody)))...)
	sec = append(sec, badBody...)

	// FDE 0: owned by the skipped CIE — must be skipped, not an orphan
	// error and not a crash.
	addFDE := func(cieStart int, pcBegin uint64) {
		fdeStart := len(sec)
		idField := fdeStart + 4
		pcField := idField + 4
		body := u32(uint32(idField - cieStart))
		body = append(body, u32(uint32(int32(int64(pcBegin)-int64(base+pcField))))...)
		body = append(body, u32(0x20)...)
		body = append(body, 0)
		for (len(body)+4)%4 != 0 {
			body = append(body, rawNop)
		}
		sec = append(sec, u32(uint32(len(body)))...)
		sec = append(sec, body...)
	}
	addFDE(badCIEStart, 0x401000)
	addFDE(0, 0x402000) // FDE 1: owned by the valid CIE — must survive
	sec = append(sec, 0, 0, 0, 0)

	s, err := Decode(sec, base)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(s.CIEs) != 1 || len(s.FDEs) != 1 {
		t.Fatalf("decoded %d CIEs, %d FDEs; want 1 and 1", len(s.CIEs), len(s.FDEs))
	}
	if got := s.FDEs[0].PCBegin; got != 0x402000 {
		t.Errorf("surviving FDE begins at %#x, want 0x402000", got)
	}
	want := DecodeStats{Entries: 4, SkippedCIEs: 1, SkippedFDEs: 1}
	if s.Stats != want {
		t.Errorf("Stats = %+v, want %+v", s.Stats, want)
	}
}

// TestRealCFIOpcodes covers the encodings real toolchains emit that
// the synthetic lane never generates: GNU_args_size (GCC, C++ try
// blocks), the signed-factored def_cfa/offset forms, and
// val_offset/val_expression. They must decode, render, and leave
// stack-height evaluation exact (none of them changes the CFA rule
// except the def_cfa forms, which carry ordinary semantics).
func TestRealCFIOpcodes(t *testing.T) {
	prog := []byte{
		rawGNUArgsSize, 16,
		rawDefCFASF, 7, 0x7E, // def_cfa_sf rsp, -2 → CFA = rsp+16
		rawDefCFAOfsSF, 0x7D, // def_cfa_offset_sf -3 → CFA offset 24
		rawOffsetExtSF, 3, 2, // offset_extended_sf rbx, 2 → at cfa-16
		rawValOffset, 6, 1, // val_offset rbp, 1 → value cfa-8
		rawValOffsetSF, 6, 0x7F, // val_offset_sf rbp, -1 → value cfa+8
		rawValExpr, 12, 1, 0x9C, // val_expression r12 [1 byte]
		rawGNUWinSave,
		rawGNUNegOfs, 14, 1, // negative_offset_extended r14, 1 → cfa+8
	}
	got, err := decodeCFIs(prog, 1, -8)
	if err != nil {
		t.Fatalf("decodeCFIs: %v", err)
	}
	want := []CFI{
		{Op: CFAGNUArgsSize, Offset: 16},
		{Op: CFADefCFA, Reg: 7, Offset: 16},
		{Op: CFADefCFAOffset, Offset: 24},
		{Op: CFAOffset, Reg: 3, Offset: 16},
		{Op: CFAValOffset, Reg: 6, Offset: -8},
		{Op: CFAValOffset, Reg: 6, Offset: 8},
		{Op: CFAValExpression, Reg: 12, Expr: []byte{0x9C}},
		{Op: CFAGNUWindowSave},
		{Op: CFAOffset, Reg: 14, Offset: -8},
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d ops, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Op != w.Op || g.Reg != w.Reg || g.Offset != w.Offset || string(g.Expr) != string(w.Expr) {
			t.Errorf("op %d = %v, want %v", i, g, w)
		}
		if g.String() == "" {
			t.Errorf("op %d renders empty", i)
		}
	}

	// The non-CFA ops must not disturb height evaluation.
	cie := NewDefaultCIE()
	fde := mustFDE(t, cie, 0x401000, 0x40, []CFI{
		{Op: CFAGNUArgsSize, Offset: 16},
		{Op: CFAAdvanceLoc, Delta: 4},
		{Op: CFADefCFAOffset, Offset: 24},
		{Op: CFAValOffset, Reg: 6, Offset: -8},
		{Op: CFAGNUWindowSave},
	})
	ht := fde.Heights()
	if !ht.Complete {
		t.Fatalf("heights not Complete with neutral real-CFI ops: %+v", ht)
	}
	if h, ok := ht.HeightAt(0x401005); !ok || h != 16 {
		t.Errorf("HeightAt(+5) = %d, %v; want 16, true", h, ok)
	}
}
