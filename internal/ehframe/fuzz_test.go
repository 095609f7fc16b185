package ehframe

import (
	"reflect"
	"testing"
)

// fuzzSectionBytes builds a small valid .eh_frame via the encoder, for
// seeding the section fuzzer with structurally realistic input.
func fuzzSectionBytes(tb testing.TB, enc byte) []byte {
	cie := NewDefaultCIE()
	cie.FDEEnc = enc
	sec := &Section{Addr: 0x500000}
	sec.FDEs = []*FDE{
		mustFDE(tb, cie, 0x401000, 0x40, []CFI{
			{Op: CFAAdvanceLoc, Delta: 1},
			{Op: CFADefCFAOffset, Offset: 16},
			{Op: CFAOffset, Reg: DwRBX, Offset: 16},
		}),
		mustFDE(tb, cie, 0x401040, 0x80, []CFI{
			{Op: CFAAdvanceLoc, Delta: 4},
			{Op: CFADefCFARegister, Reg: DwRBP},
		}),
	}
	out, err := sec.Encode()
	if err != nil {
		tb.Fatalf("encode seed: %v", err)
	}
	return out
}

// FuzzSectionDecode throws arbitrary bytes at the .eh_frame decoder.
// The contract: never panic — truncated or garbage input returns an
// error — and every successfully decoded FDE has a CIE.
func FuzzSectionDecode(f *testing.F) {
	f.Add(fuzzSectionBytes(f, PEPCRelSData4))
	f.Add(fuzzSectionBytes(f, PEAbsptr))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})                                 // bare terminator
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0})                     // CIE with empty body
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})                     // 64-bit DWARF marker
	f.Add([]byte{8, 0, 0, 0, 0xF0, 0, 0, 0, 1, 2, 3, 4})      // FDE pointing at no CIE
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0})                        // length smaller than id field
	f.Add([]byte{8, 0, 0, 0, 0, 0, 0, 0, 1, 'z', 'R', 0})     // CIE truncated mid-augmentation
	f.Add([]byte{12, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0x78, 16}) // plain-augmentation CIE
	f.Fuzz(func(t *testing.T, data []byte) {
		sec, err := Decode(data, 0x500000)
		if err != nil {
			return
		}
		for _, fde := range sec.FDEs {
			if fde.CIE == nil {
				t.Fatal("decoded FDE with nil CIE")
			}
			// Height evaluation must hold up on anything that decodes.
			_ = fde.Heights()
		}
	})
}

// FuzzCFIProgram checks the CFI codec on arbitrary programs: decoding
// never panics, and any decodable program round-trips through the
// encoder to the same semantic instruction list (for the offset ranges
// the encoder canonicalizes).
func FuzzCFIProgram(f *testing.F) {
	progs := [][]byte{
		{rawNop},
		{rawAdvanceLoc | 5, rawDefCFAOfs, 16},
		{rawOffset | DwRBX, 2},
		{rawAdvanceLoc1, 200, rawAdvanceLoc2, 0x10, 0x27, rawAdvanceLoc4, 1, 2, 3, 4},
		{rawDefCFA, 7, 8, rawDefCFAReg, 6, rawRestore | 3},
		{rawRememberSt, rawRestoreSt, rawUndefined, 16, rawSameValue, 3},
		{rawRegister, 3, 12, rawOffsetExt, 16, 2, rawRestoreExt, 16},
		{rawDefCFAExpr, 2, 0x77, 0x08, rawExpression, 6, 1, 0x9C},
	}
	for _, p := range progs {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, err := decodeCFIs(data, 1, -8)
		if err != nil {
			return
		}
		if !cfiRoundTrippable(prog) {
			return
		}
		enc, err := encodeCFIs(prog, 1, -8)
		if err != nil {
			t.Fatalf("cannot re-encode decoded program: %v", err)
		}
		again, err := decodeCFIs(enc, 1, -8)
		if err != nil {
			t.Fatalf("cannot re-decode encoded program: %v", err)
		}
		if !reflect.DeepEqual(normalizeCFIs(prog), normalizeCFIs(again)) {
			t.Fatalf("CFI round trip diverged:\n  first:  %v\n  second: %v", prog, again)
		}
	})
}

// cfiRoundTrippable reports whether the encoder canonicalizes every
// instruction of the program: offsets within the factored ranges and
// non-nil expression payloads.
func cfiRoundTrippable(prog []CFI) bool {
	for _, c := range prog {
		if c.Offset < 0 || c.Offset > 1<<32 || c.Delta > 1<<32 {
			return false
		}
	}
	return true
}

// normalizeCFIs maps empty and nil expression payloads to the same
// representation for comparison.
func normalizeCFIs(prog []CFI) []CFI {
	out := append([]CFI(nil), prog...)
	for i := range out {
		if len(out[i].Expr) == 0 {
			out[i].Expr = nil
		}
	}
	return out
}
