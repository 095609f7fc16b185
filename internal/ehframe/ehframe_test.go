package ehframe

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestULEBRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		b := appendULEB(nil, v)
		got, n, err := readULEB(b)
		return err == nil && n == len(b) && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSLEBRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		b := appendSLEB(nil, v)
		got, n, err := readSLEB(b)
		return err == nil && n == len(b) && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Explicit boundary cases.
	for _, v := range []int64{0, -1, 1, 63, 64, -64, -65, 127, 128, -128} {
		b := appendSLEB(nil, v)
		got, _, err := readSLEB(b)
		if err != nil || got != v {
			t.Errorf("SLEB(%d) round trip = %d, %v", v, got, err)
		}
	}
}

func TestCFIProgramRoundTrip(t *testing.T) {
	prog := []CFI{
		{Op: CFADefCFA, Reg: DwRSP, Offset: 8},
		{Op: CFAOffset, Reg: DwRA, Offset: 8},
		{Op: CFAAdvanceLoc, Delta: 1},
		{Op: CFADefCFAOffset, Offset: 16},
		{Op: CFAOffset, Reg: DwRBP, Offset: 16},
		{Op: CFAAdvanceLoc, Delta: 12},
		{Op: CFADefCFAOffset, Offset: 24},
		{Op: CFAOffset, Reg: DwRBX, Offset: 24},
		{Op: CFAAdvanceLoc, Delta: 300}, // needs advance_loc2
		{Op: CFADefCFAOffset, Offset: 32},
		{Op: CFAAdvanceLoc, Delta: 70000}, // needs advance_loc4
		{Op: CFADefCFARegister, Reg: DwRBP},
		{Op: CFARememberState},
		{Op: CFARestoreState},
		{Op: CFARestore, Reg: DwRBX},
		{Op: CFANop},
	}
	b, err := encodeCFIs(prog, 1, -8)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := decodeCFIs(b, 1, -8)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(prog, got) {
		t.Fatalf("round trip mismatch:\n in: %v\nout: %v", prog, got)
	}
}

func TestCFIExpressionRoundTrip(t *testing.T) {
	// The hand-written FDE from paper Figure 6b uses DW_CFA_expression.
	prog := []CFI{
		{Op: CFAExpression, Reg: 8, Expr: []byte{0x77, 40}}, // r8: breg7+40
		{Op: CFAExpression, Reg: 9, Expr: []byte{0x77, 48}}, // r9: breg7+48
		{Op: CFADefCFAExpression, Expr: []byte{0x77, 8, 0x06}},
		{Op: CFANop},
	}
	b, err := encodeCFIs(prog, 1, -8)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := decodeCFIs(b, 1, -8)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(prog, got) {
		t.Fatalf("round trip mismatch:\n in: %v\nout: %v", prog, got)
	}
}

// paperProg is the CFI program of the FDE in Figure 4b of the paper.
var paperProg = []CFI{
	{Op: CFAAdvanceLoc, Delta: 1}, // to b1
	{Op: CFADefCFAOffset, Offset: 16},
	{Op: CFAOffset, Reg: DwRBP, Offset: 16},
	{Op: CFAAdvanceLoc, Delta: 12}, // to bd
	{Op: CFADefCFAOffset, Offset: 24},
	{Op: CFAOffset, Reg: DwRBX, Offset: 24},
	{Op: CFAAdvanceLoc, Delta: 11}, // to c8
	{Op: CFADefCFAOffset, Offset: 32},
	{Op: CFAAdvanceLoc, Delta: 29}, // to e5
	{Op: CFADefCFAOffset, Offset: 24},
	{Op: CFAAdvanceLoc, Delta: 1}, // to e6
	{Op: CFADefCFAOffset, Offset: 16},
	{Op: CFAAdvanceLoc, Delta: 1}, // to e7
	{Op: CFADefCFAOffset, Offset: 8},
}

// paperFDE builds the FDE from Figure 4b of the paper under cie.
func paperFDE(tb testing.TB, cie *CIE) *FDE {
	return mustFDE(tb, cie, 0xB0, 56, paperProg)
}

// mustFDE is NewFDE for tests: a program the encoder refuses fails the
// test.
func mustFDE(tb testing.TB, cie *CIE, pcBegin, pcRange uint64, prog []CFI) *FDE {
	tb.Helper()
	f, err := NewFDE(cie, pcBegin, pcRange, prog)
	if err != nil {
		tb.Fatalf("NewFDE: %v", err)
	}
	return f
}

func TestHeightsPaperFigure4(t *testing.T) {
	ht := paperFDE(t, NewDefaultCIE()).Heights()
	if !ht.Complete {
		t.Fatal("paper FDE should have complete heights")
	}
	tests := []struct {
		addr   uint64
		height int64
	}{
		{0xB0, 0}, // entry
		{0xB1, 8}, // after push rbp
		{0xB8, 8},
		{0xBD, 16}, // after push rbx
		{0xC8, 24}, // after sub rsp,8
		{0xD7, 24}, // at the call
		{0xE5, 16}, // after add rsp,8
		{0xE6, 8},  // after pop rbx
		{0xE7, 0},  // after pop rbp, at ret
	}
	for _, tt := range tests {
		h, ok := ht.HeightAt(tt.addr)
		if !ok {
			t.Errorf("HeightAt(%#x) not ok", tt.addr)
			continue
		}
		if h != tt.height {
			t.Errorf("HeightAt(%#x) = %d, want %d", tt.addr, h, tt.height)
		}
	}
}

func TestHeightsIncompleteFramePointer(t *testing.T) {
	// A frame-pointer function: CFA switches to rbp, making later
	// rsp-relative heights unknowable.
	f := mustFDE(t, NewDefaultCIE(), 0x100, 0x40, []CFI{
		{Op: CFAAdvanceLoc, Delta: 1},
		{Op: CFADefCFAOffset, Offset: 16},
		{Op: CFAAdvanceLoc, Delta: 3},
		{Op: CFADefCFARegister, Reg: DwRBP},
	})
	ht := f.Heights()
	if ht.Complete {
		t.Fatal("frame-pointer FDE must be incomplete")
	}
	if _, ok := ht.HeightAt(0x110); ok {
		t.Fatal("HeightAt must refuse incomplete tables")
	}
}

func TestHeightsIncompleteExpression(t *testing.T) {
	f := mustFDE(t, NewDefaultCIE(), 0x100, 0x10, []CFI{
		{Op: CFADefCFAExpression, Expr: []byte{0x77, 8}},
	})
	if ht := f.Heights(); ht.Complete {
		t.Fatal("expression-based CFA must be incomplete")
	}
}

func TestSectionEncodeDecodeRoundTrip(t *testing.T) {
	cie := NewDefaultCIE() // one CIE shared by all three FDEs
	progs := [][]CFI{paperProg, {
		{Op: CFAAdvanceLoc, Delta: 4},
		{Op: CFADefCFAOffset, Offset: 48},
	}, nil}
	sec := &Section{
		Addr: 0x4F0000,
		FDEs: []*FDE{
			paperFDE(t, cie),
			mustFDE(t, cie, 0x200, 0x80, progs[1]),
			{CIE: cie, PCBegin: 0x300, PCRange: 0x10},
		},
	}
	data, err := sec.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data, 0x4F0000)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got.FDEs) != 3 {
		t.Fatalf("decoded %d FDEs, want 3", len(got.FDEs))
	}
	if len(got.CIEs) != 1 {
		t.Fatalf("decoded %d CIEs, want 1 (shared)", len(got.CIEs))
	}
	// Decode keeps the programs as bytes of its own: the caller's
	// buffer may change once it returns.
	clear(data)
	for k, f := range got.FDEs {
		want := sec.FDEs[k]
		if f.PCBegin != want.PCBegin || f.PCRange != want.PCRange {
			t.Errorf("FDE %d = [%#x,+%#x), want [%#x,+%#x)",
				k, f.PCBegin, f.PCRange, want.PCBegin, want.PCRange)
		}
		prog := f.CFIs()
		for len(prog) > 0 && prog[len(prog)-1].Op == CFANop { // Encode's padding
			prog = prog[:len(prog)-1]
		}
		if len(prog) != len(progs[k]) || (len(prog) > 0 && !reflect.DeepEqual(prog, progs[k])) {
			t.Errorf("FDE %d: CFIs() = %v, want %v", k, prog, progs[k])
		}
		gotHT, wantHT := f.Heights(), want.Heights()
		if !reflect.DeepEqual(gotHT.Rows, wantHT.Rows) || gotHT.Complete != wantHT.Complete {
			t.Errorf("FDE %d: heights %+v, want %+v", k, gotHT, wantHT)
		}
	}
	// Heights must survive the round trip.
	ht := got.FDEs[0].Heights()
	if h, ok := ht.HeightAt(0xD7); !ok || h != 24 {
		t.Errorf("post-roundtrip HeightAt(0xd7) = %d,%v want 24,true", h, ok)
	}
}

func TestSectionMultipleCIEs(t *testing.T) {
	cie1 := NewDefaultCIE()
	cie2 := NewDefaultCIE()
	cie2.FDEEnc = PEAbsptr
	sec := &Section{
		Addr: 0x10000,
		FDEs: []*FDE{
			{CIE: cie1, PCBegin: 0x1000, PCRange: 0x20},
			{CIE: cie2, PCBegin: 0x2000, PCRange: 0x30},
			{CIE: cie1, PCBegin: 0x3000, PCRange: 0x40},
		},
	}
	data, err := sec.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data, 0x10000)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got.CIEs) != 2 {
		t.Fatalf("decoded %d CIEs, want 2", len(got.CIEs))
	}
	if len(got.FDEs) != 3 {
		t.Fatalf("decoded %d FDEs, want 3", len(got.FDEs))
	}
	for k, f := range got.FDEs {
		if f.PCBegin != sec.FDEs[k].PCBegin {
			t.Errorf("FDE %d begin %#x, want %#x", k, f.PCBegin, sec.FDEs[k].PCBegin)
		}
	}
}

func TestFunctionStartsAndLookup(t *testing.T) {
	cie := NewDefaultCIE()
	sec := &Section{FDEs: []*FDE{
		{CIE: cie, PCBegin: 0x100, PCRange: 0x50},
		{CIE: cie, PCBegin: 0x200, PCRange: 0x10},
	}}
	starts := sec.FunctionStarts()
	if !reflect.DeepEqual(starts, []uint64{0x100, 0x200}) {
		t.Fatalf("FunctionStarts = %#x", starts)
	}
	if f, ok := sec.FDEAt(0x14F); !ok || f.PCBegin != 0x100 {
		t.Errorf("FDEAt(0x14f) = %v, %v", f, ok)
	}
	if _, ok := sec.FDEAt(0x150); ok {
		t.Error("FDEAt(0x150) should miss (exclusive end)")
	}
	if _, ok := sec.FDEStartingAt(0x200); !ok {
		t.Error("FDEStartingAt(0x200) should hit")
	}
	if _, ok := sec.FDEStartingAt(0x201); ok {
		t.Error("FDEStartingAt(0x201) should miss")
	}
}

// TestQuickHeightTableMonotonic property-tests that evaluating a random
// push-style CFI program yields monotonically increasing row locations
// and that HeightAt agrees with manual evaluation.
func TestQuickHeightTableMonotonic(t *testing.T) {
	f := func(deltasRaw []uint8) bool {
		if len(deltasRaw) > 24 {
			deltasRaw = deltasRaw[:24]
		}
		offset := int64(8)
		var loc uint64
		var prog []CFI
		for _, d := range deltasRaw {
			delta := uint64(d%32 + 1)
			loc += delta
			offset += 8
			prog = append(prog,
				CFI{Op: CFAAdvanceLoc, Delta: delta},
				CFI{Op: CFADefCFAOffset, Offset: offset},
			)
		}
		fde := mustFDE(t, NewDefaultCIE(), 0x1000, loc+16, prog)
		ht := fde.Heights()
		if !ht.Complete {
			return false
		}
		prev := uint64(0)
		for k, r := range ht.Rows {
			if k > 0 && r.Loc <= prev {
				return false
			}
			prev = r.Loc
		}
		// Final height must be 8 * len(deltas).
		h, ok := ht.HeightAt(0x1000 + loc)
		return ok && h == int64(len(deltasRaw))*8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
