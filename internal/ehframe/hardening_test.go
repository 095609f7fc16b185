package ehframe

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
)

// TestDecodeGarbageReturnsErrors pins the hardening contract on the
// section decoder: every crasher class the fuzzer surfaced (and its
// neighbors) must come back as an error, never a panic.
func TestDecodeGarbageReturnsErrors(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		// The first fuzz crasher: an entry whose length field is
		// smaller than the 4-byte CIE-id field, so the id read ran off
		// the body.
		{"length-smaller-than-id", []byte{3, 0, 0, 0, 0, 0, 0}},
		{"length-1", []byte{1, 0, 0, 0, 0}},
		{"length-past-section", []byte{0xF0, 0, 0, 0, 0, 0, 0, 0}},
		{"orphan-fde", []byte{8, 0, 0, 0, 0xF0, 0, 0, 0, 1, 2, 3, 4}},
		{"dwarf64", []byte{0xFF, 0xFF, 0xFF, 0xFF}},
		{"cie-empty-body", []byte{4, 0, 0, 0, 0, 0, 0, 0}},
		// CIE whose 'z' augmentation claims far more data than exists:
		// the ULEB (0x7FFFFFFFF) used to wrap negative through int and
		// slice out of range.
		{"cie-huge-auglen", append([]byte{16, 0, 0, 0},
			0, 0, 0, 0, 1, 'z', 'R', 0, 1, 0x78, 0x10, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)},
		{"cie-unterminated-aug", append([]byte{12, 0, 0, 0},
			0, 0, 0, 0, 1, 'z', 'R', 'z', 'z', 'z', 'z', 'z')},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode(tc.data, 0x500000); err == nil {
				t.Errorf("Decode accepted %x", tc.data)
			}
		})
	}
	// The empty section and a bare terminator stay valid (zero FDEs).
	for _, ok := range [][]byte{nil, {0, 0, 0, 0}} {
		if sec, err := Decode(ok, 0x500000); err != nil || len(sec.FDEs) != 0 {
			t.Errorf("Decode(%x) = %v, %v; want empty section", ok, sec, err)
		}
	}
}

// TestDecodeFDELongProgramAllocation pins that decoding an FDE
// validates its program without materializing it: a 1 MiB program
// whose first opcode is unsupported must be rejected without
// allocating anything near 64 bytes per program byte, and CFIs and the
// height evaluation read a short program from its kept bytes.
func TestDecodeFDELongProgramAllocation(t *testing.T) {
	cie := NewDefaultCIE()
	fdeBody := func(prog []byte) []byte {
		b := []byte{0, 0, 0, 0, 0x40, 0, 0, 0, 0} // PC begin rel, range, no augmentation
		return append(b, prog...)
	}
	long := fdeBody(make([]byte, 1<<20))
	long[9] = 0x1F // the first opcode: not one the codec knows
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeFDE(long, cie, 0x500000)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("decodeFDE = %v, want ErrUnsupported", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<19 {
		t.Fatalf("rejecting a 1 MiB program allocated %d bytes", got)
	}

	f, err := decodeFDE(fdeBody([]byte{0x41, 0x0E, 0x10}), cie, 0x500000) // advance 1; def_cfa_offset 16
	if err != nil {
		t.Fatal(err)
	}
	want := []CFI{{Op: CFAAdvanceLoc, Delta: 1}, {Op: CFADefCFAOffset, Offset: 16}}
	if got := f.CFIs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("CFIs() = %v, want %v", got, want)
	}
	ht := f.Heights()
	if h, ok := ht.HeightAt(f.PCBegin + 1); !ok || h != 8 {
		t.Fatalf("height after the push = %d, %v; want 8", h, ok)
	}
}

// TestDecodeFDEHugeAugLen drives the FDE-body bound directly: an
// augmentation length ULEB larger than the body must error instead of
// wrapping negative through int.
func TestDecodeFDEHugeAugLen(t *testing.T) {
	cie := NewDefaultCIE() // pcrel|sdata4: 8-byte pointer pair
	body := []byte{
		0, 0, 0, 0, 0x40, 0, 0, 0, // PC begin rel, range
		0xFF, 0xFF, 0xFF, 0xFF, 0x7F, // augmentation length: huge
	}
	if _, err := decodeFDE(body, cie, 0x500000); !errors.Is(err, ErrTruncated) {
		t.Errorf("decodeFDE = %v, want ErrTruncated", err)
	}
}

// TestDecodeCFIsHugeExprLen pins the expression-length bound in the
// CFI program decoder for both expression forms.
func TestDecodeCFIsHugeExprLen(t *testing.T) {
	for _, prog := range [][]byte{
		{rawDefCFAExpr, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
		{rawExpression, 6, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
	} {
		if _, err := decodeCFIs(prog, 1, -8); !errors.Is(err, ErrTruncated) {
			t.Errorf("decodeCFIs(%x) = %v, want ErrTruncated", prog, err)
		}
	}
}
