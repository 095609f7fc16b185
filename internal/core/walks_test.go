package core

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"fetch/internal/ehframe"
	"fetch/internal/elfx"
)

// TestXrefWalksLiveOneFixedPoint pins how long a kept validation walk
// lives: one pointer-detection fixed point. The binary's FDE at b is a
// hand-written error (its entry reads rbx, so the convention sweep
// removes it) whose range covers the true function e. The function g,
// referenced only from .data, calls e. The first fixed point rejects g
// after walking it: its call lands inside b's range. Once the sweep has
// removed b, the second fixed point runs without b's range, and a
// fresh walk of g passes. A walk kept from the first fixed point would
// still carry the error and reject g again.
func TestXrefWalksLiveOneFixedPoint(t *testing.T) {
	const b, e, g, main, data, ehAddr = 0x401000, 0x401010, 0x401100, 0x401200, 0x403000, 0x402000
	text := bytes.Repeat([]byte{0xCC}, main+1-b)
	copy(text, []byte{0x48, 0x89, 0xD8, 0xC3}) // b: mov rax, rbx; ret
	text[e-b] = 0xC3                           // e: ret
	call := []byte{0xE8, 0, 0, 0, 0}           // g: call e; ret
	rel := int32(e) - int32(g+5)
	binary.LittleEndian.PutUint32(call[1:], uint32(rel))
	copy(text[g-b:], append(call, 0xC3))
	text[main-b] = 0xC3 // main: ret
	cie := ehframe.NewDefaultCIE()
	eh, err := (&ehframe.Section{Addr: ehAddr, FDEs: []*ehframe.FDE{
		{CIE: cie, PCBegin: b, PCRange: 0x20},
		{CIE: cie, PCBegin: main, PCRange: 1},
	}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	ptr := make([]byte, 8)
	binary.LittleEndian.PutUint64(ptr, g)
	img := &elfx.Image{Entry: main, Sections: []*elfx.Section{
		{Name: ".text", Addr: b, Data: text, Flags: elfx.FlagAlloc | elfx.FlagExec},
		{Name: ".eh_frame", Addr: ehAddr, Data: eh, Flags: elfx.FlagAlloc},
		{Name: ".data", Addr: data, Data: ptr, Flags: elfx.FlagAlloc | elfx.FlagWrite},
	}}

	rep, err := Analyze(img, FETCH)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rep.CFIErrRemoved, []uint64{b}) {
		t.Fatalf("convention sweep removed %#x, want only b", rep.CFIErrRemoved)
	}
	if !rep.Funcs[g] || !rep.Funcs[e] {
		t.Fatalf("functions %#x: want g (%#x) accepted after b's removal, and its callee e", rep.SortedFuncs(), uint64(g))
	}
	want, err := ScratchAnalyze(img, FETCH)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rep.SortedFuncs(), want.SortedFuncs()) {
		t.Fatalf("functions %#x, scratch pipeline %#x", rep.SortedFuncs(), want.SortedFuncs())
	}
}
