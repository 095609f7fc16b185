package disasm

import (
	"encoding/binary"
	"testing"

	"fetch/internal/elfx"
	"fetch/internal/x64"
)

// tableImage builds a one-function image with a jump table under full
// control of the test.
func tableImage(t *testing.T, bound int32, entries []uint64, tableInRodata bool) (*elfx.Image, uint64) {
	t.Helper()
	var a x64.Asm
	a.CmpRegImm(x64.RDI, bound)
	a.Jcc(x64.CondA, "def")
	a.JmpTableAbs(x64.RDI, "tbl")
	for k := range entries {
		a.Label("case" + string(rune('0'+k)))
		a.MovRegImm32(x64.RAX, int32(k))
		a.Ret()
	}
	a.Label("def")
	a.XorRegReg(x64.RAX)
	a.Ret()
	code, fixups, err := a.Finish()
	if err != nil {
		t.Fatalf("asm: %v", err)
	}

	const textBase = 0x401000
	table := make([]byte, 8*len(entries))
	// Case labels sit at known offsets; resolve them.
	for k := range entries {
		off, ok := a.LabelOff("case" + string(rune('0'+k)))
		if !ok {
			t.Fatal("label missing")
		}
		if entries[k] == 0 {
			entries[k] = textBase + uint64(off)
		}
		binary.LittleEndian.PutUint64(table[8*k:], entries[k])
	}
	var tableAddr uint64
	var sections []*elfx.Section
	if tableInRodata {
		tableAddr = 0x402000
		sections = []*elfx.Section{
			{Name: ".text", Addr: textBase, Data: code, Flags: elfx.FlagAlloc | elfx.FlagExec},
			{Name: ".rodata", Addr: tableAddr, Data: table, Flags: elfx.FlagAlloc},
		}
	} else {
		tableAddr = textBase + uint64(len(code))
		sections = []*elfx.Section{
			{Name: ".text", Addr: textBase, Data: append(code, table...), Flags: elfx.FlagAlloc | elfx.FlagExec},
		}
	}
	// Patch the FixAbs32 fixup for "tbl".
	for _, f := range fixups {
		if f.Sym == "tbl" && f.Kind == x64.FixAbs32 {
			binary.LittleEndian.PutUint32(sections[0].Data[f.Off:], uint32(tableAddr))
		}
	}
	return &elfx.Image{Sections: sections}, textBase
}

func TestJumpTableResolvedBounded(t *testing.T) {
	img, start := tableImage(t, 2, []uint64{0, 0, 0}, true)
	res := Recursive(img, []uint64{start}, Options{ResolveJumpTables: true})
	if len(res.JTTargets) != 1 {
		t.Fatalf("resolved %d tables, want 1", len(res.JTTargets))
	}
	for _, targets := range res.JTTargets {
		if len(targets) != 3 {
			t.Fatalf("resolved %d entries, want 3 (bound+1)", len(targets))
		}
	}
	if len(res.TableBases) != 1 || !res.TableBases[0x402000] {
		t.Fatalf("TableBases = %v", res.TableBases)
	}
	// The bounded walk of delta replay records the same base.
	text, _ := img.Section(".text")
	lw := NewSession(img, Options{ResolveJumpTables: true}).
		WalkLocal(FuncRange{Start: start, End: text.End()}, []uint64{start}, nil, nil)
	if got := lw.Facts().TableBases; len(got) != 1 || got[0] != 0x402000 {
		t.Fatalf("bounded walk TableBases = %#x, want [0x402000]", got)
	}
}

func TestJumpTableRejectedWithoutBound(t *testing.T) {
	// No cmp/ja guard: the conservative resolver must refuse.
	var a x64.Asm
	a.JmpTableAbs(x64.RDI, "tbl")
	code, fixups, _ := a.Finish()
	binary.LittleEndian.PutUint32(code[fixups[0].Off:], 0x402000)
	img := &elfx.Image{Sections: []*elfx.Section{
		{Name: ".text", Addr: 0x401000, Data: code, Flags: elfx.FlagAlloc | elfx.FlagExec},
		{Name: ".rodata", Addr: 0x402000, Data: make([]byte, 64), Flags: elfx.FlagAlloc},
	}}
	res := Recursive(img, []uint64{0x401000}, Options{ResolveJumpTables: true})
	if len(res.JTTargets) != 0 {
		t.Fatal("unbounded table resolved")
	}
}

func TestJumpTableRejectedOnBadEntry(t *testing.T) {
	// One entry points outside the executable sections: the whole
	// table must be rejected.
	img, start := tableImage(t, 2, []uint64{0, 0x999999, 0}, true)
	res := Recursive(img, []uint64{start}, Options{ResolveJumpTables: true})
	if len(res.JTTargets) != 0 {
		t.Fatal("table with non-exec entry resolved")
	}
}

func TestJumpTableInTextResolves(t *testing.T) {
	// The safe resolver reads tables regardless of section (the
	// degraded baselines are the ones that refuse .text tables).
	img, start := tableImage(t, 1, []uint64{0, 0}, false)
	res := Recursive(img, []uint64{start}, Options{ResolveJumpTables: true})
	if len(res.JTTargets) != 1 {
		t.Fatal("in-text table not resolved by the safe engine")
	}
}

func TestJumpTableDisabled(t *testing.T) {
	img, start := tableImage(t, 2, []uint64{0, 0, 0}, true)
	res := Recursive(img, []uint64{start}, Options{})
	if len(res.JTTargets) != 0 {
		t.Fatal("tables resolved with the option off")
	}
}

func TestPICJumpTableResolution(t *testing.T) {
	// Build the PIC idiom by hand: cmp/ja + lea/movsxd/add/jmp with a
	// table of int32 table-relative offsets in .rodata.
	var a x64.Asm
	a.CmpRegImm(x64.RDI, 2)
	a.Jcc(x64.CondA, "def")
	a.LeaRIP(x64.R11, "tbl", 0)
	a.MovsxdRegMemIdx(x64.RAX, x64.R11, x64.RDI)
	a.AddRegReg(x64.RAX, x64.R11)
	a.JmpReg(x64.RAX)
	for k := 0; k < 3; k++ {
		a.Label("case" + string(rune('0'+k)))
		a.MovRegImm32(x64.RAX, int32(k))
		a.Ret()
	}
	a.Label("def")
	a.Ret()
	code, fixups, err := a.Finish()
	if err != nil {
		t.Fatalf("asm: %v", err)
	}
	const textBase, tblAddr = 0x401000, 0x402000
	for _, f := range fixups {
		if f.Sym == "tbl" && f.Kind == x64.FixRel32 {
			rel := int64(tblAddr) - int64(textBase+f.End)
			binary.LittleEndian.PutUint32(code[f.Off:], uint32(int32(rel)))
		}
	}
	table := make([]byte, 12)
	for k := 0; k < 3; k++ {
		off, _ := a.LabelOff("case" + string(rune('0'+k)))
		rel := int64(textBase+off) - int64(tblAddr)
		binary.LittleEndian.PutUint32(table[4*k:], uint32(int32(rel)))
	}
	img := &elfx.Image{Sections: []*elfx.Section{
		{Name: ".text", Addr: textBase, Data: code, Flags: elfx.FlagAlloc | elfx.FlagExec},
		{Name: ".rodata", Addr: tblAddr, Data: table, Flags: elfx.FlagAlloc},
	}}
	res := Recursive(img, []uint64{textBase}, Options{ResolveJumpTables: true})
	if len(res.JTTargets) != 1 {
		t.Fatalf("PIC table not resolved (JTTargets=%d)", len(res.JTTargets))
	}
	for _, targets := range res.JTTargets {
		if len(targets) != 3 {
			t.Fatalf("resolved %d targets, want 3", len(targets))
		}
	}
	if !res.TableBases[tblAddr] {
		t.Fatal("PIC table base not recorded")
	}
}
