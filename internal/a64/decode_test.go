package a64

import (
	"encoding/binary"
	"testing"

	"fetch/internal/arch"
)

// word packs an instruction word little-endian.
func word(w uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], w)
	return b[:]
}

func decodeWord(t *testing.T, w uint32, addr uint64) arch.Inst {
	t.Helper()
	in, err := Decode(word(w), addr)
	if err != nil {
		t.Fatalf("Decode(%#08x): %v", w, err)
	}
	if in.Len != 4 || in.Enc != w {
		t.Fatalf("Decode(%#08x): Len=%d Enc=%#x", w, in.Len, in.Enc)
	}
	return in
}

func TestDecodeBranches(t *testing.T) {
	const base = 0x401000

	// bl +0x40
	in := decodeWord(t, 0x94000010, base)
	if in.Op != arch.OpCall || !in.HasTarget || in.Target != base+0x40 {
		t.Errorf("bl: %v", &in)
	}
	// b -4
	in = decodeWord(t, 0x17FFFFFF, base)
	if in.Op != arch.OpJmp || in.Target != base-4 {
		t.Errorf("b: %v", &in)
	}
	// b.hi +8 → CondA under the shared numbering
	in = decodeWord(t, 0x54000048, base)
	if in.Op != arch.OpJcc || in.Cond != arch.CondA || in.Target != base+8 {
		t.Errorf("b.hi: %v", &in)
	}
	// b.al is architecturally unconditional
	in = decodeWord(t, 0x5400004E, base)
	if in.Op != arch.OpJmp {
		t.Errorf("b.al: %v", &in)
	}
	// cbz x3, +16
	in = decodeWord(t, 0xB4000083, base)
	if in.Op != arch.OpJcc || in.Cond != arch.CondE || in.Target != base+16 ||
		len(in.Args) != 1 || in.Args[0].Reg != X3 {
		t.Errorf("cbz: %v", &in)
	}
	// cbnz x3, +16
	in = decodeWord(t, 0xB5000083, base)
	if in.Op != arch.OpJcc || in.Cond != arch.CondNE {
		t.Errorf("cbnz: %v", &in)
	}
	// br x2 / blr x2 / ret
	in = decodeWord(t, 0xD61F0040, base)
	if in.Op != arch.OpJmpInd || in.Args[0].Reg != X2 {
		t.Errorf("br: %v", &in)
	}
	in = decodeWord(t, 0xD63F0040, base)
	if in.Op != arch.OpCallInd {
		t.Errorf("blr: %v", &in)
	}
	in = decodeWord(t, 0xD65F03C0, base)
	if in.Op != arch.OpRet || !in.Terminates() {
		t.Errorf("ret: %v", &in)
	}
}

func TestDecodeAddressFormation(t *testing.T) {
	const base = 0x401004 // deliberately not page-aligned

	// adrp x1, next page: imm21 = 1 (immlo) → target (base&^0xFFF)+0x1000.
	in := decodeWord(t, 0xB0000001, base)
	if in.Op != arch.OpLea || len(in.Args) != 2 || in.Args[0].Reg != X1 {
		t.Fatalf("adrp: %v", &in)
	}
	want := (uint64(base) &^ 0xFFF) + 0x1000
	cs := in.Constants()
	if len(cs) != 1 || cs[0] != want {
		t.Errorf("adrp constants = %#x, want [%#x]", cs, want)
	}

	// adr x1, .+8
	in = decodeWord(t, 0x10000041, base)
	cs = in.Constants()
	if len(cs) != 1 || cs[0] != base+8 {
		t.Errorf("adr constants = %#x, want [%#x]", cs, base+8)
	}

	// ldr x5, .+0x20 (literal)
	in = decodeWord(t, 0x58000105, base)
	if in.Op != arch.OpMov || in.Args[1].Kind != arch.KindMem || !in.Args[1].Mem.RIPRel {
		t.Fatalf("ldr literal: %v", &in)
	}
	cs = in.Constants()
	if len(cs) != 1 || cs[0] != base+0x20 {
		t.Errorf("ldr literal constants = %#x, want [%#x]", cs, base+0x20)
	}

	// ldrsw x5, .+0x20
	in = decodeWord(t, 0x98000105, base)
	if in.Op != arch.OpMovsxd {
		t.Errorf("ldrsw literal: %v", &in)
	}
}

func TestDecodeArithmeticAliases(t *testing.T) {
	const base = 0x401000

	// cmp x4, #11 (subs xzr, x4, #11)
	in := decodeWord(t, 0xF1002C9F, base)
	if in.Op != arch.OpCmp || in.Args[0].Reg != X4 ||
		in.Args[1].Kind != arch.KindImm || in.Args[1].Imm != 11 {
		t.Errorf("cmp imm: %v", &in)
	}
	// mov x29, sp (add x29, sp, #0)
	in = decodeWord(t, 0x910003FD, base)
	if in.Op != arch.OpMov || in.Args[0].Reg != X29 || in.Args[1].Reg != SP {
		t.Errorf("mov fp, sp: %v", &in)
	}
	// sub sp, sp, #0x20
	in = decodeWord(t, 0xD10083FF, base)
	if in.Op != arch.OpSub || in.Args[0].Reg != SP || in.Args[2].Imm != 0x20 {
		t.Errorf("sub sp: %v", &in)
	}
	if d, known := StackDelta(&in); !known || d != -0x20 {
		t.Errorf("sub sp delta = %d,%v", d, known)
	}
	// tst x0, x0 (ands xzr, x0, x0) — the §IV-C gate test
	in = decodeWord(t, 0xEA00001F, base)
	if !arch.IsGateTest(&in, X0) {
		t.Errorf("tst x0, x0 not recognized as gate test: %v", &in)
	}
	// mov x1, x2 (orr x1, xzr, x2)
	in = decodeWord(t, 0xAA0203E1, base)
	if in.Op != arch.OpMov || in.Args[0].Reg != X1 || in.Args[1].Reg != X2 {
		t.Errorf("mov reg: %v", &in)
	}
	// add x3, x1, x2
	in = decodeWord(t, 0x8B020023, base)
	if in.Op != arch.OpAdd || in.Args[0].Reg != X3 || in.Args[1].Reg != X1 || in.Args[2].Reg != X2 {
		t.Errorf("add reg: %v", &in)
	}
}

func TestDecodeMovImmediates(t *testing.T) {
	const base = 0x401000

	// movz x0, #0 — the x0 zeroing idiom
	in := decodeWord(t, 0xD2800000, base)
	if in.Op != arch.OpMov || in.Args[0].Reg != X0 || in.Args[1].Imm != 0 {
		t.Fatalf("movz 0: %v", &in)
	}
	if Arch.GateEffect(&in) != arch.GateSetZero {
		t.Errorf("movz x0,#0 gate effect = %v", Arch.GateEffect(&in))
	}
	// movz x0, #7
	in = decodeWord(t, 0xD28000E0, base)
	if in.Args[1].Imm != 7 || Arch.GateEffect(&in) != arch.GateSetNonZero {
		t.Errorf("movz x0,#7: %v", &in)
	}
	// movz x0, #1, lsl #16
	in = decodeWord(t, 0xD2A00020, base)
	if in.Args[1].Imm != 1<<16 {
		t.Errorf("movz shifted imm = %#x", in.Args[1].Imm)
	}
	// movn x0, #0 → value ^0 = -1
	in = decodeWord(t, 0x92800000, base)
	if in.Op != arch.OpMov || in.Args[1].Imm != -1 {
		t.Errorf("movn: %v", &in)
	}
	// movk x0, #1, lsl #16: a partial insert must degrade the gate
	// state, not claim a definition.
	in = decodeWord(t, 0xF2A00020, base)
	if Arch.GateEffect(&in) != arch.GateSetUnknown {
		t.Errorf("movk gate effect = %v", Arch.GateEffect(&in))
	}
	if !Writes(&in).Has(X0) || !Reads(&in).Has(X0) {
		t.Errorf("movk reads=%v writes=%v", Reads(&in), Writes(&in))
	}
}

func TestDecodeStackShapes(t *testing.T) {
	const base = 0x401000

	// stp x29, x30, [sp, #-16]!
	in := decodeWord(t, 0xA9BF7BFD, base)
	if in.Op != arch.OpPush || in.Args[0].Reg != X29 || in.Args[1].Reg != X30 {
		t.Fatalf("stp pre: %v", &in)
	}
	if d, known := StackDelta(&in); !known || d != -16 {
		t.Errorf("stp delta = %d,%v", d, known)
	}
	if Reads(&in).Has(X29) || Reads(&in).Has(X30) {
		t.Errorf("stp save counted as a use: %v", Reads(&in))
	}
	// ldp x29, x30, [sp], #16
	in = decodeWord(t, 0xA8C17BFD, base)
	if in.Op != arch.OpPop {
		t.Fatalf("ldp post: %v", &in)
	}
	if d, known := StackDelta(&in); !known || d != 16 {
		t.Errorf("ldp delta = %d,%v", d, known)
	}
	w := Writes(&in)
	if !w.Has(X29) || !w.Has(X30) || !w.Has(SP) {
		t.Errorf("ldp writes = %v", w)
	}
	// str x30, [sp, #-16]!
	in = decodeWord(t, 0xF81F0FFE, base)
	if in.Op != arch.OpPush {
		t.Fatalf("str pre: %v", &in)
	}
	if d, known := StackDelta(&in); !known || d != -16 {
		t.Errorf("str pre delta = %d,%v", d, known)
	}
	// ldr x30, [sp], #16
	in = decodeWord(t, 0xF84107FE, base)
	if in.Op != arch.OpPop {
		t.Fatalf("ldr post: %v", &in)
	}
	if d, known := StackDelta(&in); !known || d != 16 {
		t.Errorf("ldr post delta = %d,%v", d, known)
	}
}

func TestDecodeLoadsStores(t *testing.T) {
	const base = 0x401000

	// ldr x0, [x1, #16]
	in := decodeWord(t, 0xF9400820, base)
	if in.Op != arch.OpMov || in.Args[0].Reg != X0 ||
		in.Args[1].Mem.Base != X1 || in.Args[1].Mem.Disp != 16 {
		t.Errorf("ldr imm: %v", &in)
	}
	// str x0, [x1, #16]: store form, memory destination first
	in = decodeWord(t, 0xF9000820, base)
	if in.Op != arch.OpMov || in.Args[0].Kind != arch.KindMem || in.Args[1].Reg != X0 {
		t.Errorf("str imm: %v", &in)
	}
	if !Reads(&in).Has(X0) || !Reads(&in).Has(X1) {
		t.Errorf("str reads = %v", Reads(&in))
	}
	// ldr x2, [x1, x3, lsl #3] — absolute jump-table load
	in = decodeWord(t, 0xF8637822, base)
	if in.Op != arch.OpMov || in.Args[1].Mem.Base != X1 ||
		in.Args[1].Mem.Index != X3 || in.Args[1].Mem.Scale != 8 {
		t.Errorf("ldr reg-offset: %v", &in)
	}
	// ldrsw x2, [x1, x3, lsl #2] — PIC jump-table load
	in = decodeWord(t, 0xB8A37822, base)
	if in.Op != arch.OpMovsxd || in.Args[1].Mem.Scale != 4 {
		t.Errorf("ldrsw reg-offset: %v", &in)
	}
}

func TestDecodePaddingAndTraps(t *testing.T) {
	in := decodeWord(t, 0xD503201F, 0)
	if in.Op != arch.OpNop || !in.IsPadding() {
		t.Errorf("nop: %v", &in)
	}
	in = decodeWord(t, 0xD503245F, 0) // bti c
	if in.Op != arch.OpEndbr64 {
		t.Errorf("bti: %v", &in)
	}
	in = decodeWord(t, 0xD4200000, 0) // brk #0
	if in.Op != arch.OpInt3 || !in.IsPadding() {
		t.Errorf("brk: %v", &in)
	}
	in = decodeWord(t, 0xD4400000, 0) // hlt #0
	if in.Op != arch.OpHlt {
		t.Errorf("hlt: %v", &in)
	}
	in = decodeWord(t, 0x00000000, 0) // udf #0
	if in.Op != arch.OpUd2 || !in.Terminates() {
		t.Errorf("udf: %v", &in)
	}
	in = decodeWord(t, 0xD4000001, 0) // svc #0
	if in.Op != arch.OpSyscall {
		t.Errorf("svc: %v", &in)
	}
}

func TestDecodeUnmodeledIsOpaque(t *testing.T) {
	// An FP instruction (fadd d0, d1, d2) must decode as an opaque
	// 4-byte OpOther, not an error: real aarch64 code is full of them.
	in := decodeWord(t, 0x1E622820, 0x1000)
	if in.Op != arch.OpOther || in.Classified {
		t.Errorf("fadd: %v (classified=%v)", &in, in.Classified)
	}
	if d, known := StackDelta(&in); !known || d != 0 {
		t.Errorf("opaque delta = %d,%v", d, known)
	}
	// Truncated windows are the only decode error.
	if _, err := Decode([]byte{0x1F, 0x20, 0x03}, 0); err == nil {
		t.Error("3-byte window decoded")
	}
}

func TestISASurface(t *testing.T) {
	if Arch.Name() != "a64" || Arch.Machine() != EMachine || EMachine != 183 {
		t.Errorf("identity: %s/%d", Arch.Name(), Arch.Machine())
	}
	if Arch.MaxInstLen() != 4 || Arch.InstAlign() != 4 {
		t.Errorf("geometry: %d/%d", Arch.MaxInstLen(), Arch.InstAlign())
	}
	if Arch.SPReg() != SP || Arch.FrameReg() != X29 || Arch.GateReg() != X0 {
		t.Errorf("registers: %v/%v/%v", Arch.SPReg(), Arch.FrameReg(), Arch.GateReg())
	}
	if Arch.CFISPReg() != 31 || Arch.CFIRAReg() != 30 || Arch.CFIEntryOffset() != 0 {
		t.Errorf("CFI: %d/%d/%d", Arch.CFISPReg(), Arch.CFIRAReg(), Arch.CFIEntryOffset())
	}
	if n := len(Arch.ArgRegs()); n != 8 {
		t.Errorf("arg regs: %d", n)
	}
	if args := Arch.ArgRegs(); args[0] != X0 || args[len(args)-1] != X7 {
		t.Error("arg reg boundary wrong")
	}
	if arch.ForMachine(EMachine) == nil {
		t.Error("a64 backend not registered")
	}
}

func TestCallConvSemantics(t *testing.T) {
	// bl: writes the caller-saved file and the link register.
	in := decodeWord(t, 0x94000001, 0x1000)
	w := Writes(&in)
	for r := X0; r <= X18; r++ {
		if !w.Has(r) {
			t.Errorf("bl does not write %v", r)
		}
	}
	if !w.Has(X30) {
		t.Error("bl does not write x30")
	}
	if w.Has(X19) || w.Has(SP) {
		t.Errorf("bl clobbers callee-saved: %v", w)
	}
	// ret reads the link register.
	in = decodeWord(t, 0xD65F03C0, 0x1000)
	if !Reads(&in).Has(X30) {
		t.Error("ret does not read x30")
	}
}
