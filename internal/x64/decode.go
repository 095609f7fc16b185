package x64

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Decode errors. ErrTruncated means the byte window ended mid-instruction;
// ErrInvalidOpcode means the bytes cannot start a valid 64-bit instruction.
var (
	ErrTruncated     = errors.New("x64: truncated instruction")
	ErrInvalidOpcode = errors.New("x64: invalid opcode")
)

const maxInstLen = 15

// prefixState accumulates decoded prefixes.
type prefixState struct {
	rex      byte // 0 when absent
	opSize16 bool // 66
	addr32   bool // 67
	rep      byte // F2 or F3, 0 when absent
	lock     bool
	seg      byte // segment override byte, 0 when absent
}

func (p *prefixState) rexW() bool { return p.rex&0x08 != 0 }
func (p *prefixState) rexR() byte { return (p.rex >> 2) & 1 }
func (p *prefixState) rexX() byte { return (p.rex >> 1) & 1 }
func (p *prefixState) rexB() byte { return p.rex & 1 }

// Decode decodes a single instruction starting at b[0], which is mapped
// at virtual address addr. At most 15 bytes are consumed.
func Decode(b []byte, addr uint64) (Inst, error) {
	var pfx prefixState
	i := 0

	// Consume legacy and REX prefixes. A REX prefix is only effective
	// when it is the last prefix before the opcode, matching hardware.
	for {
		if i >= len(b) || i >= maxInstLen {
			return Inst{}, ErrTruncated
		}
		c := b[i]
		switch c {
		case 0x66:
			pfx.opSize16 = true
			pfx.rex = 0
		case 0x67:
			pfx.addr32 = true
			pfx.rex = 0
		case 0xF0:
			pfx.lock = true
			pfx.rex = 0
		case 0xF2, 0xF3:
			pfx.rep = c
			pfx.rex = 0
		case 0x26, 0x2E, 0x36, 0x3E, 0x64, 0x65:
			pfx.seg = c
			pfx.rex = 0
		default:
			if c&0xF0 == 0x40 { // REX
				pfx.rex = c
			} else {
				goto prefixesDone
			}
		}
		i++
	}
prefixesDone:

	if i >= len(b) {
		return Inst{}, ErrTruncated
	}
	opc := b[i]
	i++

	inst := Inst{Addr: addr, OpSize: 4}
	if pfx.opSize16 {
		inst.OpSize = 2
	}
	if pfx.rexW() {
		inst.OpSize = 8
	}

	var info opInfo
	var opByte2 byte
	twoByteMap := false
	threeByteMap := byte(0)

	if opc == 0x0F {
		if i >= len(b) {
			return Inst{}, ErrTruncated
		}
		opByte2 = b[i]
		i++
		switch opByte2 {
		case 0x38, 0x3A:
			threeByteMap = opByte2
			if i >= len(b) {
				return Inst{}, ErrTruncated
			}
			opByte2 = b[i] // the third opcode byte
			i++
			info = entM
			if threeByteMap == 0x3A {
				info = entMIb
			}
		default:
			twoByteMap = true
			info = twoByte[opByte2]
		}
	} else {
		switch opc {
		case 0xC4, 0xC5, 0x62:
			// VEX/EVEX encodings are not produced by the code this
			// library analyzes or generates; reject them so the
			// conservative disassembler treats them as data.
			return Inst{}, ErrInvalidOpcode
		}
		info = oneByte[opc]
	}
	if !info.valid {
		return Inst{}, ErrInvalidOpcode
	}

	// ModRM, SIB, displacement.
	var (
		hasModRM      bool
		modrm         byte
		mem           MemRef
		memIsReg      bool // mod == 11
		rmReg, regFld Reg
	)
	if info.modrm {
		hasModRM = true
		if i >= len(b) {
			return Inst{}, ErrTruncated
		}
		modrm = b[i]
		i++
		mod := modrm >> 6
		reg := (modrm >> 3) & 7
		rm := modrm & 7
		regFld = Reg(reg | pfx.rexR()<<3)
		if mod == 3 {
			memIsReg = true
			rmReg = Reg(rm | pfx.rexB()<<3)
		} else {
			mem = MemRef{Base: RegNone, Index: RegNone, Scale: 1}
			if rm == 4 { // SIB
				if i >= len(b) {
					return Inst{}, ErrTruncated
				}
				sib := b[i]
				i++
				scale := sib >> 6
				idx := (sib >> 3) & 7
				base := sib & 7
				mem.Scale = 1 << scale
				index := Reg(idx | pfx.rexX()<<3)
				if index != RSP { // index 100b with REX.X=0 means none
					mem.Index = index
				}
				if base == 5 && mod == 0 {
					// disp32 with no base
					if i+4 > len(b) {
						return Inst{}, ErrTruncated
					}
					mem.Disp = int64(int32(binary.LittleEndian.Uint32(b[i:])))
					i += 4
				} else {
					mem.Base = Reg(base | pfx.rexB()<<3)
				}
			} else if rm == 5 && mod == 0 {
				// RIP-relative disp32
				if i+4 > len(b) {
					return Inst{}, ErrTruncated
				}
				mem.RIPRel = true
				mem.Base = RIP
				mem.Disp = int64(int32(binary.LittleEndian.Uint32(b[i:])))
				i += 4
			} else {
				mem.Base = Reg(rm | pfx.rexB()<<3)
			}
			switch mod {
			case 1:
				if i >= len(b) {
					return Inst{}, ErrTruncated
				}
				mem.Disp += int64(int8(b[i]))
				i++
			case 2:
				if i+4 > len(b) {
					return Inst{}, ErrTruncated
				}
				mem.Disp += int64(int32(binary.LittleEndian.Uint32(b[i:])))
				i += 4
			}
		}
	}

	// Group 3 (F6/F7) TEST forms carry an immediate.
	immCode := info.imm
	if !twoByteMap && threeByteMap == 0 {
		if opc == 0xF6 && hasModRM && (modrm>>3)&7 <= 1 {
			immCode = immB
		}
		if opc == 0xF7 && hasModRM && (modrm>>3)&7 <= 1 {
			immCode = immZ
		}
		// Undefined group encodings raise #UD: group 5 (FF) /7, group
		// 4 (FE) /2-/7, group 1A (8F) /1-/7, and group 11 (C6/C7)
		// /1-/7 but for XABORT (C6 F8) and XBEGIN (C7 F8).
		if hasModRM {
			switch reg := (modrm >> 3) & 7; {
			case opc == 0xFF && reg == 7,
				opc == 0xFE && reg >= 2,
				opc == 0x8F && reg != 0,
				(opc == 0xC6 || opc == 0xC7) && reg != 0 && modrm != 0xF8:
				return Inst{}, ErrInvalidOpcode
			}
		}
	}

	// Immediate.
	var (
		immVal   int64
		hasImm   bool
		immBytes int
	)
	switch immCode {
	case immNone:
	case immB, immJb:
		immBytes = 1
	case immW:
		immBytes = 2
	case immZ, immJz:
		immBytes = 4
		if pfx.opSize16 {
			immBytes = 2
		}
	case immV:
		immBytes = 4
		if pfx.rexW() {
			immBytes = 8
		} else if pfx.opSize16 {
			immBytes = 2
		}
	case immWB:
		immBytes = 3
	case immMoffs:
		immBytes = 8
		if pfx.addr32 {
			immBytes = 4
		}
	}
	if immBytes > 0 {
		if i+immBytes > len(b) {
			return Inst{}, ErrTruncated
		}
		switch immBytes {
		case 1:
			immVal = int64(int8(b[i]))
		case 2:
			immVal = int64(int16(binary.LittleEndian.Uint16(b[i:])))
		case 3: // ENTER: imm16 then imm8; keep the frame size
			immVal = int64(binary.LittleEndian.Uint16(b[i:]))
		case 4:
			immVal = int64(int32(binary.LittleEndian.Uint32(b[i:])))
		case 8:
			immVal = int64(binary.LittleEndian.Uint64(b[i:]))
		}
		hasImm = true
		i += immBytes
	}
	_ = hasImm

	if i > maxInstLen {
		return Inst{}, ErrInvalidOpcode
	}
	inst.Len = i

	classify(&inst, &pfx, opc, opByte2, twoByteMap, threeByteMap != 0,
		hasModRM, modrm, memIsReg, rmReg, regFld, mem, immCode, immVal)
	return inst, nil
}

// classify fills in the semantic fields of inst.
func classify(inst *Inst, pfx *prefixState, opc, op2 byte, twoByteMap, threeByteMap bool,
	hasModRM bool, modrm byte, memIsReg bool, rmReg, regFld Reg, mem MemRef,
	immCode uint8, immVal int64) {

	// Helper building the r/m operand.
	rmOperand := func() Operand {
		if memIsReg {
			return RegOp(rmReg)
		}
		return MemOp(mem)
	}
	setArgsMR := func(op Op) { // op r/m, r
		inst.Op = op
		inst.Args = []Operand{rmOperand(), RegOp(regFld)}
		inst.Classified = true
	}
	setArgsRM := func(op Op) { // op r, r/m
		inst.Op = op
		inst.Args = []Operand{RegOp(regFld), rmOperand()}
		inst.Classified = true
	}
	setArgsMI := func(op Op) { // op r/m, imm
		inst.Op = op
		inst.Args = []Operand{rmOperand(), ImmOp(immVal)}
		inst.Classified = true
	}
	relTarget := func() {
		inst.HasTarget = true
		inst.Target = inst.Addr + uint64(inst.Len) + uint64(immVal)
	}

	if threeByteMap {
		inst.Op = OpSse
		return
	}

	if twoByteMap {
		switch {
		case op2 == 0x05:
			inst.Op = OpSyscall
			inst.Classified = true
		case op2 == 0x0B:
			inst.Op = OpUd2
			inst.Classified = true
		case op2 == 0xA2:
			inst.Op = OpCpuid
			inst.Classified = true
		case op2 >= 0x18 && op2 <= 0x1F:
			// Hint NOP space. F3 0F 1E FA is ENDBR64.
			if pfx.rep == 0xF3 && op2 == 0x1E && modrm == 0xFA {
				inst.Op = OpEndbr64
			} else {
				inst.Op = OpNop
			}
			inst.Classified = true
		case op2 >= 0x40 && op2 <= 0x4F:
			inst.Cond = Cond(op2 & 0x0F)
			setArgsRM(OpCmovcc)
		case op2 >= 0x80 && op2 <= 0x8F:
			inst.Op = OpJcc
			inst.Cond = Cond(op2 & 0x0F)
			inst.Classified = true
			relTarget()
		case op2 >= 0x90 && op2 <= 0x9F:
			inst.Op = OpSetcc
			inst.Cond = Cond(op2 & 0x0F)
			inst.Args = []Operand{rmOperand()}
			inst.OpSize = 1
			inst.Classified = true
		case op2 == 0xAF:
			setArgsRM(OpImul)
		case op2 == 0xB6 || op2 == 0xB7:
			setArgsRM(OpMovzx)
		case op2 == 0xB8 && pfx.rep == 0xF3:
			setArgsRM(OpPopcnt)
		case op2 == 0xBC:
			setArgsRM(OpBsf)
		case op2 == 0xBD:
			setArgsRM(OpBsr)
		case op2 == 0xBE || op2 == 0xBF:
			setArgsRM(OpMovsx)
		case op2 >= 0xC8 && op2 <= 0xCF:
			inst.Op = OpBswap
			inst.Args = []Operand{RegOp(Reg(op2&7 | pfx.rexB()<<3))}
			inst.Classified = true
		case op2 == 0xC0 || op2 == 0xC1:
			setArgsMR(OpXadd)
		case op2 == 0xB0 || op2 == 0xB1:
			setArgsMR(OpCmpxchg)
		default:
			inst.Op = OpSse
		}
		return
	}

	// One-byte map.
	switch {
	case opc < 0x40 && (opc&7) <= 5 && oneByte[opc].valid:
		op := [8]Op{OpAdd, OpOr, OpAdc, OpSbb, OpAnd, OpSub, OpXor, OpCmp}[opc>>3]
		switch opc & 7 {
		case 0, 1:
			if opc&7 == 0 {
				inst.OpSize = 1
			}
			setArgsMR(op)
		case 2, 3:
			if opc&7 == 2 {
				inst.OpSize = 1
			}
			setArgsRM(op)
		case 4:
			inst.OpSize = 1
			inst.Op = op
			inst.Args = []Operand{RegOp(RAX), ImmOp(immVal)}
			inst.Classified = true
		case 5:
			inst.Op = op
			inst.Args = []Operand{RegOp(RAX), ImmOp(immVal)}
			inst.Classified = true
		}
	case opc == 0x63:
		setArgsRM(OpMovsxd)
	case opc >= 0x50 && opc <= 0x57:
		inst.Op = OpPush
		inst.Args = []Operand{RegOp(Reg(opc&7 | pfx.rexB()<<3))}
		inst.OpSize = 8
		inst.Classified = true
	case opc >= 0x58 && opc <= 0x5F:
		inst.Op = OpPop
		inst.Args = []Operand{RegOp(Reg(opc&7 | pfx.rexB()<<3))}
		inst.OpSize = 8
		inst.Classified = true
	case opc == 0x68 || opc == 0x6A:
		inst.Op = OpPush
		inst.Args = []Operand{ImmOp(immVal)}
		inst.OpSize = 8
		inst.Classified = true
	case opc == 0x69 || opc == 0x6B:
		inst.Op = OpImul
		inst.Args = []Operand{RegOp(regFld), rmOperand(), ImmOp(immVal)}
		inst.Classified = true
	case opc >= 0x70 && opc <= 0x7F:
		inst.Op = OpJcc
		inst.Cond = Cond(opc & 0x0F)
		inst.Classified = true
		relTarget()
	case opc == 0x80 || opc == 0x81 || opc == 0x83:
		op := [8]Op{OpAdd, OpOr, OpAdc, OpSbb, OpAnd, OpSub, OpXor, OpCmp}[(modrm>>3)&7]
		if opc == 0x80 {
			inst.OpSize = 1
		}
		setArgsMI(op)
	case opc == 0x84 || opc == 0x85:
		if opc == 0x84 {
			inst.OpSize = 1
		}
		setArgsMR(OpTest)
	case opc == 0x86 || opc == 0x87:
		setArgsMR(OpXchg)
	case opc == 0x88 || opc == 0x89:
		if opc == 0x88 {
			inst.OpSize = 1
		}
		setArgsMR(OpMov)
	case opc == 0x8A || opc == 0x8B:
		if opc == 0x8A {
			inst.OpSize = 1
		}
		setArgsRM(OpMov)
	case opc == 0x8D:
		setArgsRM(OpLea)
	case opc == 0x8F:
		inst.Op = OpPop
		inst.Args = []Operand{rmOperand()}
		inst.OpSize = 8
		inst.Classified = true
	case opc == 0x90 && (pfx.rep == 0xF3 || pfx.rexB() == 0):
		inst.Op = OpNop // NOP, PAUSE
		inst.Classified = true
	case opc >= 0x90 && opc <= 0x97: // 0x90 with REX.B is xchg r8, rax
		inst.Op = OpXchg
		inst.Args = []Operand{RegOp(RAX), RegOp(Reg(opc&7 | pfx.rexB()<<3))}
		inst.Classified = true
	case opc == 0x98 || opc == 0x99:
		// cbw/cwde/cdqe sign-extends within rax, cwd/cdq/cqo into rdx.
		inst.Op = OpCwd
		inst.Args = []Operand{RegOp([2]Reg{RAX, RDX}[opc-0x98]), RegOp(RAX)}
		inst.Classified = true
	case opc >= 0xA4 && opc <= 0xA7 || opc >= 0xAA && opc <= 0xAF:
		inst.Op = OpMovStr
		inst.Classified = true
	case opc == 0xA8 || opc == 0xA9:
		inst.Op = OpTest
		inst.Args = []Operand{RegOp(RAX), ImmOp(immVal)}
		inst.Classified = true
	case opc >= 0xB0 && opc <= 0xB7:
		inst.Op = OpMov
		inst.OpSize = 1
		inst.Args = []Operand{RegOp(Reg(opc&7 | pfx.rexB()<<3)), ImmOp(immVal)}
		inst.Classified = true
	case opc >= 0xB8 && opc <= 0xBF:
		inst.Op = OpMov
		inst.Args = []Operand{RegOp(Reg(opc&7 | pfx.rexB()<<3)), ImmOp(immVal)}
		inst.Classified = true
	case opc == 0xC0 || opc == 0xC1 || (opc >= 0xD0 && opc <= 0xD3):
		op := [8]Op{OpRol, OpRor, OpRol, OpRor, OpShl, OpShr, OpShl, OpSar}[(modrm>>3)&7]
		switch {
		case opc == 0xC0 || opc == 0xC1:
			setArgsMI(op)
		case opc == 0xD2 || opc == 0xD3: // by cl
			inst.Op = op
			inst.Args = []Operand{rmOperand(), RegOp(RCX)}
			inst.Classified = true
		default:
			inst.Op = op
			inst.Args = []Operand{rmOperand()}
			inst.Classified = true
		}
	case opc == 0xC2 || opc == 0xC3 || opc == 0xCA || opc == 0xCB:
		inst.Op = OpRet
		if opc == 0xC2 || opc == 0xCA {
			inst.Args = []Operand{ImmOp(immVal)}
		}
		inst.Classified = true
	case opc == 0xC6 || opc == 0xC7:
		if opc == 0xC6 {
			inst.OpSize = 1
		}
		setArgsMI(OpMov)
	case opc == 0xC8:
		inst.Op = OpEnter
		inst.Args = []Operand{ImmOp(immVal)}
		inst.Classified = true
	case opc == 0xC9:
		inst.Op = OpLeave
		inst.Classified = true
	case opc == 0xCC:
		inst.Op = OpInt3
		inst.Classified = true
	case opc == 0xCD:
		inst.Op = OpInt
		inst.Args = []Operand{ImmOp(immVal)}
		inst.Classified = true
	case opc == 0xE8:
		inst.Op = OpCall
		inst.Classified = true
		relTarget()
	case opc == 0xE9 || opc == 0xEB:
		inst.Op = OpJmp
		inst.Classified = true
		relTarget()
	case opc == 0xF4:
		inst.Op = OpHlt
		inst.Classified = true
	case opc == 0xF6 || opc == 0xF7:
		op := [8]Op{OpTest, OpTest, OpNot, OpNeg, OpMul, OpImul, OpDiv, OpIdiv}[(modrm>>3)&7]
		if opc == 0xF6 {
			inst.OpSize = 1
		}
		if op == OpTest {
			setArgsMI(op)
		} else {
			inst.Op = op
			inst.Args = []Operand{rmOperand()}
			inst.Classified = true
		}
	case opc == 0xFE:
		op := OpInc
		if (modrm>>3)&7 == 1 {
			op = OpDec
		}
		inst.OpSize = 1
		inst.Op = op
		inst.Args = []Operand{rmOperand()}
		inst.Classified = true
	case opc == 0xFF:
		switch (modrm >> 3) & 7 {
		case 0:
			inst.Op = OpInc
			inst.Args = []Operand{rmOperand()}
			inst.Classified = true
		case 1:
			inst.Op = OpDec
			inst.Args = []Operand{rmOperand()}
			inst.Classified = true
		case 2, 3:
			inst.Op = OpCallInd
			inst.Args = []Operand{rmOperand()}
			inst.Classified = true
		case 4, 5:
			inst.Op = OpJmpInd
			inst.Args = []Operand{rmOperand()}
			inst.Classified = true
		case 6:
			inst.Op = OpPush
			inst.Args = []Operand{rmOperand()}
			inst.OpSize = 8
			inst.Classified = true
		default:
			inst.Op = OpOther
		}
	case opc >= 0xD8 && opc <= 0xDF:
		inst.Op = OpFpu
	default:
		inst.Op = OpOther
	}
}

// DecodeAll decodes consecutive instructions until the window is
// exhausted or an error occurs; used by tests and linear sweeps.
func DecodeAll(b []byte, addr uint64) ([]Inst, error) {
	var out []Inst
	off := 0
	for off < len(b) {
		in, err := Decode(b[off:], addr+uint64(off))
		if err != nil {
			return out, fmt.Errorf("at %#x: %w", addr+uint64(off), err)
		}
		out = append(out, in)
		off += in.Len
	}
	return out, nil
}
