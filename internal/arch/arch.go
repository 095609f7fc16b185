// Package arch defines the ISA-neutral instruction model and the ISA
// backend interface the analysis pipeline is written against.
//
// The paper's approach (eh_frame-anchored function detection) is
// ISA-generic: FDEs, CFI programs, and the strategy ladder say nothing
// x86-specific. What the analyses actually consume of an instruction
// set is narrow and enumerable — decode with exact lengths, semantic
// classification (control-flow kind, targets, terminators, padding),
// register read/write sets for the §IV-E calling-convention rule,
// stack-pointer deltas, pointer-sized constant materialization, the
// first-argument gate used by §IV-C conditional non-return inference,
// and the bounded jump-table idioms of §IV-C. This package captures
// exactly that surface: the Inst model every backend decodes into, and
// the ISA interface every backend implements.
//
// Backends register themselves by ELF e_machine value in an init
// function (see Register); elfx.Image.ISA dispatches on the loaded
// binary's machine. Package arch imports nothing from the rest of the
// module, so backends and analyses never cycle.
package arch

import "fmt"

// Op is the semantic class of a decoded instruction. Instructions the
// analyses do not need in detail decode to OpOther with a correct length.
//
// The classes are shared across backends: an aarch64 BL decodes to
// OpCall, RET to OpRet, BRK to OpInt3, and so on — the walkers switch
// on these classes and never on encodings. Classes with no counterpart
// on some ISA are simply never produced by that backend's decoder.
type Op uint8

// Semantic opcode classes. Enum starts at one so the zero value is
// distinguishable from a real class.
const (
	OpInvalid Op = iota
	OpAdd
	OpSub
	OpAdc
	OpSbb
	OpAnd
	OpOr
	OpXor
	OpCmp
	OpTest
	OpMov
	OpMovsxd
	OpMovzx
	OpMovsx
	OpLea
	OpPush
	OpPop
	OpXchg
	OpInc
	OpDec
	OpNeg
	OpNot
	OpMul
	OpImul
	OpDiv
	OpIdiv
	OpShl
	OpShr
	OpSar
	OpRol
	OpRor
	OpCall    // direct near call, rel32 / BL
	OpCallInd // indirect call through register or memory / BLR
	OpJmp     // direct unconditional jump / B
	OpJmpInd  // indirect jump through register or memory / BR
	OpJcc     // conditional jump / B.cond, CBZ, TBZ
	OpRet
	OpLeave
	OpEnter
	OpNop
	OpInt3
	OpInt
	OpUd2
	OpHlt
	OpSyscall
	OpCpuid
	OpEndbr64 // CET/BTI landing pads
	OpSetcc
	OpCmovcc
	OpCwd // cdq/cqo family
	OpBt
	OpBsf
	OpBsr
	OpPopcnt
	OpBswap
	OpXadd
	OpCmpxchg
	OpMovStr // string moves and friends
	OpFpu    // x87 escape range
	OpSse    // SIMD/FP ranges, treated opaquely
	OpOther
)

var opNames = map[Op]string{
	OpInvalid: "invalid", OpAdd: "add", OpSub: "sub", OpAdc: "adc",
	OpSbb: "sbb", OpAnd: "and", OpOr: "or", OpXor: "xor", OpCmp: "cmp",
	OpTest: "test", OpMov: "mov", OpMovsxd: "movsxd", OpMovzx: "movzx",
	OpMovsx: "movsx", OpLea: "lea", OpPush: "push", OpPop: "pop",
	OpXchg: "xchg", OpInc: "inc", OpDec: "dec", OpNeg: "neg", OpNot: "not",
	OpMul: "mul", OpImul: "imul", OpDiv: "div", OpIdiv: "idiv",
	OpShl: "shl", OpShr: "shr", OpSar: "sar", OpRol: "rol", OpRor: "ror",
	OpCall: "call", OpCallInd: "call*", OpJmp: "jmp", OpJmpInd: "jmp*",
	OpJcc: "jcc", OpRet: "ret", OpLeave: "leave", OpEnter: "enter",
	OpNop: "nop", OpInt3: "int3", OpInt: "int", OpUd2: "ud2", OpHlt: "hlt",
	OpSyscall: "syscall", OpCpuid: "cpuid", OpEndbr64: "endbr64",
	OpSetcc: "setcc", OpCmovcc: "cmovcc", OpCwd: "cwd", OpBt: "bt",
	OpBsf: "bsf", OpBsr: "bsr", OpPopcnt: "popcnt", OpBswap: "bswap",
	OpXadd: "xadd", OpCmpxchg: "cmpxchg", OpMovStr: "movs", OpFpu: "fpu",
	OpSse: "sse", OpOther: "other",
}

// String returns a short mnemonic for the class.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Cond is a semantic condition code. The numbering follows the x86
// nibble encoding; backends whose hardware encodes conditions
// differently (aarch64) translate to these values at decode time, so
// the generic jump-table bound matcher can test CondA/CondAE on any
// ISA.
type Cond uint8

// Condition codes in x86 hardware encoding order.
const (
	CondO  Cond = 0x0
	CondNO Cond = 0x1
	CondB  Cond = 0x2
	CondAE Cond = 0x3
	CondE  Cond = 0x4
	CondNE Cond = 0x5
	CondBE Cond = 0x6
	CondA  Cond = 0x7
	CondS  Cond = 0x8
	CondNS Cond = 0x9
	CondP  Cond = 0xA
	CondNP Cond = 0xB
	CondL  Cond = 0xC
	CondGE Cond = 0xD
	CondLE Cond = 0xE
	CondG  Cond = 0xF
)

var condNames = [...]string{
	"o", "no", "b", "ae", "e", "ne", "be", "a",
	"s", "ns", "p", "np", "l", "ge", "le", "g",
}

// String returns the condition suffix ("e", "ne", ...).
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// Reg identifies a general-purpose register by its ISA-local number.
// On x64 the numbering matches the hardware encoding (RAX=0..R15=15,
// RIP=16 as a pseudo-register); on aarch64 it is X0=0..X30=30 with
// SP=31. Register numbers are meaningful only relative to an ISA.
type Reg uint8

// RegNone marks an absent base or index register.
const RegNone Reg = 0xFF

// regSetCap bounds the registers a RegSet can hold; Add ignores
// numbers at or beyond it (RegNone in particular).
const regSetCap = 64

var regNames = [...]string{
	"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15", "rip",
}

// String returns a diagnostic name. Registers 0..16 use the AMD64
// spellings (the dominant backend); other numbers print as reg(N).
// Backends with different naming provide their own helpers for
// human-facing output.
func (r Reg) String() string {
	if r == RegNone {
		return "none"
	}
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("reg(%d)", uint8(r))
}

// RegSet is a bitmask over up to 64 general-purpose registers.
type RegSet uint64

// Add returns s with r added; numbers outside the set capacity
// (RegNone in particular) are ignored.
func (s RegSet) Add(r Reg) RegSet {
	if r >= regSetCap {
		return s
	}
	return s | 1<<r
}

// Has reports whether r is in the set.
func (s RegSet) Has(r Reg) bool {
	return r < regSetCap && s&(1<<r) != 0
}

// Union returns the union of both sets.
func (s RegSet) Union(t RegSet) RegSet { return s | t }

// String lists the members for debugging.
func (s RegSet) String() string {
	out := ""
	for r := Reg(0); r < regSetCap; r++ {
		if s.Has(r) {
			if out != "" {
				out += ","
			}
			out += r.String()
		}
	}
	return "{" + out + "}"
}

// OperandKind distinguishes the three operand shapes the decoders model.
type OperandKind uint8

// Operand kinds.
const (
	KindNone OperandKind = iota
	KindReg
	KindImm
	KindMem
)

// MemRef is a decoded memory operand: [Base + Index*Scale + Disp], or
// [PC + Disp] when RIPRel is set (x64 RIP-relative addressing; aarch64
// literal loads use the same form with the PC-page semantics resolved
// into Disp by the decoder).
type MemRef struct {
	Base   Reg
	Index  Reg
	Scale  uint8 // 1, 2, 4 or 8
	Disp   int64
	RIPRel bool
}

// Operand is a single decoded operand.
type Operand struct {
	Kind OperandKind
	Reg  Reg
	Imm  int64
	Mem  MemRef
}

// RegOp constructs a register operand.
func RegOp(r Reg) Operand { return Operand{Kind: KindReg, Reg: r} }

// ImmOp constructs an immediate operand.
func ImmOp(v int64) Operand { return Operand{Kind: KindImm, Imm: v} }

// MemOp constructs a memory operand.
func MemOp(m MemRef) Operand { return Operand{Kind: KindMem, Mem: m} }

// Inst is a decoded instruction in the shared model.
type Inst struct {
	Addr uint64 // virtual address of the first byte
	Len  int    // total encoded length in bytes

	Op   Op
	Cond Cond // valid for OpJcc, OpSetcc, OpCmovcc

	// Args holds decoded operands, destination first, for classified
	// instructions. Unclassified (OpOther/OpSse/OpFpu) instructions
	// carry no operands.
	Args []Operand

	// Target is the absolute destination of a direct call/jmp/jcc.
	HasTarget bool
	Target    uint64

	// OpSize is the operand size in bytes (1, 2, 4 or 8).
	OpSize uint8

	// Enc is the raw encoding word for fixed-width ISAs (aarch64), so a
	// backend's semantic methods can re-extract fields the generic
	// operand model does not carry. Variable-length backends leave it 0.
	Enc uint32

	// Classified reports whether semantic information (Args,
	// reads/writes, stack delta) is trustworthy for this instruction.
	Classified bool
}

// IsBranch reports whether the instruction transfers control anywhere
// other than the next instruction (excluding calls, which return).
func (i *Inst) IsBranch() bool {
	switch i.Op {
	case OpJmp, OpJmpInd, OpJcc, OpRet:
		return true
	}
	return false
}

// IsCall reports whether the instruction is a direct or indirect call.
func (i *Inst) IsCall() bool { return i.Op == OpCall || i.Op == OpCallInd }

// Terminates reports whether fall-through past this instruction is
// impossible: unconditional jumps, returns, and traps.
func (i *Inst) Terminates() bool {
	switch i.Op {
	case OpJmp, OpJmpInd, OpRet, OpUd2, OpHlt:
		return true
	}
	return false
}

// IsPadding reports whether the instruction is inter-function padding:
// any NOP form or a trap-padding instruction (int3, BRK).
func (i *Inst) IsPadding() bool { return i.Op == OpNop || i.Op == OpInt3 }

// Next returns the address of the following instruction.
func (i *Inst) Next() uint64 { return i.Addr + uint64(i.Len) }

// String renders a compact disassembly-ish form for diagnostics.
func (i *Inst) String() string {
	s := fmt.Sprintf("%#x: %s", i.Addr, i.Op)
	if i.Op == OpJcc {
		s = fmt.Sprintf("%#x: j%s", i.Addr, i.Cond)
	}
	if i.HasTarget {
		s += fmt.Sprintf(" %#x", i.Target)
	}
	for n, a := range i.Args {
		sep := " "
		if n > 0 {
			sep = ", "
		}
		switch a.Kind {
		case KindReg:
			s += sep + a.Reg.String()
		case KindImm:
			s += sep + fmt.Sprintf("%#x", a.Imm)
		case KindMem:
			m := a.Mem
			if m.RIPRel {
				s += sep + fmt.Sprintf("[rip%+#x]", m.Disp)
			} else {
				s += sep + fmt.Sprintf("[%s+%s*%d%+#x]", m.Base, m.Index, m.Scale, m.Disp)
			}
		}
	}
	return s
}
