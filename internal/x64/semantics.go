package x64

// This file derives dataflow facts from classified instructions:
// register read/write sets (for calling-convention validation) and stack
// pointer deltas (for stack-height analysis). These are the x86-64 half
// of the arch.ISA dataflow surface; the ISA-generic facts (constant
// operands, indirect memory operands) live on arch.Inst itself.

// regsOfMem returns the registers a memory operand reads. RIP is a
// pseudo-register, never part of the GPR file, so RIP-relative operands
// contribute no register read.
func regsOfMem(m MemRef) RegSet {
	var s RegSet
	if m.Base != RIP {
		s = s.Add(m.Base)
	}
	if m.Index != RIP {
		s = s.Add(m.Index)
	}
	return s
}

// regs returns the set of rs.
func regs(rs ...Reg) RegSet {
	var s RegSet
	for _, r := range rs {
		s = s.Add(r)
	}
	return s
}

// implicitRegs are the registers an instruction class reads and writes
// beyond its operands: the stack pointer of the stack instructions, the
// fixed registers of syscall, cpuid and cmpxchg, the rsi, rdi and rcx
// that every string instruction is taken to read and write (its
// accumulator is not modeled), and the caller-saved set a call
// clobbers. A call also defines rax on return; modeling the set as
// written makes later reads of caller-saved registers legitimate, which
// is conservative in the right direction for the §IV-E validation.
var implicitRegs = [OpOther + 1]struct{ reads, writes RegSet }{
	OpPush:    {regs(RSP), regs(RSP)},
	OpPop:     {regs(RSP), regs(RSP)},
	OpRet:     {regs(RSP), regs(RSP)},
	OpEnter:   {regs(RSP), regs(RSP, RBP)},
	OpLeave:   {regs(RBP), regs(RSP, RBP)},
	OpCall:    {0, regs(RAX, RCX, RDX, RSI, RDI, R8, R9, R10, R11)},
	OpCallInd: {0, regs(RAX, RCX, RDX, RSI, RDI, R8, R9, R10, R11)},
	OpSyscall: {regs(RAX), regs(RAX, RCX, R11)},
	OpCpuid:   {regs(RAX, RCX), regs(RAX, RBX, RCX, RDX)},
	OpCmpxchg: {regs(RAX), regs(RAX)},
	OpMovStr:  {regs(RSI, RDI, RCX), regs(RSI, RDI, RCX)},
}

// Reads returns the set of general-purpose registers the instruction
// reads. For unclassified instructions it returns the empty set; callers
// that need soundness must check Classified.
//
// Two deliberate modeling choices mirror the paper's calling-convention
// rule (§IV-E): a PUSH of a register is treated as a *save*, not a use,
// and reads through RSP/RBP-based memory operands still count the base
// register as read.
func Reads(i *Inst) RegSet {
	if !i.Classified {
		return 0
	}
	s := implicitRegs[i.Op].reads
	addOp := func(o Operand, includeReg bool) {
		switch o.Kind {
		case KindReg:
			if includeReg {
				s = s.Add(o.Reg)
			}
		case KindMem:
			s = s.Union(regsOfMem(o.Mem))
		}
	}
	switch i.Op {
	case OpMov, OpMovsxd, OpMovzx, OpMovsx, OpCwd, OpBsf, OpBsr, OpPopcnt:
		// dst written only; src read.
		if len(i.Args) == 2 {
			addOp(i.Args[0], false)
			addOp(i.Args[1], true)
		}
	case OpLea:
		if len(i.Args) == 2 {
			// LEA reads only the address components.
			addOp(i.Args[1], false)
		}
	case OpXor, OpSub, OpSbb, OpAdd, OpAdc, OpAnd, OpOr, OpCmp, OpTest,
		OpXchg, OpShl, OpShr, OpSar, OpRol, OpRor, OpXadd, OpCmpxchg, OpBt, OpCmovcc:
		// xor r,r and sub/sbb r,r zero the register: not a true read.
		// cmov keeps its destination when the condition fails.
		if (i.Op == OpXor || i.Op == OpSub || i.Op == OpSbb) && len(i.Args) == 2 &&
			i.Args[0].Kind == KindReg && i.Args[1].Kind == KindReg && i.Args[0].Reg == i.Args[1].Reg {
			break
		}
		for _, a := range i.Args {
			addOp(a, true)
		}
	case OpPush, OpPop:
		// Saving a register is not a use under the paper's rule, but
		// pushing or popping a memory operand reads its address
		// registers.
		if len(i.Args) == 1 {
			addOp(i.Args[0], false)
		}
	case OpInc, OpDec, OpNeg, OpNot, OpSetcc, OpBswap, OpCallInd, OpJmpInd:
		if len(i.Args) == 1 {
			addOp(i.Args[0], i.Op != OpSetcc)
		}
	case OpMul, OpImul, OpDiv, OpIdiv:
		if len(i.Args) >= 2 {
			// imul r, r/m reads both; imul r, r/m, imm only r/m.
			addOp(i.Args[0], len(i.Args) == 2)
			addOp(i.Args[1], true)
			break
		}
		// The one-operand forms multiply rax, or divide rax (rdx:rax
		// when wider than a byte), by r/m.
		if len(i.Args) == 1 {
			addOp(i.Args[0], true)
		}
		s = s.Add(RAX)
		if (i.Op == OpDiv || i.Op == OpIdiv) && i.OpSize > 1 {
			s = s.Add(RDX)
		}
	}
	return s
}

// Writes returns the set of general-purpose registers the instruction
// writes. Flags are not modeled.
func Writes(i *Inst) RegSet {
	if !i.Classified {
		return 0
	}
	s := implicitRegs[i.Op].writes
	writeDst := func() {
		if len(i.Args) > 0 && i.Args[0].Kind == KindReg {
			s = s.Add(i.Args[0].Reg)
		}
	}
	switch i.Op {
	case OpMov, OpMovsxd, OpMovzx, OpMovsx, OpLea, OpAdd, OpSub, OpAdc,
		OpSbb, OpAnd, OpOr, OpXor, OpInc, OpDec, OpNeg, OpNot, OpShl,
		OpShr, OpSar, OpRol, OpRor, OpSetcc, OpCmovcc, OpBsf, OpBsr,
		OpPopcnt, OpBswap, OpCwd, OpPop, OpCmpxchg:
		writeDst()
	case OpXchg, OpXadd:
		for _, a := range i.Args {
			if a.Kind == KindReg {
				s = s.Add(a.Reg)
			}
		}
	case OpMul, OpImul, OpDiv, OpIdiv:
		if len(i.Args) >= 2 {
			writeDst()
			break
		}
		s = s.Add(RAX)
		if i.OpSize > 1 {
			s = s.Add(RDX)
		}
	}
	return s
}

// StackDelta returns the change this instruction applies to RSP, and
// whether the change is statically known. CALL/RET pairs are modeled as
// balanced (delta 0 across the call) because stack-height analyses track
// heights within one frame.
func StackDelta(i *Inst) (delta int64, known bool) {
	if !i.Classified {
		return 0, true // treat opaque instructions as stack-neutral
	}
	switch i.Op {
	case OpPush:
		return -8, true
	case OpPop:
		return 8, true
	case OpEnter:
		if len(i.Args) == 1 {
			return -8 - i.Args[0].Imm, true
		}
		return 0, false
	case OpLeave:
		// rsp = rbp; pop rbp — height becomes frame-pointer relative,
		// which the linear analyses cannot track without rbp state.
		return 0, false
	case OpAdd:
		if targetsRSP(i) {
			if v, ok := immArg(i); ok {
				return v, true
			}
			return 0, false
		}
	case OpSub:
		if targetsRSP(i) {
			if v, ok := immArg(i); ok {
				return -v, true
			}
			return 0, false
		}
	case OpAnd:
		if targetsRSP(i) {
			// Alignment such as and rsp, -16: height becomes unknown.
			return 0, false
		}
	case OpMov, OpLea:
		if targetsRSP(i) {
			return 0, false
		}
	case OpCall, OpCallInd:
		return 0, true
	case OpRet:
		return 8, true
	}
	if Writes(i).Has(RSP) && i.Op != OpCall && i.Op != OpCallInd {
		return 0, false
	}
	return 0, true
}

func targetsRSP(i *Inst) bool {
	return len(i.Args) > 0 && i.Args[0].Kind == KindReg && i.Args[0].Reg == RSP
}

func immArg(i *Inst) (int64, bool) {
	for _, a := range i.Args {
		if a.Kind == KindImm {
			return a.Imm, true
		}
	}
	return 0, false
}
