package x64

import "fetch/internal/arch"

// ISA is the x86-64 backend of the arch.ISA interface. It is a
// stateless value; use the package-level Arch.
type ISA struct{}

// Arch is the shared x86-64 backend instance.
var Arch ISA

// EMachine is the ELF e_machine value of x86-64 (EM_X86_64).
const EMachine = 62

func init() {
	arch.Register(Arch)
	// Images that never declared a machine (hand-built test images,
	// historical callers) analyze as x86-64.
	arch.SetDefault(Arch)
}

// Name returns "x64".
func (ISA) Name() string { return "x64" }

// Machine returns EM_X86_64.
func (ISA) Machine() uint16 { return EMachine }

// MaxInstLen returns the architectural 15-byte limit.
func (ISA) MaxInstLen() int { return maxInstLen }

// InstAlign returns 1: x86-64 instructions are unaligned.
func (ISA) InstAlign() int { return 1 }

// Decode decodes the instruction at the start of b.
func (ISA) Decode(b []byte, addr uint64) (arch.Inst, error) { return Decode(b, addr) }

// SPReg returns RSP.
func (ISA) SPReg() arch.Reg { return RSP }

// FrameReg returns RBP.
func (ISA) FrameReg() arch.Reg { return RBP }

// GateReg returns RDI, the first System-V integer argument register
// (the §IV-C error/error_at_line gate).
func (ISA) GateReg() arch.Reg { return RDI }

// ArgRegs returns the System-V AMD64 integer argument registers.
func (ISA) ArgRegs() []arch.Reg { return ArgumentRegs[:] }

// RetAddrReg returns (0, false): on x86-64 the return address lives on
// the stack, not in a register.
func (ISA) RetAddrReg() (arch.Reg, bool) { return 0, false }

// RegCount returns 16: the §IV-E rule judges RAX..R15.
func (ISA) RegCount() int { return 16 }

// Reads returns the instruction's register read set.
func (ISA) Reads(in *arch.Inst) arch.RegSet { return Reads(in) }

// Writes returns the instruction's register write set.
func (ISA) Writes(in *arch.Inst) arch.RegSet { return Writes(in) }

// StackDelta returns the instruction's RSP delta.
func (ISA) StackDelta(in *arch.Inst) (int64, bool) { return StackDelta(in) }

// GateEffect classifies the instruction's effect on the tracked RDI
// state (§IV-C): xor rdi,rdi and mov rdi,imm are the recognized
// definitions; any other RDI write degrades the state to unknown.
func (ISA) GateEffect(in *arch.Inst) arch.GateEffect {
	if w := Writes(in); in.IsCall() || !w.Has(RDI) {
		return arch.GateKeep
	}
	if in.Op == OpXor && len(in.Args) == 2 &&
		in.Args[0].Kind == KindReg && in.Args[0].Reg == RDI {
		return arch.GateSetZero
	}
	if in.Op == OpMov && len(in.Args) == 2 &&
		in.Args[0].Kind == KindReg && in.Args[0].Reg == RDI &&
		in.Args[1].Kind == KindImm {
		if in.Args[1].Imm == 0 {
			return arch.GateSetZero
		}
		return arch.GateSetNonZero
	}
	return arch.GateSetUnknown
}

// CFISPReg returns 7, the DWARF number of RSP.
func (ISA) CFISPReg() uint64 { return 7 }

// CFIRAReg returns 16, the DWARF return-address column of x86-64.
func (ISA) CFIRAReg() uint64 { return 16 }

// CFIEntryOffset returns 8: at entry the CFA is rsp+8 (the pushed
// return address), and §V-B stack heights are CFA offsets biased by it.
func (ISA) CFIEntryOffset() int64 { return 8 }

// ResolveJumpTable implements the bounded, DYNINST-style jump-table
// analysis (§IV-C). Two idioms are recognized, both requiring the
// bounding compare on the index register:
//
// non-PIC (absolute 8-byte entries):
//
//	cmp  idx, N-1
//	ja   default
//	jmp  [idx*8 + table]
//
// PIC (table-relative 4-byte entries):
//
//	cmp  idx, N-1
//	ja   default
//	lea  base, [rip+table]
//	movsxd tmp, dword [base + idx*4]
//	add  tmp, base
//	jmp  tmp
//
// Anything else is left unresolved (the safe choice).
func (ISA) ResolveJumpTable(ctx arch.JumpTableCtx, jmp *arch.Inst, maxEntries int64) []uint64 {
	if mem, ok := jmp.IndirectMem(); ok {
		return resolveAbsTable(ctx, jmp, mem, maxEntries)
	}
	if len(jmp.Args) == 1 && jmp.Args[0].Kind == KindReg {
		return resolvePICTable(ctx, jmp, jmp.Args[0].Reg, maxEntries)
	}
	return nil
}

// resolveAbsTable handles the absolute-entry idiom.
func resolveAbsTable(ctx arch.JumpTableCtx, jmp *arch.Inst, mem MemRef, maxEntries int64) []uint64 {
	if mem.RIPRel || mem.Base != RegNone || mem.Scale != 8 ||
		!ValidReg(mem.Index) || mem.Disp <= 0 {
		return nil
	}
	bound, ok := findBound(ctx, jmp.Addr, mem.Index)
	if !ok {
		return nil
	}
	if bound > maxEntries {
		bound = maxEntries
	}
	table := uint64(mem.Disp)
	ctx.RecordTableRead(table, table+uint64(8*bound))
	var out []uint64
	for k := int64(0); k < bound; k++ {
		entry, err := ctx.ReadU64(table + uint64(8*k))
		if err != nil {
			return nil // table runs off its section: reject entirely
		}
		if !ctx.IsExec(entry) {
			return nil // non-code entry: not a jump table we trust
		}
		out = append(out, entry)
	}
	if len(out) > 0 {
		ctx.RecordTableBase(table)
	}
	return out
}

// resolvePICTable handles the position-independent idiom by walking
// the preceding decoded instructions for the add/movsxd/lea chain.
func resolvePICTable(ctx arch.JumpTableCtx, jmp *arch.Inst, target Reg, maxEntries int64) []uint64 {
	var (
		base                       = RegNone
		index                      = RegNone
		table                      uint64
		haveAdd, haveLoad, haveLea bool
	)
	addr := jmp.Addr
	for steps := 0; steps < 10; steps++ {
		in, ok := ctx.InstEndingAt(addr)
		if !ok {
			return nil
		}
		switch {
		case !haveAdd:
			// add target, base
			if in.Op == OpAdd && len(in.Args) == 2 &&
				in.Args[0].Kind == KindReg && in.Args[0].Reg == target &&
				in.Args[1].Kind == KindReg {
				base = in.Args[1].Reg
				haveAdd = true
			} else {
				return nil
			}
		case !haveLoad:
			// movsxd target, dword [base + idx*4]
			if in.Op == OpMovsxd && len(in.Args) == 2 &&
				in.Args[0].Kind == KindReg && in.Args[0].Reg == target &&
				in.Args[1].Kind == KindMem &&
				in.Args[1].Mem.Base == base && in.Args[1].Mem.Scale == 4 &&
				ValidReg(in.Args[1].Mem.Index) {
				index = in.Args[1].Mem.Index
				haveLoad = true
			} else {
				return nil
			}
		case !haveLea:
			// lea base, [rip+table]
			if in.Op == OpLea && len(in.Args) == 2 &&
				in.Args[0].Kind == KindReg && in.Args[0].Reg == base &&
				in.Args[1].Kind == KindMem && in.Args[1].Mem.RIPRel {
				table = uint64(int64(in.Addr) + int64(in.Len) + in.Args[1].Mem.Disp)
				haveLea = true
			}
			// Tolerate unrelated instructions between load and lea.
		default:
			bound, ok := findBound(ctx, in.Next(), index)
			if !ok {
				// Keep walking: the compare may sit further back.
				addr = in.Addr
				continue
			}
			n := bound
			if n > maxEntries {
				n = maxEntries
			}
			ctx.RecordTableRead(table, table+uint64(4*n))
			out := readPICEntries(ctx, table, bound, maxEntries)
			if len(out) > 0 {
				ctx.RecordTableBase(table)
			}
			return out
		}
		addr = in.Addr
	}
	return nil
}

// readPICEntries loads bound int32 table-relative offsets.
func readPICEntries(ctx arch.JumpTableCtx, table uint64, bound, maxEntries int64) []uint64 {
	if bound > maxEntries {
		bound = maxEntries
	}
	var out []uint64
	for k := int64(0); k < bound; k++ {
		raw, err := ctx.ReadU32(table + uint64(4*k))
		if err != nil {
			return nil
		}
		entry := uint64(int64(table) + int64(int32(raw)))
		if !ctx.IsExec(entry) {
			return nil
		}
		out = append(out, entry)
	}
	return out
}

// findBound scans recently decoded instructions immediately before the
// indirect jump for the bounding `cmp idx, imm` guarded by an
// above-branch.
func findBound(ctx arch.JumpTableCtx, jmpAddr uint64, idx Reg) (int64, bool) {
	var sawAbove bool
	// Walk backwards over the previous decoded instructions.
	addr := jmpAddr
	for steps := 0; steps < 8; steps++ {
		in, ok := ctx.InstEndingAt(addr)
		if !ok {
			return 0, false
		}
		switch in.Op {
		case OpJcc:
			if in.Cond == CondA || in.Cond == CondAE {
				sawAbove = true
			}
		case OpCmp:
			if sawAbove && len(in.Args) == 2 &&
				in.Args[0].Kind == KindReg && in.Args[0].Reg == idx &&
				in.Args[1].Kind == KindImm && in.Args[1].Imm >= 0 {
				return in.Args[1].Imm + 1, true
			}
		case OpMov, OpMovzx, OpMovsxd, OpLea:
			// Index massaging between the compare and the jump is
			// tolerated.
		default:
			return 0, false
		}
		addr = in.Addr
	}
	return 0, false
}
