package a64

import "fetch/internal/arch"

// ISA is the aarch64 backend of the arch.ISA interface. It is a
// stateless value; use the package-level Arch.
type ISA struct{}

// Arch is the shared aarch64 backend instance.
var Arch ISA

// EMachine is the ELF e_machine value of aarch64 (EM_AARCH64).
const EMachine = 183

func init() {
	arch.Register(Arch)
}

// Name returns "a64".
func (ISA) Name() string { return "a64" }

// Machine returns EM_AARCH64.
func (ISA) Machine() uint16 { return EMachine }

// MaxInstLen returns 4: A64 instructions are fixed-width.
func (ISA) MaxInstLen() int { return instLen }

// InstAlign returns 4: A64 instructions are word-aligned.
func (ISA) InstAlign() int { return instLen }

// Decode decodes the instruction at the start of b.
func (ISA) Decode(b []byte, addr uint64) (arch.Inst, error) { return Decode(b, addr) }

// SPReg returns SP.
func (ISA) SPReg() arch.Reg { return SP }

// FrameReg returns X29.
func (ISA) FrameReg() arch.Reg { return X29 }

// GateReg returns X0, the first AAPCS64 integer argument register
// (the §IV-C error/error_at_line gate).
func (ISA) GateReg() arch.Reg { return X0 }

// ArgRegs returns the AAPCS64 integer argument registers.
func (ISA) ArgRegs() []arch.Reg { return ArgumentRegs[:] }

// RetAddrReg returns (X30, true): the caller's BL leaves the return
// address in the link register, so x30 is initialized at every
// legitimate entry — a leaf's bare RET is not a convention violation.
func (ISA) RetAddrReg() (arch.Reg, bool) { return X30, true }

// RegCount returns 31: the §IV-E rule judges X0..X30 (SP is handled
// separately as the always-live stack pointer).
func (ISA) RegCount() int { return 31 }

// Reads returns the instruction's register read set.
func (ISA) Reads(in *arch.Inst) arch.RegSet { return Reads(in) }

// Writes returns the instruction's register write set.
func (ISA) Writes(in *arch.Inst) arch.RegSet { return Writes(in) }

// StackDelta returns the instruction's SP delta.
func (ISA) StackDelta(in *arch.Inst) (int64, bool) { return StackDelta(in) }

// GateEffect classifies the instruction's effect on the tracked X0
// state (§IV-C): MOVZ/MOVN x0, #imm are the recognized definitions
// (the decoder resolves either to a mov-immediate with the computed
// value); any other x0 write — a MOVK insert in particular — degrades
// the state to unknown.
func (ISA) GateEffect(in *arch.Inst) arch.GateEffect {
	if w := Writes(in); in.IsCall() || !w.Has(X0) {
		return arch.GateKeep
	}
	if in.Op == arch.OpMov && len(in.Args) == 2 &&
		in.Args[0].Kind == arch.KindReg && in.Args[0].Reg == X0 &&
		in.Args[1].Kind == arch.KindImm {
		if in.Args[1].Imm == 0 {
			return arch.GateSetZero
		}
		return arch.GateSetNonZero
	}
	return arch.GateSetUnknown
}

// CFISPReg returns 31, the DWARF number of SP on aarch64.
func (ISA) CFISPReg() uint64 { return 31 }

// CFIRAReg returns 30, the DWARF return-address column (x30/LR).
func (ISA) CFIRAReg() uint64 { return 30 }

// CFIEntryOffset returns 0: at entry the CFA equals SP (nothing is
// pushed by the call), so §V-B stack heights carry no bias.
func (ISA) CFIEntryOffset() int64 { return 0 }

// ResolveJumpTable implements the bounded jump-table analysis (§IV-C)
// for the ADRP-anchored aarch64 idioms. Both end in a register BR, so
// the resolver — unlike x64's absolute idiom — always records the
// table base itself. Two shapes are recognized, both requiring the
// bounding compare on the index register:
//
// PIC (table-relative 4-byte entries):
//
//	cmp   idx, #N-1
//	b.hi  default
//	adrp  tbl, page(table)
//	add   tbl, tbl, #lo12(table)
//	ldrsw off, [tbl, idx, sxtw/lsl #2]
//	add   dst, tbl, off
//	br    dst
//
// absolute (8-byte entries):
//
//	cmp   idx, #N-1
//	b.hi  default
//	adrp  tbl, page(table)
//	add   tbl, tbl, #lo12(table)
//	ldr   dst, [tbl, idx, lsl #3]
//	br    dst
//
// Anything else is left unresolved (the safe choice).
func (ISA) ResolveJumpTable(ctx arch.JumpTableCtx, jmp *arch.Inst, maxEntries int64) []uint64 {
	if len(jmp.Args) != 1 || jmp.Args[0].Kind != arch.KindReg {
		return nil
	}
	dst := jmp.Args[0].Reg
	in, ok := ctx.InstEndingAt(jmp.Addr)
	if !ok {
		return nil
	}
	switch {
	case in.Op == arch.OpAdd && len(in.Args) == 3 &&
		in.Args[0].Kind == arch.KindReg && in.Args[0].Reg == dst &&
		in.Args[1].Kind == arch.KindReg && in.Args[2].Kind == arch.KindReg:
		// add dst, tbl, off — the PIC recombination.
		return resolvePICTable(ctx, in, in.Args[1].Reg, in.Args[2].Reg, maxEntries)
	case in.Op == arch.OpMov && len(in.Args) == 2 &&
		in.Args[0].Kind == arch.KindReg && in.Args[0].Reg == dst &&
		in.Args[1].Kind == arch.KindMem && in.Args[1].Mem.Scale == 8 &&
		ValidReg(in.Args[1].Mem.Base) && ValidReg(in.Args[1].Mem.Index):
		// ldr dst, [tbl, idx, lsl #3] — the absolute-entry load.
		return resolveAbsTable(ctx, in, in.Args[1].Mem.Base, in.Args[1].Mem.Index, maxEntries)
	}
	return nil
}

// ValidReg reports whether r is a real numbered register (not RegNone).
func ValidReg(r arch.Reg) bool { return r <= SP }

// resolveTableBase walks backwards from addr for the
// adrp+add-:lo12: pair that materializes tblReg, returning the table
// address and the address of the ADRP (where the bound scan resumes).
func resolveTableBase(ctx arch.JumpTableCtx, addr uint64, tblReg arch.Reg) (table uint64, resume uint64, ok bool) {
	var lo12 int64
	haveAdd := false
	for steps := 0; steps < 8; steps++ {
		in, found := ctx.InstEndingAt(addr)
		if !found {
			return 0, 0, false
		}
		switch {
		case !haveAdd:
			// add tbl, tbl, #lo12
			if in.Op == arch.OpAdd && len(in.Args) == 3 &&
				in.Args[0].Kind == arch.KindReg && in.Args[0].Reg == tblReg &&
				in.Args[1].Kind == arch.KindReg && in.Args[1].Reg == tblReg &&
				in.Args[2].Kind == arch.KindImm {
				lo12 = in.Args[2].Imm
				haveAdd = true
			} else {
				return 0, 0, false
			}
		default:
			// adrp tbl, page — the decoder resolves the page arithmetic
			// into a PC-relative displacement.
			if in.Op == arch.OpLea && len(in.Args) == 2 &&
				in.Args[0].Kind == arch.KindReg && in.Args[0].Reg == tblReg &&
				in.Args[1].Kind == arch.KindMem && in.Args[1].Mem.RIPRel {
				page := uint64(int64(in.Addr) + int64(in.Len) + in.Args[1].Mem.Disp)
				return page + uint64(lo12), in.Addr, true
			}
			return 0, 0, false
		}
		addr = in.Addr
	}
	return 0, 0, false
}

// resolvePICTable handles the table-relative idiom: recomb is the
// final `add dst, tbl, off`.
func resolvePICTable(ctx arch.JumpTableCtx, recomb *arch.Inst, tblReg, offReg arch.Reg, maxEntries int64) []uint64 {
	// ldrsw off, [tbl, idx, #2] immediately before the recombination.
	load, ok := ctx.InstEndingAt(recomb.Addr)
	if !ok || load.Op != arch.OpMovsxd || len(load.Args) != 2 ||
		load.Args[0].Kind != arch.KindReg || load.Args[0].Reg != offReg ||
		load.Args[1].Kind != arch.KindMem {
		return nil
	}
	mem := load.Args[1].Mem
	if mem.Base != tblReg || mem.Scale != 4 || !ValidReg(mem.Index) {
		return nil
	}
	table, resume, ok := resolveTableBase(ctx, load.Addr, tblReg)
	if !ok {
		return nil
	}
	bound, ok := findBound(ctx, resume, mem.Index)
	if !ok {
		return nil
	}
	n := bound
	if n > maxEntries {
		n = maxEntries
	}
	ctx.RecordTableRead(table, table+uint64(4*n))
	var out []uint64
	for k := int64(0); k < n; k++ {
		raw, err := ctx.ReadU32(table + uint64(4*k))
		if err != nil {
			return nil // table runs off its section: reject entirely
		}
		entry := uint64(int64(table) + int64(int32(raw)))
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

// resolveAbsTable handles the absolute-entry idiom: load is the final
// `ldr dst, [tbl, idx, lsl #3]`.
func resolveAbsTable(ctx arch.JumpTableCtx, load *arch.Inst, tblReg, idxReg arch.Reg, maxEntries int64) []uint64 {
	table, resume, ok := resolveTableBase(ctx, load.Addr, tblReg)
	if !ok {
		return nil
	}
	bound, ok := findBound(ctx, resume, idxReg)
	if !ok {
		return nil
	}
	if bound > maxEntries {
		bound = maxEntries
	}
	ctx.RecordTableRead(table, table+uint64(8*bound))
	var out []uint64
	for k := int64(0); k < bound; k++ {
		entry, err := ctx.ReadU64(table + uint64(8*k))
		if err != nil {
			return nil
		}
		if !ctx.IsExec(entry) {
			return nil
		}
		out = append(out, entry)
	}
	if len(out) > 0 {
		ctx.RecordTableBase(table)
	}
	return out
}

// findBound scans decoded instructions immediately before addr for the
// bounding `cmp idx, #imm` guarded by an above-branch (b.hi/b.hs).
func findBound(ctx arch.JumpTableCtx, addr uint64, idx arch.Reg) (int64, bool) {
	var sawAbove bool
	for steps := 0; steps < 8; steps++ {
		in, ok := ctx.InstEndingAt(addr)
		if !ok {
			return 0, false
		}
		switch in.Op {
		case arch.OpJcc:
			if in.Cond == arch.CondA || in.Cond == arch.CondAE {
				sawAbove = true
			}
		case arch.OpCmp:
			if sawAbove && len(in.Args) == 2 &&
				in.Args[0].Kind == arch.KindReg && in.Args[0].Reg == idx &&
				in.Args[1].Kind == arch.KindImm && in.Args[1].Imm >= 0 {
				return in.Args[1].Imm + 1, true
			}
		case arch.OpMov, arch.OpMovsxd, arch.OpLea:
			// Index massaging between the compare and the table chain is
			// tolerated.
		default:
			return 0, false
		}
		addr = in.Addr
	}
	return 0, false
}
