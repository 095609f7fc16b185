package ehframe

import (
	"fmt"
)

// DWARF register numbers for x86-64 (differs from hardware encoding).
const (
	DwRAX = 0
	DwRDX = 1
	DwRCX = 2
	DwRBX = 3
	DwRSI = 4
	DwRDI = 5
	DwRBP = 6
	DwRSP = 7
	// DwR8 through DwR15 are 8..15.
	DwRA = 16 // return address pseudo-register
)

// DWARF register numbers for aarch64 (AADWARF64: x0..x30 are 0..30,
// SP is 31). The return-address column is the link register itself.
const (
	DwA64FP = 29
	DwA64RA = 30 // x30, the link register
	DwA64SP = 31
)

// DwarfRegName returns a human-readable name for an x86-64 DWARF
// register number.
func DwarfRegName(r uint64) string {
	names := []string{"rax", "rdx", "rcx", "rbx", "rsi", "rdi", "rbp", "rsp",
		"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15", "ra"}
	if int(r) < len(names) {
		return names[r]
	}
	return fmt.Sprintf("r?%d", r)
}

// CFIOp enumerates the call-frame instructions the codec supports —
// the set GCC/Clang emit for x64 plus the expression forms seen in
// hand-written assembly (paper Figure 6b).
type CFIOp uint8

// Call-frame instruction opcodes (semantic, not wire encoding).
const (
	CFANop            CFIOp = iota + 1
	CFAAdvanceLoc           // Delta: code offset advance
	CFADefCFA               // Reg, Offset
	CFADefCFARegister       // Reg
	CFADefCFAOffset         // Offset
	CFAOffset               // Reg, Offset: reg saved at CFA-Offset (unfactored bytes)
	CFARestore              // Reg
	CFARememberState
	CFARestoreState
	CFADefCFAExpression // Expr
	CFAExpression       // Reg, Expr
	CFAUndefined        // Reg
	CFASameValue        // Reg
	CFARegister         // Reg, Reg2
	// CFAValOffset records that reg's value (not its save slot) is
	// CFA+Offset — DW_CFA_val_offset/val_offset_sf, emitted by GCC for
	// unwound-but-unsaved registers. It never affects the CFA rule.
	CFAValOffset // Reg, Offset
	// CFAValExpression records reg's value as a DWARF expression —
	// DW_CFA_val_expression, seen in hand-written glibc assembly.
	CFAValExpression // Reg, Expr
	// CFAGNUArgsSize is DW_CFA_GNU_args_size: the size of outgoing
	// arguments pushed for a call, emitted by GCC in C++ code around
	// calls inside try blocks. It does not change the CFA rule.
	CFAGNUArgsSize // Offset
	// CFAGNUWindowSave is DW_CFA_GNU_window_save (also reused as
	// DW_CFA_AARCH64_negate_ra_state); a no-op for x64 unwinding.
	CFAGNUWindowSave
)

// CFI is one decoded call-frame instruction. Offsets are in bytes
// (already multiplied by the CIE alignment factors).
type CFI struct {
	Op     CFIOp
	Delta  uint64 // CFAAdvanceLoc: code bytes to advance
	Reg    uint64 // DWARF register number
	Reg2   uint64 // CFARegister second register
	Offset int64  // byte offset (CFA offset, or save slot as CFA-Offset)
	Expr   []byte // DWARF expression bytes for the expression forms
}

// String renders the instruction like readelf does.
func (c CFI) String() string {
	switch c.Op {
	case CFANop:
		return "DW_CFA_nop"
	case CFAAdvanceLoc:
		return fmt.Sprintf("DW_CFA_advance_loc: %d", c.Delta)
	case CFADefCFA:
		return fmt.Sprintf("DW_CFA_def_cfa: %s ofs %d", DwarfRegName(c.Reg), c.Offset)
	case CFADefCFARegister:
		return fmt.Sprintf("DW_CFA_def_cfa_register: %s", DwarfRegName(c.Reg))
	case CFADefCFAOffset:
		return fmt.Sprintf("DW_CFA_def_cfa_offset: %d", c.Offset)
	case CFAOffset:
		return fmt.Sprintf("DW_CFA_offset: %s at cfa-%d", DwarfRegName(c.Reg), c.Offset)
	case CFARestore:
		return fmt.Sprintf("DW_CFA_restore: %s", DwarfRegName(c.Reg))
	case CFARememberState:
		return "DW_CFA_remember_state"
	case CFARestoreState:
		return "DW_CFA_restore_state"
	case CFADefCFAExpression:
		return "DW_CFA_def_cfa_expression"
	case CFAExpression:
		return fmt.Sprintf("DW_CFA_expression: %s", DwarfRegName(c.Reg))
	case CFAUndefined:
		return fmt.Sprintf("DW_CFA_undefined: %s", DwarfRegName(c.Reg))
	case CFASameValue:
		return fmt.Sprintf("DW_CFA_same_value: %s", DwarfRegName(c.Reg))
	case CFARegister:
		return fmt.Sprintf("DW_CFA_register: %s in %s", DwarfRegName(c.Reg), DwarfRegName(c.Reg2))
	case CFAValOffset:
		return fmt.Sprintf("DW_CFA_val_offset: %s at cfa%+d", DwarfRegName(c.Reg), c.Offset)
	case CFAValExpression:
		return fmt.Sprintf("DW_CFA_val_expression: %s", DwarfRegName(c.Reg))
	case CFAGNUArgsSize:
		return fmt.Sprintf("DW_CFA_GNU_args_size: %d", c.Offset)
	case CFAGNUWindowSave:
		return "DW_CFA_GNU_window_save"
	}
	return fmt.Sprintf("DW_CFA_?(%d)", c.Op)
}

// Wire-format opcode constants.
const (
	rawAdvanceLoc  = 0x40 // high-2-bits form, low 6 = delta
	rawOffset      = 0x80 // high-2-bits form, low 6 = reg
	rawRestore     = 0xC0 // high-2-bits form, low 6 = reg
	rawNop         = 0x00
	rawAdvanceLoc1 = 0x02
	rawAdvanceLoc2 = 0x03
	rawAdvanceLoc4 = 0x04
	rawOffsetExt   = 0x05
	rawRestoreExt  = 0x06
	rawUndefined   = 0x07
	rawSameValue   = 0x08
	rawRegister    = 0x09
	rawRememberSt  = 0x0A
	rawRestoreSt   = 0x0B
	rawDefCFA      = 0x0C
	rawDefCFAReg   = 0x0D
	rawDefCFAOfs   = 0x0E
	rawDefCFAExpr  = 0x0F
	rawExpression  = 0x10
	rawOffsetExtSF = 0x11
	rawDefCFASF    = 0x12
	rawDefCFAOfsSF = 0x13
	rawValOffset   = 0x14
	rawValOffsetSF = 0x15
	rawValExpr     = 0x16
	rawGNUWinSave  = 0x2D
	rawGNUArgsSize = 0x2E
	rawGNUNegOfs   = 0x2F
)

// encodeCFIs serializes a CFI program using the given CIE alignment
// factors (codeAlign is normally 1 and dataAlign -8 on x64).
func encodeCFIs(prog []CFI, codeAlign uint64, dataAlign int64) ([]byte, error) {
	var out []byte
	for _, c := range prog {
		switch c.Op {
		case CFANop:
			out = append(out, rawNop)
		case CFAAdvanceLoc:
			d := c.Delta / codeAlign
			switch {
			case d < 0x40:
				out = append(out, rawAdvanceLoc|byte(d))
			case d <= 0xFF:
				out = append(out, rawAdvanceLoc1, byte(d))
			case d <= 0xFFFF:
				out = append(out, rawAdvanceLoc2, byte(d), byte(d>>8))
			default:
				out = append(out, rawAdvanceLoc4, byte(d), byte(d>>8), byte(d>>16), byte(d>>24))
			}
		case CFADefCFA:
			out = append(out, rawDefCFA)
			out = appendULEB(out, c.Reg)
			out = appendULEB(out, uint64(c.Offset))
		case CFADefCFARegister:
			out = append(out, rawDefCFAReg)
			out = appendULEB(out, c.Reg)
		case CFADefCFAOffset:
			out = append(out, rawDefCFAOfs)
			out = appendULEB(out, uint64(c.Offset))
		case CFAOffset:
			// Saved-register offsets are factored by dataAlign:
			// slot = CFA - Offset, factored = Offset / -dataAlign.
			f := c.Offset / -dataAlign
			if c.Reg < 0x40 && f >= 0 {
				out = append(out, rawOffset|byte(c.Reg))
				out = appendULEB(out, uint64(f))
			} else {
				out = append(out, rawOffsetExt)
				out = appendULEB(out, c.Reg)
				out = appendULEB(out, uint64(f))
			}
		case CFARestore:
			if c.Reg < 0x40 {
				out = append(out, rawRestore|byte(c.Reg))
			} else {
				out = append(out, rawRestoreExt)
				out = appendULEB(out, c.Reg)
			}
		case CFARememberState:
			out = append(out, rawRememberSt)
		case CFARestoreState:
			out = append(out, rawRestoreSt)
		case CFADefCFAExpression:
			out = append(out, rawDefCFAExpr)
			out = appendULEB(out, uint64(len(c.Expr)))
			out = append(out, c.Expr...)
		case CFAExpression:
			out = append(out, rawExpression)
			out = appendULEB(out, c.Reg)
			out = appendULEB(out, uint64(len(c.Expr)))
			out = append(out, c.Expr...)
		case CFAUndefined:
			out = append(out, rawUndefined)
			out = appendULEB(out, c.Reg)
		case CFASameValue:
			out = append(out, rawSameValue)
			out = appendULEB(out, c.Reg)
		case CFARegister:
			out = append(out, rawRegister)
			out = appendULEB(out, c.Reg)
			out = appendULEB(out, c.Reg2)
		case CFAValOffset:
			// Both wire forms carry a dataAlign-factored offset; pick
			// the one whose factored value the sign admits.
			if c.Offset%dataAlign != 0 {
				return nil, fmt.Errorf("ehframe: val_offset %d not a multiple of data alignment %d", c.Offset, dataAlign)
			}
			f := c.Offset / dataAlign
			if f >= 0 {
				out = append(out, rawValOffset)
				out = appendULEB(out, c.Reg)
				out = appendULEB(out, uint64(f))
			} else {
				out = append(out, rawValOffsetSF)
				out = appendULEB(out, c.Reg)
				out = appendSLEB(out, f)
			}
		case CFAValExpression:
			out = append(out, rawValExpr)
			out = appendULEB(out, c.Reg)
			out = appendULEB(out, uint64(len(c.Expr)))
			out = append(out, c.Expr...)
		case CFAGNUArgsSize:
			if c.Offset < 0 {
				return nil, fmt.Errorf("ehframe: negative GNU_args_size %d", c.Offset)
			}
			out = append(out, rawGNUArgsSize)
			out = appendULEB(out, uint64(c.Offset))
		case CFAGNUWindowSave:
			out = append(out, rawGNUWinSave)
		default:
			return nil, fmt.Errorf("ehframe: cannot encode CFI op %d", c.Op)
		}
	}
	return out, nil
}

// decodeCFIs parses a CFI byte program.
func decodeCFIs(b []byte, codeAlign uint64, dataAlign int64) ([]CFI, error) {
	var prog []CFI
	if err := walkCFIs(b, codeAlign, dataAlign, func(c CFI) { prog = append(prog, c) }); err != nil {
		return nil, err
	}
	return prog, nil
}

// walkCFIs parses a CFI byte program, passing each instruction to emit
// in order. Decode runs it to validate FDE programs without keeping
// them, and an FDE's height evaluation runs it again over the kept
// bytes, so a section's programs are never materialized at once.
func walkCFIs(b []byte, codeAlign uint64, dataAlign int64, emit func(CFI)) error {
	i := 0
	for i < len(b) {
		op := b[i]
		i++
		switch {
		case op&0xC0 == rawAdvanceLoc:
			emit(CFI{Op: CFAAdvanceLoc, Delta: uint64(op&0x3F) * codeAlign})
		case op&0xC0 == rawOffset:
			f, n, err := readULEB(b[i:])
			if err != nil {
				return err
			}
			i += n
			emit(CFI{Op: CFAOffset, Reg: uint64(op & 0x3F), Offset: int64(f) * -dataAlign})
		case op&0xC0 == rawRestore:
			emit(CFI{Op: CFARestore, Reg: uint64(op & 0x3F)})
		default:
			switch op {
			case rawNop:
				emit(CFI{Op: CFANop})
			case rawAdvanceLoc1:
				if i >= len(b) {
					return ErrTruncated
				}
				emit(CFI{Op: CFAAdvanceLoc, Delta: uint64(b[i]) * codeAlign})
				i++
			case rawAdvanceLoc2:
				if i+2 > len(b) {
					return ErrTruncated
				}
				d := uint64(b[i]) | uint64(b[i+1])<<8
				emit(CFI{Op: CFAAdvanceLoc, Delta: d * codeAlign})
				i += 2
			case rawAdvanceLoc4:
				if i+4 > len(b) {
					return ErrTruncated
				}
				d := uint64(b[i]) | uint64(b[i+1])<<8 | uint64(b[i+2])<<16 | uint64(b[i+3])<<24
				emit(CFI{Op: CFAAdvanceLoc, Delta: d * codeAlign})
				i += 4
			case rawDefCFA:
				r, n, err := readULEB(b[i:])
				if err != nil {
					return err
				}
				i += n
				o, n2, err := readULEB(b[i:])
				if err != nil {
					return err
				}
				i += n2
				emit(CFI{Op: CFADefCFA, Reg: r, Offset: int64(o)})
			case rawDefCFAReg:
				r, n, err := readULEB(b[i:])
				if err != nil {
					return err
				}
				i += n
				emit(CFI{Op: CFADefCFARegister, Reg: r})
			case rawDefCFAOfs:
				o, n, err := readULEB(b[i:])
				if err != nil {
					return err
				}
				i += n
				emit(CFI{Op: CFADefCFAOffset, Offset: int64(o)})
			case rawOffsetExt:
				r, n, err := readULEB(b[i:])
				if err != nil {
					return err
				}
				i += n
				f, n2, err := readULEB(b[i:])
				if err != nil {
					return err
				}
				i += n2
				emit(CFI{Op: CFAOffset, Reg: r, Offset: int64(f) * -dataAlign})
			case rawRestoreExt:
				r, n, err := readULEB(b[i:])
				if err != nil {
					return err
				}
				i += n
				emit(CFI{Op: CFARestore, Reg: r})
			case rawUndefined, rawSameValue:
				r, n, err := readULEB(b[i:])
				if err != nil {
					return err
				}
				i += n
				sem := CFAUndefined
				if op == rawSameValue {
					sem = CFASameValue
				}
				emit(CFI{Op: sem, Reg: r})
			case rawRegister:
				r, n, err := readULEB(b[i:])
				if err != nil {
					return err
				}
				i += n
				r2, n2, err := readULEB(b[i:])
				if err != nil {
					return err
				}
				i += n2
				emit(CFI{Op: CFARegister, Reg: r, Reg2: r2})
			case rawRememberSt:
				emit(CFI{Op: CFARememberState})
			case rawRestoreSt:
				emit(CFI{Op: CFARestoreState})
			case rawOffsetExtSF, rawDefCFASF:
				// Signed-factored forms of offset_extended / def_cfa:
				// same semantics, SLEB-factored operand.
				r, n, err := readULEB(b[i:])
				if err != nil {
					return err
				}
				i += n
				s, n2, err := readSLEB(b[i:])
				if err != nil {
					return err
				}
				i += n2
				if op == rawOffsetExtSF {
					emit(CFI{Op: CFAOffset, Reg: r, Offset: s * -dataAlign})
				} else {
					emit(CFI{Op: CFADefCFA, Reg: r, Offset: s * dataAlign})
				}
			case rawDefCFAOfsSF:
				s, n, err := readSLEB(b[i:])
				if err != nil {
					return err
				}
				i += n
				emit(CFI{Op: CFADefCFAOffset, Offset: s * dataAlign})
			case rawValOffset:
				r, n, err := readULEB(b[i:])
				if err != nil {
					return err
				}
				i += n
				f, n2, err := readULEB(b[i:])
				if err != nil {
					return err
				}
				i += n2
				emit(CFI{Op: CFAValOffset, Reg: r, Offset: int64(f) * dataAlign})
			case rawValOffsetSF:
				r, n, err := readULEB(b[i:])
				if err != nil {
					return err
				}
				i += n
				s, n2, err := readSLEB(b[i:])
				if err != nil {
					return err
				}
				i += n2
				emit(CFI{Op: CFAValOffset, Reg: r, Offset: s * dataAlign})
			case rawValExpr:
				r, n, err := readULEB(b[i:])
				if err != nil {
					return err
				}
				i += n
				ln, n2, err := readULEB(b[i:])
				if err != nil {
					return err
				}
				i += n2
				if ln > uint64(len(b)-i) {
					return ErrTruncated
				}
				emit(CFI{Op: CFAValExpression, Reg: r, Expr: append([]byte(nil), b[i:i+int(ln)]...)})
				i += int(ln)
			case rawGNUArgsSize:
				sz, n, err := readULEB(b[i:])
				if err != nil {
					return err
				}
				i += n
				emit(CFI{Op: CFAGNUArgsSize, Offset: int64(sz)})
			case rawGNUWinSave:
				emit(CFI{Op: CFAGNUWindowSave})
			case rawGNUNegOfs:
				// Obsolete GNU form: the factored offset is subtracted,
				// the negation of offset_extended.
				r, n, err := readULEB(b[i:])
				if err != nil {
					return err
				}
				i += n
				f, n2, err := readULEB(b[i:])
				if err != nil {
					return err
				}
				i += n2
				emit(CFI{Op: CFAOffset, Reg: r, Offset: int64(f) * dataAlign})
			case rawDefCFAExpr:
				ln, n, err := readULEB(b[i:])
				if err != nil {
					return err
				}
				i += n
				if ln > uint64(len(b)-i) {
					return ErrTruncated
				}
				emit(CFI{Op: CFADefCFAExpression, Expr: append([]byte(nil), b[i:i+int(ln)]...)})
				i += int(ln)
			case rawExpression:
				r, n, err := readULEB(b[i:])
				if err != nil {
					return err
				}
				i += n
				ln, n2, err := readULEB(b[i:])
				if err != nil {
					return err
				}
				i += n2
				if ln > uint64(len(b)-i) {
					return ErrTruncated
				}
				emit(CFI{Op: CFAExpression, Reg: r, Expr: append([]byte(nil), b[i:i+int(ln)]...)})
				i += int(ln)
			default:
				return fmt.Errorf("%w: unknown CFI opcode %#x", ErrUnsupported, op)
			}
		}
	}
	return nil
}
