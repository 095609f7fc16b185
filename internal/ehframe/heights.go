package ehframe

// Stack-height evaluation of CFI programs (§V-B of the paper).
//
// The "stack height" at a code location is the number of bytes the
// stack has grown since function entry: height = CFAOffset - entry
// offset when the CFA is defined relative to the stack pointer. The
// entry offset is an ABI fact: on x86-64 the call pushes the return
// address, so CFA = rsp+8 at entry (height 0); on aarch64 the return
// address travels in x30 and CFA = sp+0 at entry. A tail call requires
// height 0 — the stack pointer must sit exactly where the function
// found it, so the target can return to the caller's caller.

// HeightRow gives the stack height holding from Loc (inclusive) to the
// next row's Loc (exclusive).
type HeightRow struct {
	Loc       uint64 // absolute code address
	CFAOffset int64  // CFA = SP + CFAOffset (valid only when SP-based)
}

// HeightTable is the evaluated height profile of one FDE.
type HeightTable struct {
	FDE  *FDE
	Rows []HeightRow

	// EntryOffset is the ABI's CFA offset from SP at function entry (8
	// on x86-64, 0 on aarch64): the bias between a CFA offset and the
	// paper's stack height.
	EntryOffset int64

	// Complete reports whether the CFI program gives trustworthy
	// SP-relative heights across the whole range, per the paper's
	// conservativeness criteria: the CFA is SP-based with the ABI's
	// initial offset, every CFA change is described by an SP-relative
	// redefinition, and no expression forms are used.
	Complete bool
}

// cfaState is the evaluator's running CFA rule.
type cfaState struct {
	reg    uint64
	offset int64
	valid  bool // rule is a plain reg+offset (no expression)
}

// Heights evaluates the FDE's CFI program under the x86-64 ABI facts
// (CFA starts as rsp+8). Multi-ISA callers use HeightsABI with the
// ISA's CFI constants instead.
func (f *FDE) Heights() HeightTable { return f.HeightsABI(DwRSP, 8) }

// HeightsABI evaluates the FDE's CFI program (prepended with its CIE's
// initial instructions) into a height table, against the given ABI
// facts: the DWARF number of the stack pointer and the CFA offset from
// it at function entry (arch.ISA's CFISPReg and CFIEntryOffset).
func (f *FDE) HeightsABI(spReg uint64, entryOffset int64) HeightTable {
	t := HeightTable{FDE: f, EntryOffset: entryOffset, Complete: true}
	loc := f.PCBegin
	st := cfaState{}
	var stack []cfaState // remember_state/restore_state

	apply := func(c CFI) {
		switch c.Op {
		case CFADefCFA:
			st = cfaState{reg: c.Reg, offset: c.Offset, valid: true}
		case CFADefCFARegister:
			st.reg = c.Reg
		case CFADefCFAOffset:
			st.offset = c.Offset
		case CFADefCFAExpression:
			st.valid = false
			t.Complete = false
		case CFARememberState:
			stack = append(stack, st)
		case CFARestoreState:
			if len(stack) > 0 {
				st = stack[len(stack)-1]
				stack = stack[:len(stack)-1]
			}
		}
	}

	emit := func() {
		if st.valid && st.reg == spReg {
			t.Rows = append(t.Rows, HeightRow{Loc: loc, CFAOffset: st.offset})
		} else {
			// The CFA is not SP-relative here (frame-pointer
			// functions, expressions): heights are unknowable from
			// CFI at this and later SP-relative queries.
			t.Complete = false
		}
	}

	for _, c := range f.CIE.Initial {
		apply(c)
	}
	if !st.valid || st.reg != spReg || st.offset != entryOffset {
		// Paper criterion (i): CFA must start at the ABI entry rule.
		t.Complete = false
	}
	emit()
	f.eachCFI(func(c CFI) {
		if c.Op == CFAAdvanceLoc {
			loc += c.Delta
			return
		}
		before := st
		apply(c)
		if st != before {
			emit()
		}
	})
	return t
}

// HeightAt returns the stack height (bytes pushed since entry) at addr.
// ok is false when addr precedes the first row or the table is not
// Complete — callers implementing the paper's Algorithm 1 must skip
// such functions entirely.
func (t *HeightTable) HeightAt(addr uint64) (int64, bool) {
	if !t.Complete {
		return 0, false
	}
	var best *HeightRow
	for k := range t.Rows {
		r := &t.Rows[k]
		if r.Loc <= addr && (best == nil || r.Loc >= best.Loc) {
			best = r
		}
	}
	if best == nil {
		return 0, false
	}
	return best.CFAOffset - t.EntryOffset, true
}
