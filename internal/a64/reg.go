// Package a64 implements the aarch64 backend of the arch.ISA
// interface: a fixed-width A64 decoder covering the instruction
// classes the analysis pipeline consumes (branches, literal and
// register loads, the arithmetic/logical core, load/store pairs), the
// AAPCS64 register-semantic facts, the ADRP-anchored jump-table
// idioms, and an assembler for the synthetic-binary compiler.
//
// Register numbering is the hardware one: X0=0 .. X30=30, with SP=31.
// The zero register XZR shares encoding 31 with SP; the decoder
// resolves the ambiguity per instruction class and represents XZR
// operands as arch.RegNone (they carry no dataflow).
package a64

import "fetch/internal/arch"

// AAPCS64 general-purpose registers.
const (
	X0 arch.Reg = iota
	X1
	X2
	X3
	X4
	X5
	X6
	X7
	X8
	X9
	X10
	X11
	X12
	X13
	X14
	X15
	X16
	X17
	X18
	X19
	X20
	X21
	X22
	X23
	X24
	X25
	X26
	X27
	X28
	X29 // frame pointer
	X30 // link register
	SP  // stack pointer (encoding 31 in base-register positions)
)

// RegNone marks an absent register (and the zero register XZR, which
// contributes no dataflow).
const RegNone = arch.RegNone

// ArgumentRegs are the AAPCS64 integer argument registers.
var ArgumentRegs = [...]arch.Reg{X0, X1, X2, X3, X4, X5, X6, X7}

// CalleeSavedRegs are the AAPCS64 callee-saved registers (x19–x28 plus
// the frame pointer).
var CalleeSavedRegs = [...]arch.Reg{X19, X20, X21, X22, X23, X24, X25, X26, X27, X28, X29}

// IsCalleeSaved reports whether r must be preserved across calls.
func IsCalleeSaved(r arch.Reg) bool { return r >= X19 && r <= X29 }
