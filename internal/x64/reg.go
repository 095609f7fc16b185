// Package x64 implements an x86-64 instruction decoder and encoder.
//
// The decoder is a table-driven length decoder over the one-byte and 0F
// opcode maps with semantic classification for the instruction classes
// that function-start detection cares about: control flow (call, jmp,
// jcc, ret), stack-pointer arithmetic, register moves, and immediate /
// RIP-relative constant operands. The encoder emits genuine machine code
// and is used by the synthetic binary generator, so every byte the rest
// of the system analyzes round-trips through a real decode.
//
// The package implements the arch.ISA backend interface; the shared
// instruction model (arch.Inst, arch.Op, ...) is aliased here so the
// decoder and encoder keep their historical vocabulary.
package x64

import "fetch/internal/arch"

// Reg identifies an x86-64 general-purpose register. The numbering
// matches the hardware encoding (REX.B/R/X extends into 8-15) so that
// ModRM/SIB fields map directly onto Reg values.
type Reg = arch.Reg

// General-purpose registers in hardware encoding order.
const (
	RAX Reg = iota
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	// RIP is a pseudo-register used for RIP-relative memory operands.
	RIP
	// RegNone marks an absent base or index register.
	RegNone = arch.RegNone
)

// ValidReg reports whether r names a real x86-64 general-purpose
// register (RIP and RegNone are not).
func ValidReg(r Reg) bool { return r < RIP }

// ArgumentRegs lists the System-V AMD64 integer argument registers in
// call order. The calling-convention validation rule in the paper
// (§IV-E) permits these to be read before being written.
var ArgumentRegs = [6]Reg{RDI, RSI, RDX, RCX, R8, R9}

// CalleeSavedRegs lists the System-V AMD64 callee-saved registers.
var CalleeSavedRegs = [6]Reg{RBX, RBP, R12, R13, R14, R15}

// IsCalleeSaved reports whether r must be preserved across calls under
// the System-V AMD64 ABI.
func IsCalleeSaved(r Reg) bool {
	for _, c := range CalleeSavedRegs {
		if r == c {
			return true
		}
	}
	return false
}

// RegSet is a bitmask over general-purpose registers.
type RegSet = arch.RegSet
