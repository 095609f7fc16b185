// Package callconv implements the calling-convention validation rule of
// §IV-E: at a legitimate function entry, every register other than the
// ABI's integer argument registers (rdi..r9 on System-V x64, x0..x7 on
// aarch64) and the stack pointer must be initialized before it is used.
// Saving a callee-saved register with a push does not count as a use.
//
// The rule rejects pointers into the middle of functions (which read
// live callee-saved or temporary state) and the hand-written FDE
// errors of §V-A (whose skewed entry misdecodes into instructions that
// read uninitialized registers), while accepting real entries.
package callconv

import (
	"fetch/internal/arch"
	"fetch/internal/elfx"
)

// maxWalk bounds the validation walk; convention violations show up
// within the first few instructions of a bogus "entry".
const maxWalk = 48

// Validate reports whether the code at addr can plausibly be a function
// entry under the §IV-E register-initialization rule. The walk follows
// straight-line flow (continuing past conditional branches on the
// fall-through side and through calls, which define the caller-saved
// set) and ends at any unconditional transfer.
func Validate(img *elfx.Image, addr uint64) bool {
	ok, _ := ValidateExtent(img, addr)
	return ok
}

// ValidateExtent is Validate that also reports the end of the code
// bytes the verdict read: the walk reads [addr, end) and nothing else
// of the image but its section layout, so the verdict holds for any
// image with the same layout and the same bytes there. A decode that
// failed counts as having read the ISA's longest instruction.
func ValidateExtent(img *elfx.Image, addr uint64) (ok bool, end uint64) {
	isa := img.ISA()
	end = addr
	var written arch.RegSet
	// The stack pointer is always live. The frame register is
	// deliberately NOT pre-initialized: reading the caller's frame
	// pointer at entry (other than push-saving it) is the tell of a
	// mid-function address.
	written = written.Add(isa.SPReg())
	// ABIs with a link register (aarch64) leave the return address in
	// it: a leaf reading it back at RET is a legitimate entry.
	if ra, ok := isa.RetAddrReg(); ok {
		written = written.Add(ra)
	}

	for steps := 0; steps < maxWalk; steps++ {
		window, ok := img.BytesToSectionEnd(addr)
		if !ok {
			return false, end
		}
		in, err := isa.Decode(window, addr)
		if err != nil {
			return false, addr + uint64(isa.MaxInstLen())
		}
		end = in.Next()
		reads := isa.Reads(&in)
		for r := arch.Reg(0); int(r) < isa.RegCount(); r++ {
			if !reads.Has(r) {
				continue
			}
			if isa.IsArgReg(r) || written.Has(r) {
				continue
			}
			return false, end
		}
		written = written.Union(isa.Writes(&in))
		if in.Op == arch.OpEnter || (in.Op == arch.OpMov && len(in.Args) == 2 &&
			in.Args[0].Kind == arch.KindReg && in.Args[0].Reg == isa.FrameReg()) {
			written = written.Add(isa.FrameReg())
		}
		switch in.Op {
		case arch.OpRet, arch.OpJmp, arch.OpJmpInd, arch.OpUd2, arch.OpHlt, arch.OpInt3:
			return true, end
		}
		addr = in.Next()
	}
	return true, end
}
