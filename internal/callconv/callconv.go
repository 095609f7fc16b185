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
//
// The check reads its instructions from a disasm.Session when the
// caller holds one: the recursive pass has already decoded nearly
// every instruction an FDE start or tail-call target leads to, so the
// read is a walk over the session's decode cache. Without a session
// it decodes from the image. Either way the verdict and its extent are
// functions of the bytes alone.
package callconv

import (
	"fetch/internal/arch"
	"fetch/internal/disasm"
	"fetch/internal/elfx"
)

// maxWalk bounds the validation walk; convention violations show up
// within the first few instructions of a bogus "entry".
const maxWalk = 48

// Validate reports whether the code at addr can plausibly be a function
// entry under the §IV-E register-initialization rule. The walk follows
// straight-line flow (continuing past conditional branches on the
// fall-through side and through calls, which define the caller-saved
// set) and ends at any unconditional transfer. sess, when non-nil, is
// a session over img whose decode cache supplies the instructions.
func Validate(img *elfx.Image, sess *disasm.Session, addr uint64) bool {
	ok, _ := ValidateExtent(img, sess, addr)
	return ok
}

// ValidateExtent is Validate that also reports the end of the code
// bytes the verdict read: the walk reads [addr, end) and nothing else
// of the image but its section layout, so the verdict holds for any
// image with the same layout and the same bytes there. A decode that
// failed counts as having read the ISA's longest instruction; an
// address without section bytes reads nothing.
func ValidateExtent(img *elfx.Image, sess *disasm.Session, addr uint64) (ok bool, end uint64) {
	isa := img.ISA()
	end = addr
	// Rule (iv) judges the numbered GPR file only, and lets the
	// argument registers be read uninitialized.
	gpr := arch.RegSet(1)<<isa.RegCount() - 1
	var args arch.RegSet
	for _, r := range isa.ArgRegs() {
		args = args.Add(r)
	}
	// The stack pointer is always live. The frame register is
	// deliberately NOT pre-initialized: reading the caller's frame
	// pointer at entry (other than push-saving it) is the tell of a
	// mid-function address.
	written := arch.RegSet(0).Add(isa.SPReg())
	// ABIs with a link register (aarch64) leave the return address in
	// it: a leaf reading it back at RET is a legitimate entry.
	if ra, ok := isa.RetAddrReg(); ok {
		written = written.Add(ra)
	}

	var buf arch.Inst
	for steps := 0; steps < maxWalk; steps++ {
		in, hasBytes := instAt(img, isa, sess, addr, &buf)
		if !hasBytes {
			return false, end
		}
		if in == nil {
			return false, addr + uint64(isa.MaxInstLen())
		}
		end = in.Next()
		if isa.Reads(in)&gpr&^(args|written) != 0 {
			return false, end
		}
		written = written.Union(isa.Writes(in))
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

// instAt returns the instruction at addr as disasm.Session.InstAt
// does: from sess's decode cache when sess is non-nil, else decoded
// from img into buf.
func instAt(img *elfx.Image, isa arch.ISA, sess *disasm.Session, addr uint64, buf *arch.Inst) (in *arch.Inst, hasBytes bool) {
	if sess != nil {
		return sess.InstAt(addr)
	}
	window, ok := img.BytesToSectionEnd(addr)
	if !ok {
		return nil, false
	}
	d, err := isa.Decode(window, addr)
	if err != nil {
		return nil, true
	}
	*buf = d
	return buf, true
}
