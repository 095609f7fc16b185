package synth

import (
	"fmt"
	"math/rand"

	"fetch/internal/ehframe"
	"fetch/internal/groundtruth"
	"fetch/internal/x64"
)

// frameKind selects the CFA style of a generated function.
type frameKind uint8

const (
	frameRSP frameKind = iota + 1 // CFA stays rsp-relative: complete heights
	frameRBP                      // CFA switches to rbp: incomplete heights
)

// funcClass is the generator-side taxonomy (richer than the ground
// truth classes, which it maps onto).
type funcClass uint8

const (
	clsNormal funcClass = iota + 1
	clsMain
	clsExit      // the exit-like non-returning leaf
	clsError     // the error/error_at_line-like conditional non-return
	clsAsm       // hand-written asm without FDE, call-reachable
	clsTailFDE   // compiled function reachable only via one tail call
	clsTailAsm   // asm function reachable only via one tail call
	clsIndirAsm  // asm function reachable only via function pointer
	clsUnreach   // asm function referenced nowhere
	clsClangTerm // __clang_call_terminate
	clsCFIErr    // function whose hand-written FDE begins one byte early
	clsThunkMid  // thunk jumping into the middle of another function
	clsICF       // byte-identical duplicate leaf body (ICF-style clone)
	clsXrefChain // pointer-chain link: next link's address sits past the validation walk bound
)

// callRef is one direct call the body must emit.
type callRef struct {
	sym string
	// errArg: for calls to the error-like function, the first-argument
	// constant (0 = returning, nonzero = non-returning call site).
	errArg int32
	isErr  bool
}

// funcSpec fully describes one function to generate.
type funcSpec struct {
	idx   int
	name  string
	class funcClass
	reach groundtruth.Reach

	frame     frameKind
	pushRegs  []x64.Reg
	frameSize int32
	numOps    int
	// useEnter: old-style enter/leave framing with rsp-relative CFI —
	// the construct the degraded stack-height analyses mis-model
	// (Table IV's precision gap).
	useEnter bool

	callees   []callRef
	tailCall  string // symbol tail-called at the end (after epilogue)
	jumpTable int    // number of cases; 0 = none
	picTable  bool   // position-independent (table-relative) entries
	// caseCallees are called from inside jump-table case blocks: only
	// tools that resolve the table ever see these call sites.
	caseCallees []string
	// noEndbr suppresses the endbr64 marker (prologue-less shape).
	noEndbr bool
	// caseOnly marks functions whose sole call site lives in a
	// jump-table case block.
	caseOnly   bool
	earlyRet   bool
	nonRetTail bool // end with a branch to a call of the error-like fn with nonzero arg
	startPad   int  // leading alignment NOPs inside the FDE range
	split      bool // non-contiguous: emit a cold part
	splitRet   bool // cold part returns instead of jumping back
	thunkMidOf string

	hasFDE bool
	hasSym bool
	nonRet bool
	// truncFDE halves this function's FDE PCRange (PC Begin stays
	// exact); overlapFDE plants an extra bogus FDE at the .mid offset.
	truncFDE   bool
	overlapFDE bool

	// dataPtrSlot: this function's address is stored in .data.
	dataPtrSlot bool
	// chainNext: the next xref-chain link's symbol, materialized as a
	// movabs immediate deep in this link's body ("" = chain tail).
	chainNext string
	// codePtrFrom: index of a function that materializes this
	// function's address with a RIP-relative lea (-1 = none).
	codePtrFrom int
	// codePtrCalls: symbols this function calls indirectly through a
	// RIP-relative lea + call reg sequence.
	codePtrCalls []string
}

// cfiAt pairs a chunk offset with a CFI instruction taking effect there.
type cfiAt struct {
	off int
	in  ehframe.CFI
}

// chunk is the generated machine code of one function or cold part,
// before layout.
type chunk struct {
	name    string
	code    []byte
	fixups  []x64.Fixup
	exports map[string]int // extra symbol → offset
	cfi     []cfiAt
	spec    *funcSpec
	isPart  bool
	parent  string
	hasFDE  bool
	hasSym  bool
	// fdeSkew: FDE PC Begin = chunk address + fdeSkew (fdeSkew 0 for
	// correct FDEs; the CFI-error functions place the true entry at
	// offset 1 while the FDE begins at offset 0).
	symOff int // symbol/true-start offset within the chunk
	isData bool
	align  int
	// mis16: force the chunk to land 16-misaligned (addr % 16 == 8) so
	// strictly-aligned matchers skip it while looser ones hit it.
	mis16 bool

	addr uint64  // assigned at layout
	sec  *secBuf // executable section buffer the chunk landed in
	off  int     // byte offset within sec.data
}

// dwarfReg maps hardware register numbers to DWARF numbers.
var dwarfReg = map[x64.Reg]uint64{
	x64.RAX: 0, x64.RCX: 2, x64.RDX: 1, x64.RBX: 3,
	x64.RSP: 7, x64.RBP: 6, x64.RSI: 4, x64.RDI: 5,
	x64.R8: 8, x64.R9: 9, x64.R10: 10, x64.R11: 11,
	x64.R12: 12, x64.R13: 13, x64.R14: 14, x64.R15: 15,
}

// cgen wraps an assembler with CFI and stack-height tracking.
type cgen struct {
	a      x64.Asm
	cfi    []cfiAt
	height int64 // bytes pushed since entry
	rbpCFA bool  // CFA has been re-based on rbp: stop emitting offsets
	rng    *rand.Rand
	// written tracks registers initialized so far (for generating
	// calling-convention-respecting filler).
	written x64.RegSet
}

func (g *cgen) note(in ehframe.CFI) {
	g.cfi = append(g.cfi, cfiAt{off: g.a.Len(), in: in})
}

func (g *cgen) noteOffset() {
	if !g.rbpCFA {
		g.note(ehframe.CFI{Op: ehframe.CFADefCFAOffset, Offset: g.height + 8})
	}
}

func (g *cgen) push(r x64.Reg) {
	g.a.PushReg(r)
	g.height += 8
	g.noteOffset()
	if x64.IsCalleeSaved(r) && !g.rbpCFA {
		g.note(ehframe.CFI{Op: ehframe.CFAOffset, Reg: dwarfReg[r], Offset: g.height + 8})
	}
}

func (g *cgen) pop(r x64.Reg) {
	g.a.PopReg(r)
	g.height -= 8
	g.noteOffset()
}

func (g *cgen) subRSP(n int32) {
	if n == 0 {
		return
	}
	g.a.SubRSP(n)
	g.height += int64(n)
	g.noteOffset()
}

func (g *cgen) addRSP(n int32) {
	if n == 0 {
		return
	}
	g.a.AddRSP(n)
	g.height -= int64(n)
	g.noteOffset()
}

// scratchRegs are the caller-saved temporaries filler code draws from.
var scratchRegs = []x64.Reg{x64.RAX, x64.RCX, x64.RDX, x64.R10, x64.R11}

// readable returns a register that is legal to read here: an argument
// register or anything already written.
func (g *cgen) readable() x64.Reg {
	cands := []x64.Reg{x64.RDI, x64.RSI}
	for _, r := range scratchRegs {
		if g.written.Has(r) {
			cands = append(cands, r)
		}
	}
	for _, r := range x64.CalleeSavedRegs {
		if r != x64.RBP && g.written.Has(r) {
			cands = append(cands, r)
		}
	}
	return cands[g.rng.Intn(len(cands))]
}

// filler emits one semantically harmless, convention-respecting body
// instruction.
func (g *cgen) filler() {
	dst := scratchRegs[g.rng.Intn(len(scratchRegs))]
	switch g.rng.Intn(7) {
	case 0:
		g.a.MovRegReg(dst, g.readable())
	case 1:
		g.a.MovRegImm32(dst, int32(g.rng.Intn(1<<16)))
	case 2:
		g.a.XorRegReg(dst)
	case 3:
		src := g.readable()
		g.a.MovRegReg(dst, src)
		g.a.AddRegImm(dst, int32(g.rng.Intn(256))+1)
	case 4:
		g.a.LeaRegMem(dst, g.readable(), int32(g.rng.Intn(64)))
	case 5:
		if g.height >= 16 {
			// A pure store writes no register: dst must not be
			// marked initialized.
			g.a.MovMemReg(x64.RSP, int32(g.rng.Intn(2))*8, g.readable())
			return
		}
		g.a.MovRegReg(dst, g.readable())
	case 6:
		src := g.readable()
		g.a.MovRegReg(dst, src)
		g.a.ShlRegImm(dst, uint8(g.rng.Intn(4)+1))
	}
	g.written = g.written.Add(dst)
}

// emitCall sets up the first argument and calls the symbol.
func (g *cgen) emitCall(c callRef) {
	if c.isErr {
		if c.errArg == 0 {
			g.a.XorRegReg(x64.RDI)
		} else {
			g.a.MovRegImm32(x64.RDI, c.errArg)
		}
	} else {
		switch g.rng.Intn(3) {
		case 0:
			g.a.XorRegReg(x64.RDI)
		case 1:
			g.a.MovRegImm32(x64.RDI, int32(g.rng.Intn(128)))
		case 2: // leave rdi as-is (pass through)
		}
	}
	g.a.CallSym(c.sym)
	for _, r := range []x64.Reg{x64.RAX, x64.RCX, x64.RDX, x64.R10, x64.R11} {
		g.written = g.written.Add(r)
	}
}

// emitFunc generates the chunk(s) for one function: the hot chunk and,
// for non-contiguous functions, the cold part chunk.
func emitFunc(spec *funcSpec, rng *rand.Rand) (*chunk, *chunk, error) {
	switch spec.class {
	case clsExit:
		return emitExit(spec)
	case clsError:
		return emitError(spec)
	case clsAsm, clsTailAsm, clsIndirAsm, clsUnreach:
		return emitAsm(spec, rng)
	case clsClangTerm:
		return emitClangTerm(spec)
	case clsThunkMid:
		return emitThunk(spec)
	case clsICF:
		return emitICF(spec)
	case clsXrefChain:
		return emitChainLink(spec)
	}
	return emitCompiled(spec, rng)
}

// chainSpacerInsts pads each xref-chain link's body past the §IV-E
// candidate-validation walk bound (xref's maxValidationInsts, 2000
// instructions): the capped probe accepts the link without ever
// seeing the movabs that references the next one, so only the
// committed extension of the accepted link surfaces it — forcing one
// pointer-detection round per link.
const chainSpacerInsts = 2100

// emitChainLink produces one xref-chain function: no FDE, a
// convention-respecting straight-line body long enough to exhaust the
// validation walk, then (unless it is the tail) the next link's
// address materialized as a movabs immediate, then ret.
func emitChainLink(spec *funcSpec) (*chunk, *chunk, error) {
	var a x64.Asm
	a.MovRegReg(x64.RAX, x64.RDI)
	for k := 0; k < chainSpacerInsts; k++ {
		a.AddRegImm(x64.RAX, 1)
	}
	if spec.chainNext != "" {
		a.MovRegImm64Sym(x64.RDX, spec.chainNext)
	}
	a.Ret()
	code, fixups, err := a.Finish()
	if err != nil {
		return nil, nil, err
	}
	return &chunk{
		name: spec.name, code: code, fixups: fixups,
		spec: spec, hasFDE: false, hasSym: spec.hasSym, align: 16,
	}, nil, nil
}

// emitCompiled produces a realistic compiled C/C++ function.
func emitCompiled(spec *funcSpec, rng *rand.Rand) (*chunk, *chunk, error) {
	g := &cgen{rng: rng}
	exports := map[string]int{}

	// Leading alignment NOPs inside the FDE range (ANGR's alignment
	// false-positive trigger).
	if spec.startPad > 0 {
		g.a.Nop(spec.startPad)
	}
	if spec.class == clsCFIErr {
		// One garbage byte before the true entry; the hand-written
		// FDE will claim the function starts here (Figure 6b). The
		// byte 0x03 makes any decode from the FDE start read rbx/rbp
		// before initialization, failing the §IV-E convention check.
		g.a.AppendRaw(0x03)
	}
	trueEntry := g.a.Len()

	if rng.Intn(2) == 0 && !spec.noEndbr {
		g.a.Endbr64()
	}

	// Prologue.
	switch {
	case spec.useEnter:
		g.a.Enter(uint16(spec.frameSize))
		g.height += 8 + int64(spec.frameSize)
		g.noteOffset()
		g.note(ehframe.CFI{Op: ehframe.CFAOffset, Reg: ehframe.DwRBP, Offset: 16})
	case spec.frame == frameRBP:
		g.push(x64.RBP)
		g.a.MovRegReg(x64.RBP, x64.RSP)
		g.note(ehframe.CFI{Op: ehframe.CFADefCFARegister, Reg: ehframe.DwRBP})
		g.rbpCFA = true
	}
	if !spec.useEnter {
		for _, r := range spec.pushRegs {
			g.push(r)
		}
		g.subRSP(spec.frameSize)
	}

	// Initialize pushed callee-saved registers so the body may read
	// them (and so code in the middle of the function reads registers
	// a fresh "function" could not legally read — the property the
	// §IV-E validation relies on to reject mid-function pointers).
	for _, r := range spec.pushRegs {
		if r == x64.RBP {
			continue
		}
		g.a.MovRegReg(r, x64.RDI)
		g.written = g.written.Add(r)
	}

	// Early return: a branch over a complete epilogue + ret. This is
	// the shape that defeats naive "extent ends at the first ret"
	// reasoning in unsafe tail-call heuristics.
	if spec.earlyRet {
		g.a.CmpRegImm(x64.RDI, int32(rng.Intn(4)))
		g.a.Jcc(x64.CondNE, "noearly")
		g.note(ehframe.CFI{Op: ehframe.CFARememberState})
		saveH := g.height
		g.emitEpilogue(spec)
		g.a.Ret()
		g.note(ehframe.CFI{Op: ehframe.CFARestoreState})
		g.height = saveH
		g.a.Label("noearly")
	}

	// Non-contiguous split: conditionally jump to the cold part.
	if spec.split {
		g.a.CmpRegImm(x64.RDI, 0x1F)
		g.a.JccSym(x64.CondE, spec.name+".cold")
		exports[spec.name+".resume"] = g.a.Len()
	}
	splitHeight := g.height

	// Body: filler interleaved with the assigned calls.
	calls := append([]callRef(nil), spec.callees...)
	for k := 0; k < spec.numOps; k++ {
		g.filler()
		if len(calls) > 0 && rng.Intn(3) == 0 {
			g.emitCall(calls[0])
			calls = calls[1:]
		}
	}
	for _, c := range calls {
		g.emitCall(c)
	}
	// Indirect calls through code-materialized pointers: the constant
	// operand is what §IV-E xref collection harvests from code.
	for _, sym := range spec.codePtrCalls {
		g.a.LeaRIP(x64.RAX, sym, 0)
		g.a.CallReg(x64.RAX)
		g.written = g.written.Add(x64.RAX)
	}

	// Export a mid-function label for thunk targets.
	exports[spec.name+".mid"] = g.a.Len()
	g.filler()

	// Jump table: the classic absolute idiom or the PIC idiom
	// (lea/movsxd/add/jmp with table-relative entries).
	if spec.jumpTable > 0 {
		n := spec.jumpTable
		g.a.CmpRegImm(x64.RDI, int32(n-1))
		g.a.Jcc(x64.CondA, "jtdef")
		if spec.picTable {
			g.a.LeaRIP(x64.R11, spec.name+".tbl", 0)
			g.a.MovsxdRegMemIdx(x64.RAX, x64.R11, x64.RDI)
			g.a.AddRegReg(x64.RAX, x64.R11)
			g.a.JmpReg(x64.RAX)
			g.written = g.written.Add(x64.R11)
		} else {
			g.a.JmpTableAbs(x64.RDI, spec.name+".tbl")
		}
		caseCalls := append([]string(nil), spec.caseCallees...)
		for k := 0; k < n; k++ {
			g.a.Label(fmt.Sprintf("jtcase%d", k))
			exports[fmt.Sprintf("%s.c%d", spec.name, k)] = g.a.Len()
			g.a.MovRegImm32(x64.RAX, int32(k*3+1))
			if len(caseCalls) > 0 {
				// A call visible only to analyses that resolve the
				// table — the callee's sole reference.
				g.a.MovRegImm32(x64.RDI, int32(k))
				g.a.CallSym(caseCalls[0])
				caseCalls = caseCalls[1:]
			}
			g.a.Jmp("jtend")
		}
		g.a.Label("jtdef")
		g.a.XorRegReg(x64.RAX)
		g.a.Label("jtend")
	}

	// Conditional non-returning branch: jump forward to a block that
	// calls the error-like function with a nonzero argument; the block
	// sits after the final ret and never falls through anywhere.
	if spec.nonRetTail {
		g.a.CmpRegImm(x64.RDI, 0x7F)
		g.a.Jcc(x64.CondE, "errblk")
	}

	// Epilogue.
	g.note(ehframe.CFI{Op: ehframe.CFARememberState})
	preH := g.height
	g.emitEpilogue(spec)
	if spec.tailCall != "" {
		g.a.JmpSym(spec.tailCall)
	} else {
		g.a.Ret()
	}
	g.note(ehframe.CFI{Op: ehframe.CFARestoreState})
	g.height = preH

	// Post-ret blocks.
	if spec.nonRetTail {
		g.a.Label("errblk")
		g.a.MovRegImm32(x64.RDI, 2)
		g.a.CallSym(symError)
		// No code after: the error-like callee never returns here.
	}

	code, fixups, err := g.a.Finish()
	if err != nil {
		return nil, nil, fmt.Errorf("synth: emit %s: %w", spec.name, err)
	}
	symOff := 0
	if spec.class == clsCFIErr {
		symOff = trueEntry // one byte past the garbage prefix
	}
	hot := &chunk{
		name:    spec.name,
		code:    code,
		fixups:  fixups,
		exports: exports,
		cfi:     g.cfi,
		spec:    spec,
		hasFDE:  spec.hasFDE,
		hasSym:  spec.hasSym,
		symOff:  symOff,
		align:   16,
	}

	var cold *chunk
	if spec.split {
		cold, err = emitColdPart(spec, splitHeight, rng)
		if err != nil {
			return nil, nil, err
		}
	}
	return hot, cold, nil
}

// emitEpilogue restores the stack and callee-saved registers.
func (g *cgen) emitEpilogue(spec *funcSpec) {
	if spec.useEnter {
		g.a.Leave()
		g.height = 0
		g.noteOffset()
		return
	}
	g.addRSP(spec.frameSize)
	for k := len(spec.pushRegs) - 1; k >= 0; k-- {
		g.pop(spec.pushRegs[k])
	}
	if spec.frame == frameRBP {
		g.a.PopReg(x64.RBP)
		g.height -= 8
		g.rbpCFA = false
		g.note(ehframe.CFI{Op: ehframe.CFADefCFA, Reg: ehframe.DwRSP, Offset: 8})
	}
}

// emitColdPart generates the distant part of a non-contiguous function.
func emitColdPart(spec *funcSpec, height int64, rng *rand.Rand) (*chunk, error) {
	g := &cgen{rng: rng, height: height}
	if spec.frame == frameRBP {
		// The owning function's CFA is rbp-based: emit the matching
		// (incomplete, non-rsp) CFI so Algorithm 1 must skip it.
		g.note(ehframe.CFI{Op: ehframe.CFADefCFAOffset, Offset: 16})
		g.note(ehframe.CFI{Op: ehframe.CFADefCFARegister, Reg: ehframe.DwRBP})
		g.rbpCFA = true
	} else {
		g.note(ehframe.CFI{Op: ehframe.CFADefCFAOffset, Offset: height + 8})
	}
	// Real .cold parts typically begin with argument shuffles or calls
	// into abort paths, so they pass the §IV-E convention check — the
	// paper removes them by merging (Algorithm 1), never by
	// validation, and finds exactly the hand-written FDEs when
	// convention-checking FDE starts (§V-B).
	g.a.MovRegReg(x64.RAX, x64.RDI)
	for k := 0; k < 2+rng.Intn(4); k++ {
		g.filler()
	}
	if rng.Intn(3) == 0 {
		g.emitCall(callRef{sym: symExit1Arg()})
	}
	if spec.splitRet {
		g.emitEpilogue(spec)
		g.a.Ret()
	} else {
		g.a.JmpSym(spec.name + ".resume")
	}
	code, fixups, err := g.a.Finish()
	if err != nil {
		return nil, fmt.Errorf("synth: emit %s.cold: %w", spec.name, err)
	}
	return &chunk{
		name:   spec.name + ".cold",
		code:   code,
		fixups: fixups,
		cfi:    g.cfi,
		spec:   spec,
		isPart: true,
		parent: spec.name,
		hasFDE: true,
		hasSym: spec.hasSym,
		align:  8,
	}, nil
}

// Well-known synthetic runtime symbols.
const (
	symExit  = "xexit"
	symError = "xerror"
)

// symExit1Arg names a callee for cold paths; calling the error-like
// function with argument zero keeps the path returning.
func symExit1Arg() string { return symError }

// emitExit produces the exit-like non-returning leaf: the syscall-exit
// sequence ending in a trap, as in libc's _exit.
func emitExit(spec *funcSpec) (*chunk, *chunk, error) {
	var a x64.Asm
	a.MovRegImm32(x64.RAX, 60) // SYS_exit
	a.Syscall()
	// The kernel never returns; the trailing trap makes the
	// non-return structurally visible.
	a.Ud2()
	code, fixups, err := a.Finish()
	if err != nil {
		return nil, nil, err
	}
	return &chunk{
		name: spec.name, code: code, fixups: fixups,
		spec: spec, hasFDE: spec.hasFDE, hasSym: spec.hasSym, align: 16,
	}, nil, nil
}

// emitError produces the error/error_at_line-like function: returns
// when the first argument is zero, exits otherwise (§IV-C special case).
func emitError(spec *funcSpec) (*chunk, *chunk, error) {
	var a x64.Asm
	a.TestRegReg(x64.RDI, x64.RDI)
	a.JccShort(x64.CondNE, "die")
	a.Ret()
	a.Label("die")
	a.CallSym(symExit)
	code, fixups, err := a.Finish()
	if err != nil {
		return nil, nil, err
	}
	return &chunk{
		name: spec.name, code: code, fixups: fixups,
		spec: spec, hasFDE: spec.hasFDE, hasSym: spec.hasSym, align: 16,
	}, nil, nil
}

// emitAsm produces a hand-written assembly function: no FDE, no
// standard prologue (so prologue matchers cannot find it), reads only
// argument registers (so the §IV-E validation accepts it).
func emitAsm(spec *funcSpec, rng *rand.Rand) (*chunk, *chunk, error) {
	var a x64.Asm
	a.MovRegReg(x64.RAX, x64.RDI)
	switch rng.Intn(3) {
	case 0:
		a.AddRegReg(x64.RAX, x64.RSI)
		a.ShlRegImm(x64.RAX, 2)
	case 1:
		a.XorRegReg(x64.RDX)
		a.AddRegImm(x64.RAX, 17)
		a.ImulRegReg(x64.RAX, x64.RDI)
	case 2:
		a.CmpRegImm(x64.RDI, 16)
		a.JccShort(x64.CondB, "small")
		a.SubRegImm(x64.RAX, 16)
		a.Label("small")
		a.AddRegImm(x64.RAX, 1)
	}
	a.Ret()
	code, fixups, err := a.Finish()
	if err != nil {
		return nil, nil, err
	}
	return &chunk{
		name: spec.name, code: code, fixups: fixups,
		spec: spec, hasFDE: false, hasSym: spec.hasSym, align: 16,
	}, nil, nil
}

// emitClangTerm produces a __clang_call_terminate clone: calls the
// exit-like function, no FDE.
func emitClangTerm(spec *funcSpec) (*chunk, *chunk, error) {
	var a x64.Asm
	a.PushReg(x64.RAX)
	a.CallSym(symExit)
	code, fixups, err := a.Finish()
	if err != nil {
		return nil, nil, err
	}
	return &chunk{
		name: spec.name, code: code, fixups: fixups,
		spec: spec, hasFDE: false, hasSym: spec.hasSym, align: 16,
	}, nil, nil
}

// emitICF produces an ICF-style clone: every instance emits the exact
// same leaf body (no fixups, no rng), so all copies are byte-identical
// at distinct addresses — each still a separate true function with its
// own FDE.
func emitICF(spec *funcSpec) (*chunk, *chunk, error) {
	var a x64.Asm
	a.MovRegReg(x64.RAX, x64.RDI)
	a.AddRegImm(x64.RAX, 42)
	a.ShlRegImm(x64.RAX, 1)
	a.AddRegReg(x64.RAX, x64.RSI)
	a.Ret()
	code, fixups, err := a.Finish()
	if err != nil {
		return nil, nil, err
	}
	return &chunk{
		name: spec.name, code: code, fixups: fixups,
		spec: spec, hasFDE: spec.hasFDE, hasSym: spec.hasSym, align: 16,
	}, nil, nil
}

// emitThunk produces a thunk that jumps into the middle of another
// function (the GHIDRA thunk-heuristic false-positive trigger).
func emitThunk(spec *funcSpec) (*chunk, *chunk, error) {
	var a x64.Asm
	a.JmpSym(spec.thunkMidOf + ".mid")
	code, fixups, err := a.Finish()
	if err != nil {
		return nil, nil, err
	}
	return &chunk{
		name: spec.name, code: code, fixups: fixups,
		spec: spec, hasFDE: spec.hasFDE, hasSym: spec.hasSym, align: 16,
	}, nil, nil
}
