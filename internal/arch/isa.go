package arch

// GateEffect is the memoized first-argument classification of one
// instruction — the §IV-C error/error_at_line backward-slice step,
// generalized over the ISA's first integer argument register (rdi on
// x64, x0 on aarch64).
type GateEffect uint8

// Gate effects, in the order the session's rdi tracking expects.
const (
	// GateKeep: the instruction leaves the tracked state alone (no
	// gate-register write, or a call — calls are gated separately).
	GateKeep GateEffect = iota
	GateSetUnknown
	GateSetZero
	GateSetNonZero
)

// IsGateTest reports whether in is the entry-block self-test of the
// gate register ("test rdi, rdi" / "tst x0, x0") that marks the
// error/error_at_line shape of §IV-C. The check is structural over the
// shared operand model, so it serves every backend.
func IsGateTest(in *Inst, gate Reg) bool {
	return in.Op == OpTest && len(in.Args) == 2 &&
		in.Args[0].Kind == KindReg && in.Args[0].Reg == gate &&
		in.Args[1].Kind == KindReg && in.Args[1].Reg == gate
}

// JumpTableCtx is the window a jump-table resolver gets into the walk
// that hit the indirect jump: the already-decoded instructions before
// it, the image's data bytes, and the result sinks for what the
// resolver proved. The disassembler implements it over its committed
// result; the resolver never sees session internals.
type JumpTableCtx interface {
	// InstEndingAt returns the decoded instruction that ends exactly at
	// addr, if the walk decoded one.
	InstEndingAt(addr uint64) (*Inst, bool)
	// ReadU64 and ReadU32 read little-endian words from the image.
	ReadU64(addr uint64) (uint64, error)
	ReadU32(addr uint64) (uint32, error)
	// IsExec reports whether addr lies in an executable section.
	IsExec(addr uint64) bool
	// RecordTableRead records a data interval the resolution consulted;
	// cached verdicts are only reusable while those bytes are unchanged.
	RecordTableRead(lo, hi uint64)
	// RecordTableBase records a proven table base address so pointer
	// detection does not treat it as a function-pointer candidate.
	// Resolvers call it for every table they resolve.
	RecordTableBase(table uint64)
}

// ISA is the backend interface the analysis pipeline consumes: decode,
// the register facts behind the §IV-E calling-convention rule and the
// §IV-C gate slice, per-instruction dataflow, the bounded jump-table
// analysis, and the DWARF CFI constants of the ABI. Implementations
// are stateless values, safe for concurrent use.
type ISA interface {
	// Name is the short backend name ("x64", "a64").
	Name() string
	// Machine is the ELF e_machine value the backend decodes.
	Machine() uint16
	// MaxInstLen is the longest possible instruction encoding in bytes.
	MaxInstLen() int
	// InstAlign is the instruction alignment (1 for x86-64, 4 for
	// aarch64); linear sweeps resynchronize by this stride.
	InstAlign() int

	// Decode decodes the instruction at the start of b (addr is the
	// virtual address of b[0], used to resolve PC-relative targets).
	Decode(b []byte, addr uint64) (Inst, error)

	// SPReg, FrameReg, and GateReg identify the stack pointer, the
	// conventional frame pointer, and the first integer argument
	// register (the §IV-C gate).
	SPReg() Reg
	FrameReg() Reg
	GateReg() Reg
	// ArgRegs lists the integer argument registers in call order.
	ArgRegs() []Reg
	// RetAddrReg returns the link register carrying the return address
	// at function entry, when the ABI uses one (x30 on aarch64). ok is
	// false when the return address lives on the stack (x86-64); the
	// §IV-E validation treats a link register as initialized at entry.
	RetAddrReg() (r Reg, ok bool)
	// RegCount is the size of the numbered GPR file: registers
	// [0, RegCount) are the ones the §IV-E rule judges.
	RegCount() int

	// Reads and Writes return the register sets the instruction reads
	// and writes under the backend's dataflow model (see the x64
	// package for the modeling choices mirrored from §IV-E).
	Reads(in *Inst) RegSet
	Writes(in *Inst) RegSet
	// StackDelta returns the change the instruction applies to the
	// stack pointer and whether it is statically known.
	StackDelta(in *Inst) (delta int64, known bool)
	// GateEffect classifies the instruction's effect on the tracked
	// first-argument state.
	GateEffect(in *Inst) GateEffect

	// ResolveJumpTable runs the backend's bounded jump-table idiom
	// analysis (§IV-C) for the indirect jump jmp, reading context and
	// recording findings through ctx. maxEntries caps the table size.
	// A nil/empty return means "unresolved" — the safe choice.
	ResolveJumpTable(ctx JumpTableCtx, jmp *Inst, maxEntries int64) []uint64

	// CFISPReg is the DWARF register number of the stack pointer in
	// this ABI's CFI (7 on x86-64, 31 on aarch64); CFIRAReg is the
	// return-address column (16 / 30). CFIEntryOffset is the CFA offset
	// from SP at function entry (8 on x86-64 — the pushed return
	// address — and 0 on aarch64), which is also the bias between a CFA
	// offset and the paper's §V-B "stack height".
	CFISPReg() uint64
	CFIRAReg() uint64
	CFIEntryOffset() int64
}

// registry maps ELF e_machine values to registered backends. Backends
// register from init functions; lookups start only after program init,
// so no locking is needed.
var (
	registry   = map[uint16]ISA{}
	defaultISA ISA
)

// Register adds a backend under its Machine value.
func Register(isa ISA) { registry[isa.Machine()] = isa }

// SetDefault sets the backend ForMachine(0) resolves to — the ISA of
// images that never declared a machine (hand-built test images).
func SetDefault(isa ISA) { defaultISA = isa }

// ForMachine returns the backend registered for an ELF e_machine
// value. Machine 0 resolves to the default backend (x86-64 in this
// codebase); unknown machines return nil — loaders reject them before
// any analysis runs.
func ForMachine(machine uint16) ISA {
	if machine == 0 {
		return defaultISA
	}
	return registry[machine]
}
