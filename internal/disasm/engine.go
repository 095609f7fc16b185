// Package disasm implements the disassembly machinery of the paper's
// §IV: safe recursive descent from seed addresses (FDE starts, symbols,
// the entry point) treating call targets as new function starts, with
// conservative handling of the four error-prone constructs — jump
// tables (bounded, DYNINST-style), indirect calls (skipped),
// tail calls (not detected here), and non-returning functions
// (fixed-point analysis with the error/error_at_line first-argument
// backward slice). A strict mode records the §IV-E validation errors
// used to vet function-pointer candidates, and a linear sweep supports
// the NUCLEUS- and scan-style baselines.
package disasm

import (
	"cmp"
	"slices"
	"sort"

	"fetch/internal/arch"
	"fetch/internal/elfx"
)

// ErrorKind classifies strict-mode disassembly errors (§IV-E).
type ErrorKind uint8

// Strict-mode error kinds.
const (
	// ErrInvalidOpcode: bytes that cannot decode.
	ErrInvalidOpcode ErrorKind = iota + 1
	// ErrMidInstruction: decoding ran into the middle of a previously
	// decoded instruction.
	ErrMidInstruction
	// ErrIntoFunction: a control transfer targets the middle of a
	// previously detected function.
	ErrIntoFunction
	// ErrOutOfSection: control flow left the executable sections.
	ErrOutOfSection
)

// Error is one strict-mode validation error.
type Error struct {
	Kind ErrorKind
	At   uint64 // address where the problem was observed
}

// FuncRange is a known function extent (from FDEs) used for the
// jump-into-function check.
type FuncRange struct {
	Start uint64
	End   uint64
}

// contains reports whether addr lies in the range.
func (r FuncRange) contains(addr uint64) bool { return addr >= r.Start && addr < r.End }

// Options configure a recursive disassembly run.
type Options struct {
	// ResolveJumpTables enables the bounded DYNINST-style jump-table
	// analysis; unresolvable indirect jumps just end the path.
	ResolveJumpTables bool
	// NonReturning enables the fixed-point non-returning analysis; when
	// off, every call is assumed to return.
	NonReturning bool
	// Strict records §IV-E validation errors and ends the walk at the
	// first one. A walk's path never depends on Strict: a strict walk
	// visits the instructions a non-strict walk over the same seeds
	// visits, in the same order, up to its first error.
	Strict bool
	// KnownRanges are previously detected function extents for the
	// jump-into-function check (strict mode).
	KnownRanges []FuncRange
	// MaxInsts bounds total decoded instructions (0 = no bound).
	MaxInsts int
}

// Ref is one code-level reference: the instruction at From transfers
// control to Target by a direct call or jump, or through a resolved
// jump table.
type Ref struct {
	Target, From uint64
}

// compareRefs orders references by target, then source.
func compareRefs(a, b Ref) int {
	if c := cmp.Compare(a.Target, b.Target); c != 0 {
		return c
	}
	return cmp.Compare(a.From, b.From)
}

// Result is the outcome of a recursive disassembly.
type Result struct {
	// Insts holds every decoded instruction once, sorted by address.
	// Inst and InstsIn look instructions up by address. A Probe result
	// holds them, and its Refs, in walk order until Session.Sort.
	Insts []*arch.Inst
	// Funcs is the detected function-start set: seeds plus direct
	// call targets.
	Funcs map[uint64]bool
	// Refs holds every code-level reference, sorted by Target, then
	// From; RefsTo returns the references to one address. A jump table
	// that names a target twice refers to it twice.
	Refs []Ref
	// Constants holds pointer-sized constants harvested from operands.
	Constants map[uint64]bool
	// NonRet marks function starts determined never to return.
	NonRet map[uint64]bool
	// CondNonRet marks error/error_at_line-like functions that return
	// iff their first argument is zero.
	CondNonRet map[uint64]bool
	// JTTargets maps resolved indirect-jump instructions to their
	// jump-table targets.
	JTTargets map[uint64][]uint64
	// TableBases records the table addresses of resolved jump tables;
	// pointer detection must not treat them as function-pointer
	// candidates (they are known data).
	TableBases map[uint64]bool
	// Errors holds the strict-mode validation error that ended the
	// walk: at most one, and none for a non-strict walk.
	Errors []Error
	// owner maps every byte of decoded instructions to the
	// instruction start covering it. It is nil on the results of
	// probes and bounded walks, which returned the borrowed workspace.
	owner *ownerIndex
	// tableReads records the data intervals consulted by jump-table
	// resolution during this walk. A cached verdict derived from the
	// walk is only reusable while these bytes are unchanged; the delta
	// path invalidates reuse when a changed range intersects them.
	tableReads []Interval
	// sawMid records that the walk arrived in the middle of a
	// previously decoded instruction or decoded one overlapping it —
	// the order-sensitive walk events (see SawMid).
	sawMid bool
	// isa is the backend the walk decoded with; the inference passes
	// use it for the gate-register test and backward-scan bounds.
	isa arch.ISA
}

// Covered reports whether addr lies inside any decoded instruction. It
// is always false on a Probe result, which carries no coverage index.
func (r *Result) Covered(addr uint64) bool {
	_, ok := r.owner.get(addr)
	return ok
}

// InstStartAt returns the start of the instruction covering addr. A
// Probe result carries no coverage index and reports no instruction.
func (r *Result) InstStartAt(addr uint64) (uint64, bool) {
	return r.owner.get(addr)
}

// TableReads returns the data intervals consulted by jump-table
// resolution during the walk that produced this result.
func (r *Result) TableReads() []Interval {
	return append([]Interval(nil), r.tableReads...)
}

// Inst returns the instruction decoded at addr.
func (r *Result) Inst(addr uint64) (*arch.Inst, bool) {
	i := r.instIndex(addr)
	if i < len(r.Insts) && r.Insts[i].Addr == addr {
		return r.Insts[i], true
	}
	return nil, false
}

// InstsIn returns the instructions that start in [lo, hi), in address
// order. The slice shares Insts' storage.
func (r *Result) InstsIn(lo, hi uint64) []*arch.Inst {
	if hi <= lo {
		return nil
	}
	return r.Insts[r.instIndex(lo):r.instIndex(hi)]
}

// instIndex returns the position of the first instruction at or above
// addr.
func (r *Result) instIndex(addr uint64) int {
	i, _ := slices.BinarySearchFunc(r.Insts, addr, func(in *arch.Inst, a uint64) int {
		return cmp.Compare(in.Addr, a)
	})
	return i
}

// RefsTo returns the references to target, sorted by source. The slice
// shares Refs' storage.
func (r *Result) RefsTo(target uint64) []Ref {
	lo, _ := slices.BinarySearchFunc(r.Refs, Ref{Target: target}, compareRefs)
	tail := r.Refs[lo:]
	return tail[:sort.Search(len(tail), func(k int) bool { return tail[k].Target != target })]
}

// InstFacts returns the coverage skeleton of the result: every decoded
// instruction's start and length, sorted by address.
func (r *Result) InstFacts() []InstFact {
	out := make([]InstFact, len(r.Insts))
	for i, in := range r.Insts {
		out[i] = InstFact{in.Addr, uint16(in.Len)}
	}
	return out
}

// SawMid reports whether the walk behind this result arrived in the
// middle of a previously decoded instruction, or decoded an
// instruction overlapping one decoded before it. Either makes the walk
// order-sensitive: the first stops a path the instruction set does not
// show, and the second leaves the shared bytes to the later decode, so
// BuildCoverage over InstFacts (which fills in address order) can
// answer InstStartAt differently. Delta re-analysis refuses to reuse
// verdicts derived from such a walk.
func (r *Result) SawMid() bool { return r.sawMid }

// SortedFuncs returns detected function starts in address order.
func (r *Result) SortedFuncs() []uint64 {
	out := make([]uint64, 0, len(r.Funcs))
	for a := range r.Funcs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rdiState tracks the §IV-C backward-slice approximation of the first
// argument register along a straight-line decode path.
type rdiState uint8

const (
	rdiUnknown rdiState = iota
	rdiZero
	rdiNonZero
)

// Recursive runs recursive descent from the seed addresses. With
// opts.NonReturning it iterates disassembly and non-returning inference
// to a fixed point so fall-through never crosses a call that cannot
// return (§IV-C).
//
// Each call creates a throwaway Session, so every decode starts cold;
// iterative consumers should hold a Session and use Extend/Retract/
// Probe to reuse decodes across rounds.
func Recursive(img *elfx.Image, seeds []uint64, opts Options) *Result {
	return NewSession(img, opts).Extend(seeds)
}

func setsEqual(a, b map[uint64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
