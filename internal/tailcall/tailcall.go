// Package tailcall implements Algorithm 1 of the paper (§V-B): fixing
// FDE-introduced false function starts by proving that the jump
// connecting two call frames cannot be a tail call and merging the
// frames, plus the calling-convention sweep that removes hand-written
// FDE errors (Figure 6b).
//
// A jump is a tail call only when (1) the stack pointer at the jump
// site sits right below the return address — stack height zero, taken
// from CFI-recorded heights, never from static analysis (Table IV's
// argument) — (2) the target satisfies the calling convention, and
// (3) the target is referenced somewhere else. A non-tail jump whose
// target owns an FDE and has no other reference identifies a distant
// part of the same non-contiguous function, which is merged away.
// Functions whose CFI lacks complete height information are skipped
// wholesale (the §V-C residue).
package tailcall

import (
	"sort"

	"fetch/internal/arch"
	"fetch/internal/callconv"
	"fetch/internal/disasm"
	"fetch/internal/ehframe"
	"fetch/internal/elfx"
	"fetch/internal/stackan"
)

// Input carries the state Algorithm 1 operates on.
type Input struct {
	Img *elfx.Image
	Sec *ehframe.Section
	// Res is the accumulated safe disassembly (provides decoded
	// instructions and code-level references).
	Res *disasm.Result
	// Funcs is the current detected function-start set; it is not
	// mutated — the output carries the corrected copy.
	Funcs map[uint64]bool
	// DataRefCount reports how many data-section pointer slots hold a
	// given address (the §IV-E conservative reference collection).
	DataRefCount func(uint64) int
	// Sess, when set, lets the static-height ablation's jump-table
	// probes reuse the pipeline's shared decode cache.
	Sess *disasm.Session

	// UseStaticHeights replaces CFI-recorded heights with the static
	// dataflow analysis — the ablation the paper argues against via
	// Table IV (static heights are incomplete and inaccurate).
	UseStaticHeights bool
	// DisableRefCriterion drops the "target referenced elsewhere"
	// requirement from tail-call detection — the ablation showing why
	// the criterion is needed to avoid false tail calls.
	DisableRefCriterion bool

	// Obs, when set, observes the pure per-site quantities Algorithm 1
	// consumed: every calling-convention verdict at its consumption
	// point, and every candidate jump with its height lookup. The
	// delta-analysis recorder replays decisions from these without
	// re-running the sweep.
	Obs *Observer
}

// Observer receives Algorithm 1's per-site inputs as they are
// consumed (see Input.Obs). Either hook may be nil.
type Observer struct {
	// OnConv reports one calling-convention verdict consumption, with
	// the end of the code bytes the verdict read ([addr, end), see
	// callconv.ValidateExtent).
	OnConv func(addr, end uint64, ok bool)
	// OnJump reports one candidate jump considered within the FDE
	// starting at fde: the jump site, its target, and the height
	// lookup's outcome.
	OnJump func(fde uint64, j JumpObs)
}

// JumpObs is one observed candidate jump.
type JumpObs struct {
	Addr   uint64
	Target uint64
	// HOK reports whether a height was known at the jump site; HZero
	// reports that the known height was zero (the tail-call
	// precondition).
	HOK, HZero bool
}

// Output reports the corrections.
type Output struct {
	// Funcs is the corrected function-start set.
	Funcs map[uint64]bool
	// Merged maps each removed part start to the function it was
	// merged into.
	Merged map[uint64]uint64
	// TailNew lists targets newly added by tail-call detection.
	TailNew []uint64
	// CFIErrRemoved lists FDE starts removed by the convention sweep.
	CFIErrRemoved []uint64
	// SkippedIncomplete counts FDE functions skipped for lacking
	// complete CFI height information.
	SkippedIncomplete int
}

// Run executes the convention sweep followed by Algorithm 1.
func Run(in Input) Output {
	out := Output{
		Funcs:  make(map[uint64]bool, len(in.Funcs)),
		Merged: make(map[uint64]uint64),
	}
	for f := range in.Funcs {
		out.Funcs[f] = true
	}
	dataRefs := in.DataRefCount
	if dataRefs == nil {
		dataRefs = func(uint64) int { return 0 }
	}

	fdeAt := make(map[uint64]*ehframe.FDE, len(in.Sec.FDEs))
	for _, f := range in.Sec.FDEs {
		fdeAt[f.PCBegin] = f
	}

	// CFI heights are evaluated against the image's ABI facts: the
	// DWARF stack-pointer column and the CFA offset at entry (8 on
	// x86-64, 0 on aarch64).
	isa := in.Img.ISA()
	cfiSP, cfiEntry := isa.CFISPReg(), isa.CFIEntryOffset()

	entryOK := func(a uint64) bool {
		v, end := callconv.ValidateExtent(in.Img, a)
		if in.Obs != nil && in.Obs.OnConv != nil {
			in.Obs.OnConv(a, end, v)
		}
		return v
	}

	// Hand-written FDE errors: an FDE start that violates the calling
	// convention cannot be a function entry (§V-B, the "3 false
	// positives").
	for _, f := range in.Sec.FDEs {
		if out.Funcs[f.PCBegin] && !entryOK(f.PCBegin) {
			delete(out.Funcs, f.PCBegin)
			out.CFIErrRemoved = append(out.CFIErrRemoved, f.PCBegin)
		}
	}

	// refsOtherThan counts references to t besides the jump j itself.
	refsOtherThan := func(t, j uint64) int {
		n := 0
		for _, r := range in.Res.RefsTo(t) {
			if r.From != j {
				n++
			}
		}
		if in.Res.Constants[t] {
			n++
		}
		n += dataRefs(t)
		return n
	}

	for _, fde := range in.Sec.FDEs {
		if !out.Funcs[fde.PCBegin] {
			continue
		}
		ht := fde.HeightsABI(cfiSP, cfiEntry)
		var static map[uint64]stackan.Height
		if in.UseStaticHeights {
			static = stackan.AnalyzeWithSession(in.Sess, in.Img, fde.PCBegin, fde.End(), stackan.Precise)
		} else if !ht.Complete {
			out.SkippedIncomplete++
			continue
		}
		for _, inst := range in.Res.InstsIn(fde.PCBegin, fde.End()) {
			if (inst.Op != arch.OpJmp && inst.Op != arch.OpJcc) || !inst.HasTarget {
				continue
			}
			t := inst.Target
			if fde.Covers(t) {
				continue // jump inside the function
			}
			var h int64
			var ok bool
			if in.UseStaticHeights {
				s, found := static[inst.Addr]
				h, ok = s.H, found && s.Known
			} else {
				h, ok = ht.HeightAt(inst.Addr)
			}
			if in.Obs != nil && in.Obs.OnJump != nil {
				in.Obs.OnJump(fde.PCBegin, JumpObs{
					Addr: inst.Addr, Target: t, HOK: ok, HZero: ok && h == 0,
				})
			}
			if !ok {
				continue
			}
			isTailCall := false
			if h == 0 {
				refOK := refsOtherThan(t, inst.Addr) > 0 || in.DisableRefCriterion
				if refOK && entryOK(t) {
					if !out.Funcs[t] {
						out.Funcs[t] = true
						out.TailNew = append(out.TailNew, t)
					}
					isTailCall = true
				}
			}
			if !isTailCall && out.Funcs[t] {
				if _, hasFDE := fdeAt[t]; hasFDE && refsOtherThan(t, inst.Addr) == 0 {
					delete(out.Funcs, t)
					out.Merged[t] = fde.PCBegin
				}
			}
		}
	}
	sort.Slice(out.TailNew, func(i, j int) bool { return out.TailNew[i] < out.TailNew[j] })
	sort.Slice(out.CFIErrRemoved, func(i, j int) bool { return out.CFIErrRemoved[i] < out.CFIErrRemoved[j] })
	return out
}
