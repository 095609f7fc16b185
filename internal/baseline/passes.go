// Package baseline re-implements the detection strategies the paper
// measures on top of call frames (Figure 5) and the pattern-driven
// tools it compares against (Table III). Each strategy is a composable
// pass over a Detection; each tool is a fixed pass pipeline with the
// strictness profile the paper describes in §II-B and §IV.
package baseline

import (
	"sort"

	"fetch/internal/arch"
	"fetch/internal/disasm"
	"fetch/internal/ehframe"
	"fetch/internal/elfx"
	"fetch/internal/tailcall"
	"fetch/internal/xref"
)

// Detection is the evolving function-start set of a strategy run.
type Detection struct {
	Funcs map[uint64]bool
	Res   *disasm.Result
	Sec   *ehframe.Section
	// Sess is the incremental disassembly session created by Rec;
	// later passes re-analyze through it instead of resweeping.
	Sess *disasm.Session
}

// Clone deep-copies the function set (the disassembly and session are
// shared — session runs depend only on their seed list, so branching
// strategy chains off one session is deterministic).
func (d *Detection) Clone() *Detection {
	cp := &Detection{
		Funcs: make(map[uint64]bool, len(d.Funcs)),
		Res:   d.Res,
		Sec:   d.Sec,
		Sess:  d.Sess,
	}
	for a := range d.Funcs {
		cp.Funcs[a] = true
	}
	return cp
}

// sortedFuncs returns starts in address order.
func (d *Detection) sortedFuncs() []uint64 {
	out := make([]uint64, 0, len(d.Funcs))
	for a := range d.Funcs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func safeOpts() disasm.Options {
	return disasm.Options{ResolveJumpTables: true, NonReturning: true}
}

// FDE seeds a detection with the raw PC Begin values (the "FDE" rows).
func FDE(img *elfx.Image) (*Detection, error) {
	eh, ok := img.Section(".eh_frame")
	if !ok {
		return &Detection{Funcs: map[uint64]bool{}}, nil
	}
	sec, err := ehframe.Decode(eh.Bytes(), eh.Addr)
	if err != nil {
		return nil, err
	}
	d := &Detection{Funcs: make(map[uint64]bool), Sec: sec}
	for _, s := range sec.FunctionStarts() {
		d.Funcs[s] = true
	}
	return d, nil
}

// Rec runs safe recursive disassembly from the current starts plus the
// entry point, adding direct-call targets ("+Rec").
func Rec(img *elfx.Image, d *Detection) *Detection {
	out := d.Clone()
	seeds := out.sortedFuncs()
	if img.IsExec(img.Entry) {
		seeds = append(seeds, img.Entry)
	}
	out.Sess = disasm.NewSession(img, safeOpts())
	res := out.Sess.Extend(seeds)
	for f := range res.Funcs {
		out.Funcs[f] = true
	}
	out.Res = res
	return out
}

// CFR applies GHIDRA-style control-flow repairing ("+CFR"): the
// function start following a (sloppily detected) non-returning call is
// removed when no other control flow reaches it. The sloppiness —
// treating conditionally non-returning callees as always non-returning
// — is what makes the pass remove true starts (§IV-C).
func CFR(img *elfx.Image, d *Detection) *Detection {
	out := d.Clone()
	if out.Res == nil {
		return out
	}
	sloppyNonRet := make(map[uint64]bool, len(out.Res.NonRet)+len(out.Res.CondNonRet))
	for a := range out.Res.NonRet {
		sloppyNonRet[a] = true
	}
	for a := range out.Res.CondNonRet {
		sloppyNonRet[a] = true
	}
	starts := out.sortedFuncs()
	for _, in := range out.Res.Insts {
		if in.Op != arch.OpCall || !sloppyNonRet[in.Target] {
			continue
		}
		// The next detected start after the call site, within a
		// plausible padding distance.
		i := sort.Search(len(starts), func(k int) bool { return starts[k] > in.Addr })
		if i >= len(starts) {
			continue
		}
		next := starts[i]
		if next-in.Addr > 96 {
			continue
		}
		if len(out.Res.RefsTo(next)) == 0 {
			delete(out.Funcs, next)
		}
	}
	return out
}

// Thunk applies GHIDRA's thunk heuristic: a detected function whose
// first instruction is a direct jump is a thunk, and the jump target
// becomes a new function start — a false positive whenever the target
// is the middle of another function.
func Thunk(img *elfx.Image, d *Detection) *Detection {
	out := d.Clone()
	for _, s := range d.sortedFuncs() {
		w, ok := img.BytesToSectionEnd(s)
		if !ok {
			continue
		}
		in, err := img.ISA().Decode(w, s)
		if err != nil || in.Op != arch.OpJmp || !in.HasTarget {
			continue
		}
		if img.IsExec(in.Target) {
			out.Funcs[in.Target] = true
		}
	}
	return out
}

// Fmerg applies ANGR's function-merging heuristic ("+Fmerg"): two
// adjacent detected functions connected by a jump that is the only
// outgoing transfer of the first and the only incoming transfer of the
// second are merged — deleting the second start even when it is a real
// function reached by a tail call.
func Fmerg(img *elfx.Image, d *Detection) *Detection {
	out := d.Clone()
	if out.Res == nil {
		return out
	}
	starts := d.sortedFuncs()
	for i := 0; i+1 < len(starts); i++ {
		a, b := starts[i], starts[i+1]
		refs := out.Res.RefsTo(b)
		if len(refs) != 1 || refs[0].From < a || refs[0].From >= b {
			continue
		}
		j, ok := out.Res.Inst(refs[0].From)
		if !ok || j.Op != arch.OpJmp {
			continue
		}
		// The jump must be the only transfer leaving [a, b).
		sole := true
		for _, in := range out.Res.InstsIn(a, b) {
			if in == j {
				continue
			}
			if (in.IsCall() || in.IsBranch()) && in.HasTarget &&
				(in.Target < a || in.Target >= b) {
				sole = false
				break
			}
		}
		if sole {
			delete(out.Funcs, b)
		}
	}
	return out
}

// Align applies ANGR's alignment handling: when a detected function
// begins with padding instructions, the first non-padding instruction
// becomes an additional function start (3,973 false positives in the
// paper's corpus).
func Align(img *elfx.Image, d *Detection) *Detection {
	out := d.Clone()
	for _, s := range d.sortedFuncs() {
		addr := s
		padded := false
		for k := 0; k < 8; k++ {
			w, ok := img.BytesToSectionEnd(addr)
			if !ok {
				break
			}
			in, err := img.ISA().Decode(w, addr)
			if err != nil {
				break
			}
			if in.IsPadding() {
				padded = true
				addr = in.Next()
				continue
			}
			if padded {
				out.Funcs[addr] = true
			}
			break
		}
	}
	return out
}

// sigStyle selects a prologue-matching profile.
type sigStyle uint8

const (
	// sigGhidraStrict matches the canonical frame prologue at aligned
	// gap starts and validates by decoding forward — finding nothing
	// new in the paper's corpus and introducing nothing false.
	sigGhidraStrict sigStyle = iota + 1
	// sigAngrLoose matches looser byte patterns at any gap offset
	// without validation — a few finds, thousands of false positives.
	sigAngrLoose
)

// matchPrologue reports whether code at addr looks like a function
// prologue under the profile.
func matchPrologue(img *elfx.Image, addr uint64, style sigStyle) bool {
	b, err := img.Bytes(addr, 8)
	if err != nil {
		return false
	}
	// Skip an endbr64 marker.
	if b[0] == 0xF3 && b[1] == 0x0F && b[2] == 0x1E && b[3] == 0xFA {
		b2, err2 := img.Bytes(addr+4, 4)
		if err2 != nil {
			return false
		}
		b = append(b[:4:4], b2...)[4:]
	}
	pushRbpMov := b[0] == 0x55 && b[1] == 0x48 && b[2] == 0x89 && b[3] == 0xE5
	switch style {
	case sigGhidraStrict:
		return pushRbpMov
	case sigAngrLoose:
		if pushRbpMov {
			return true
		}
		// push r64 followed by a REX-prefixed instruction.
		if b[0]&0xF8 == 0x50 && b[1]&0xF0 == 0x40 {
			return true
		}
		return false
	}
	return false
}

// validateBySweep decodes forward from addr requiring n clean
// instructions (the GHIDRA-style post-match validation).
func validateBySweep(img *elfx.Image, addr uint64, n int) bool {
	for k := 0; k < n; k++ {
		w, ok := img.BytesToSectionEnd(addr)
		if !ok {
			return false
		}
		in, err := img.ISA().Decode(w, addr)
		if err != nil {
			return false
		}
		if in.Terminates() {
			return true
		}
		addr = in.Next()
	}
	return true
}

// Fsig applies prologue matching over the non-disassembled gaps
// ("+Fsig"), with the strictness of the named tool.
func Fsig(img *elfx.Image, d *Detection, style sigStyle) *Detection {
	out := d.Clone()
	if out.Res == nil {
		return out
	}
	for _, gap := range disasm.Gaps(img, out.Res) {
		switch style {
		case sigGhidraStrict:
			// Only aligned gap starts are considered.
			addr := (gap.Start + 15) &^ 15
			if addr < gap.End && matchPrologue(img, addr, style) &&
				validateBySweep(img, addr, 8) {
				out.Funcs[addr] = true
			}
		case sigAngrLoose:
			for addr := gap.Start; addr < gap.End; addr++ {
				if matchPrologue(img, addr, style) {
					out.Funcs[addr] = true
					break // one match per gap piece
				}
			}
		}
	}
	return out
}

// tcallStyle selects an unsafe tail-call heuristic profile.
type tcallStyle uint8

const (
	// tcallGhidra reasons about naive linear extents that end at the
	// first ret, so branches over early returns look like tail calls
	// (97,339 false positives in the paper's corpus).
	tcallGhidra tcallStyle = iota + 1
	// tcallAngr only considers terminal unconditional jumps leaving
	// the owning FDE range, without a stack-height check.
	tcallAngr
)

// Tcall applies the unsafe tail-call heuristics ("+Tcall").
func Tcall(img *elfx.Image, d *Detection, style tcallStyle) *Detection {
	out := d.Clone()
	if out.Res == nil {
		return out
	}
	switch style {
	case tcallGhidra:
		for _, s := range d.sortedFuncs() {
			end := naiveExtentEnd(img, s)
			// Follow the chain of decoded instructions from s: each
			// step takes the first instruction at or past the end of
			// the previous one.
			next := s
			for _, in := range out.Res.InstsIn(s, end) {
				if in.Addr < next {
					continue
				}
				if (in.Op == arch.OpJmp || in.Op == arch.OpJcc) && in.HasTarget {
					if (in.Target < s || in.Target >= end) && img.IsExec(in.Target) {
						out.Funcs[in.Target] = true
					}
				}
				next = in.Next()
			}
		}
	case tcallAngr:
		ranges := fdeRangesOf(d)
		for _, in := range out.Res.Insts {
			if in.Op != arch.OpJmp || !in.HasTarget || !img.IsExec(in.Target) {
				continue
			}
			r, ok := rangeCovering(ranges, in.Addr)
			if !ok {
				continue
			}
			if in.Target < r.Start || in.Target >= r.End {
				out.Funcs[in.Target] = true
			}
		}
	}
	return out
}

// naiveExtentEnd decodes linearly from s to the first ret — the extent
// model behind the GHIDRA-style heuristic's false positives.
func naiveExtentEnd(img *elfx.Image, s uint64) uint64 {
	addr := s
	for k := 0; k < 2000; k++ {
		w, ok := img.BytesToSectionEnd(addr)
		if !ok {
			return addr
		}
		in, err := img.ISA().Decode(w, addr)
		if err != nil {
			return addr
		}
		addr = in.Next()
		if in.Op == arch.OpRet {
			return addr
		}
	}
	return addr
}

func fdeRangesOf(d *Detection) []disasm.FuncRange {
	if d.Sec == nil {
		return nil
	}
	out := make([]disasm.FuncRange, 0, len(d.Sec.FDEs))
	for _, f := range d.Sec.FDEs {
		out = append(out, disasm.FuncRange{Start: f.PCBegin, End: f.End()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

func rangeCovering(ranges []disasm.FuncRange, addr uint64) (disasm.FuncRange, bool) {
	i := sort.Search(len(ranges), func(k int) bool { return ranges[k].End > addr })
	if i < len(ranges) && ranges[i].Start <= addr {
		return ranges[i], true
	}
	return disasm.FuncRange{}, false
}

// Scan applies ANGR's linear scan ("+Scan"): every correctly
// disassembling piece of a gap begins a new "function" — including
// every padding run, which is why the pass eliminated full accuracy on
// every binary in the paper.
func Scan(img *elfx.Image, d *Detection) *Detection {
	out := d.Clone()
	if out.Res == nil {
		return out
	}
	for _, gap := range disasm.Gaps(img, out.Res) {
		addr := gap.Start
		pieceStart := true
		for addr < gap.End {
			w, ok := img.BytesToSectionEnd(addr)
			if !ok {
				break
			}
			if m := gap.End - addr; uint64(len(w)) > m {
				w = w[:m]
			}
			in, err := img.ISA().Decode(w, addr)
			if err != nil {
				addr += uint64(img.ISA().InstAlign())
				pieceStart = true
				continue
			}
			if pieceStart {
				out.Funcs[addr] = true
				pieceStart = false
			}
			addr = in.Next()
		}
	}
	return out
}

// FsigGhidra applies GHIDRA-strict prologue matching.
func FsigGhidra(img *elfx.Image, d *Detection) *Detection { return Fsig(img, d, sigGhidraStrict) }

// FsigAngr applies ANGR-loose prologue matching.
func FsigAngr(img *elfx.Image, d *Detection) *Detection { return Fsig(img, d, sigAngrLoose) }

// TcallGhidra applies the GHIDRA-style unsafe tail-call heuristic.
func TcallGhidra(img *elfx.Image, d *Detection) *Detection { return Tcall(img, d, tcallGhidra) }

// TcallAngr applies the ANGR-style unsafe tail-call heuristic.
func TcallAngr(img *elfx.Image, d *Detection) *Detection { return Tcall(img, d, tcallAngr) }

// Xref applies the §IV-E conservative function-pointer detection on
// top of a detection (the "+Xref" rows of Figure 5c).
func Xref(img *elfx.Image, d *Detection) *Detection {
	out := d.Clone()
	if out.Res == nil {
		return out
	}
	newly := xref.Detect(img, out.Res, out.Funcs, xref.Options{
		KnownRanges: fdeRangesOf(out),
		Session:     out.Sess,
	})
	for _, a := range newly {
		out.Funcs[a] = true
	}
	if len(newly) > 0 {
		// The historical seed list is the sorted accepted set, not an
		// append of newly — Rerun keeps that exact order while reusing
		// the decode cache.
		seeds := out.sortedFuncs()
		if out.Sess != nil {
			out.Res = out.Sess.Rerun(seeds)
		} else {
			out.Res = disasm.Recursive(img, seeds, safeOpts())
		}
		for f := range out.Res.Funcs {
			out.Funcs[f] = true
		}
	}
	return out
}

// SafeTailCall applies Algorithm 1 (the "+Tcall" of Figure 5c,
// i.e. FETCH's safe variant rather than the heuristics above).
func SafeTailCall(img *elfx.Image, d *Detection) *Detection {
	out := d.Clone()
	if out.Res == nil || out.Sec == nil {
		return out
	}
	tc := tailcall.Run(tailcall.Input{
		Img:   img,
		Sec:   out.Sec,
		Res:   out.Res,
		Funcs: out.Funcs,
		DataRefCount: func(a uint64) int {
			return xref.DataRefCount(img, a)
		},
		Sess: out.Sess,
	})
	out.Funcs = tc.Funcs
	return out
}
