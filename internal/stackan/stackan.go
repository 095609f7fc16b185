// Package stackan provides the stack-height analyses compared in
// Table IV of the paper. The CFI-recorded heights (package ehframe) are
// the baseline; this package implements:
//
//   - Precise: a CFG-based dataflow analysis used by Algorithm 1's
//     ablation variant,
//   - AngrStyle and DyninstStyle: deliberately degraded analyses
//     reproducing the incompleteness and inaccuracy classes the paper
//     measures ("side effects of other errors and defects of
//     engineering", §V-B) — mis-modeled enter/leave and unresolved
//     jump tables.
package stackan

import (
	"fetch/internal/arch"
	"fetch/internal/disasm"
	"fetch/internal/elfx"
)

// Height is an analysis result at one instruction address: the stack
// height (bytes pushed since function entry) holding immediately
// before the instruction executes.
type Height struct {
	H     int64
	Known bool
}

// Style selects one of the analysis variants.
type Style uint8

// Analysis styles.
const (
	Precise Style = iota + 1
	AngrStyle
	DyninstStyle
)

// String names the style.
func (s Style) String() string {
	switch s {
	case Precise:
		return "precise"
	case AngrStyle:
		return "angr"
	case DyninstStyle:
		return "dyninst"
	}
	return "?"
}

// instLimit mirrors real tools' per-function engineering caps; beyond
// it the degraded analyses stop (recall loss).
const (
	angrInstLimit    = 96
	dyninstInstLimit = 48
	preciseInstLimit = 4096
)

// jtProbeOpts is the bounded jump-table resolution walk configuration.
var jtProbeOpts = disasm.Options{ResolveJumpTables: true, MaxInsts: 256}

// Analyze computes per-instruction heights for the function spanning
// [start, end).
func Analyze(img *elfx.Image, start, end uint64, style Style) map[uint64]Height {
	return AnalyzeWithSession(nil, img, start, end, style)
}

// AnalyzeWithSession is Analyze with an optional shared disassembly
// session: the jump-table resolution probe then reuses the binary's
// decode cache across functions and callers (tailcall's static-height
// ablation, the Table IV driver) instead of re-decoding from scratch.
// Results are byte-identical with or without a session.
func AnalyzeWithSession(sess *disasm.Session, img *elfx.Image, start, end uint64, style Style) map[uint64]Height {
	isa := img.ISA()
	out := make(map[uint64]Height)
	// The resolution walk depends only on the function start, so one
	// probe serves every indirect jump of the function.
	var jtRes *disasm.Result
	jumpTable := func() *disasm.Result {
		if jtRes == nil {
			if sess != nil {
				jtRes = sess.Probe([]uint64{start}, jtProbeOpts)
			} else {
				jtRes = disasm.Recursive(img, []uint64{start}, jtProbeOpts)
			}
		}
		return jtRes
	}
	limit := preciseInstLimit
	switch style {
	case AngrStyle:
		limit = angrInstLimit
	case DyninstStyle:
		limit = dyninstInstLimit
	}

	type state struct {
		addr uint64
		h    int64
		ok   bool
	}
	work := []state{{addr: start, h: 0, ok: true}}
	steps := 0
	// enteredFrame tracks a recognizable rbp-framing prologue so the
	// precise analysis can model leave.
	enteredFrame := false

	for len(work) > 0 {
		st := work[len(work)-1]
		work = work[:len(work)-1]
		for {
			if steps >= limit {
				return out
			}
			if st.addr < start || st.addr >= end {
				break
			}
			if prev, seen := out[st.addr]; seen {
				if prev.Known && st.ok && prev.H != st.h {
					// Join conflict. Precise and Dyninst mark the
					// location unknown; the angr variant keeps the
					// first value seen (its inaccuracy class).
					if style != AngrStyle {
						out[st.addr] = Height{Known: false}
					}
				}
				break
			}
			window, ok := img.BytesToSectionEnd(st.addr)
			if !ok {
				break
			}
			in, err := isa.Decode(window, st.addr)
			if err != nil {
				break
			}
			steps++
			out[st.addr] = Height{H: st.h, Known: st.ok}

			// Effect of the instruction on rsp (negative = stack grows).
			var delta int64
			known := true
			switch {
			case in.Op == arch.OpEnter:
				if style == DyninstStyle {
					// Dyninst-style mis-models enter as a bare push.
					delta = -8
				} else {
					delta, _ = isa.StackDelta(&in)
				}
				enteredFrame = true
			case in.Op == arch.OpLeave:
				switch style {
				case AngrStyle, DyninstStyle:
					// The degraded variants mis-model leave as a bare
					// pop, ignoring the rsp = rbp restore.
					delta = 8
				default:
					if enteredFrame && st.ok {
						// rsp = rbp; pop rbp: height returns to zero.
						delta = st.h
					} else {
						known = false
					}
				}
			case in.Op == arch.OpMov && len(in.Args) == 2 &&
				in.Args[0].Kind == arch.KindReg && in.Args[0].Reg == isa.FrameReg() &&
				in.Args[1].Kind == arch.KindReg && in.Args[1].Reg == isa.SPReg():
				enteredFrame = true
			default:
				delta, known = isa.StackDelta(&in)
			}
			// Height counts bytes pushed: it moves opposite to rsp.
			nextH := st.h - delta
			nextOK := st.ok && known

			switch in.Op {
			case arch.OpJcc:
				if in.Target >= start && in.Target < end {
					work = append(work, state{addr: in.Target, h: nextH, ok: nextOK})
				}
				st = state{addr: in.Next(), h: nextH, ok: nextOK}
				continue
			case arch.OpJmp:
				if in.Target >= start && in.Target < end {
					st = state{addr: in.Target, h: nextH, ok: nextOK}
					continue
				}
			case arch.OpJmpInd:
				resolve := true
				if style == AngrStyle {
					// The angr variant only resolves tables residing
					// in data sections; inline .text tables stay
					// opaque (its incompleteness class).
					if m, ok := in.IndirectMem(); ok && m.Disp > 0 {
						if s, ok2 := img.SectionAt(uint64(m.Disp)); !ok2 || s.Flags&elfx.FlagExec != 0 {
							resolve = false
						}
					} else {
						resolve = false
					}
				}
				if resolve {
					res := jumpTable()
					for _, t := range res.JTTargets[in.Addr] {
						if t >= start && t < end {
							work = append(work, state{addr: t, h: nextH, ok: nextOK})
						}
					}
				}
			case arch.OpRet, arch.OpUd2, arch.OpHlt, arch.OpInt3:
			default:
				st = state{addr: in.Next(), h: nextH, ok: nextOK}
				continue
			}
			break
		}
	}
	return out
}
