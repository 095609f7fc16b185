package oracle

import (
	"fmt"
	"reflect"
	"sort"

	"fetch/internal/core"
	"fetch/internal/elfx"
	"fetch/internal/groundtruth"
	"fetch/internal/metrics"
)

// Violation is one broken invariant, with enough context to reproduce:
// the shape (profile/config name), the strategy, and the invariant.
type Violation struct {
	Shape     string
	Strategy  core.Strategy
	Invariant string
	Detail    string
}

// String renders the violation as a one-line reproduction recipe:
// shape, strategy flags, invariant, detail.
func (v Violation) String() string {
	return fmt.Sprintf("%s [rec=%v xref=%v tail=%v] %s: %s",
		v.Shape, v.Strategy.Recursive, v.Strategy.Xref, v.Strategy.TailCall,
		v.Invariant, v.Detail)
}

// missing returns up to 8 elements of a that are absent from b, sorted.
func missing(a, b map[uint64]bool) []uint64 {
	var out []uint64
	for x := range a {
		if !b[x] {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if len(out) > 8 {
		out = out[:8]
	}
	return out
}

// DiffReports compares every deterministic field of two Reports — the
// session ≡ scratch equivalence check, with the caller supplying both
// sides (CheckShape pairs core.Analyze against core.ScratchAnalyze).
func DiffReports(shape string, strat core.Strategy, got, want *core.Report) []Violation {
	var vs []Violation
	add := func(field, detail string) {
		vs = append(vs, Violation{shape, strat, "session-equivalence",
			fmt.Sprintf("%s: %s", field, detail)})
	}
	if !reflect.DeepEqual(got.Funcs, want.Funcs) {
		add("Funcs", fmt.Sprintf("%d vs %d starts; session-only %#x, scratch-only %#x",
			len(got.Funcs), len(want.Funcs),
			missing(got.Funcs, want.Funcs), missing(want.Funcs, got.Funcs)))
	}
	if !reflect.DeepEqual(got.FDEStarts, want.FDEStarts) {
		add("FDEStarts", fmt.Sprintf("%d vs %d", len(got.FDEStarts), len(want.FDEStarts)))
	}
	if !reflect.DeepEqual(got.XrefNew, want.XrefNew) {
		add("XrefNew", fmt.Sprintf("%#x vs %#x", got.XrefNew, want.XrefNew))
	}
	if !reflect.DeepEqual(got.TailNew, want.TailNew) {
		add("TailNew", fmt.Sprintf("%#x vs %#x", got.TailNew, want.TailNew))
	}
	if !reflect.DeepEqual(got.Merged, want.Merged) {
		add("Merged", fmt.Sprintf("%d vs %d entries", len(got.Merged), len(want.Merged)))
	}
	if !reflect.DeepEqual(got.CFIErrRemoved, want.CFIErrRemoved) {
		add("CFIErrRemoved", fmt.Sprintf("%#x vs %#x", got.CFIErrRemoved, want.CFIErrRemoved))
	}
	if got.SkippedIncomplete != want.SkippedIncomplete {
		add("SkippedIncomplete", fmt.Sprintf("%d vs %d", got.SkippedIncomplete, want.SkippedIncomplete))
	}
	if (got.Res == nil) != (want.Res == nil) {
		add("Res", "nil-ness differs")
	} else if got.Res != nil {
		if !reflect.DeepEqual(got.Res.Insts, want.Res.Insts) {
			add("Res.Insts", fmt.Sprintf("%d vs %d decoded", len(got.Res.Insts), len(want.Res.Insts)))
		}
		if !reflect.DeepEqual(got.Res.Funcs, want.Res.Funcs) {
			add("Res.Funcs", "disassembly start sets differ")
		}
		if !reflect.DeepEqual(got.Res.JTTargets, want.Res.JTTargets) {
			add("Res.JTTargets", "jump-table resolutions differ")
		}
		if !reflect.DeepEqual(got.Res.NonRet, want.Res.NonRet) {
			add("Res.NonRet", "non-return sets differ")
		}
		if !reflect.DeepEqual(got.Res.CondNonRet, want.Res.CondNonRet) {
			add("Res.CondNonRet", "conditional non-return sets differ")
		}
	}
	return vs
}

// CheckLattice asserts monotonicity along the paper's cumulative
// strategy ladder: each stage only adds detected starts, except the
// tail-call stage, whose removals must be exactly the starts it
// reports in Merged and CFIErrRemoved.
func CheckLattice(shape string, img *elfx.Image) []Violation {
	ladder := core.Lattice()
	reps := make([]*core.Report, len(ladder))
	for i, strat := range ladder {
		rep, err := core.Analyze(img, strat)
		if err != nil {
			return []Violation{{shape, strat, "lattice", "Analyze: " + err.Error()}}
		}
		reps[i] = rep
	}
	var vs []Violation
	names := []string{"FDE", "FDE+Rec", "FDE+Rec+Xref", "FETCH"}
	for i := 1; i < len(reps); i++ {
		prev, next := reps[i-1], reps[i]
		removedOK := map[uint64]bool{}
		if i == len(reps)-1 { // the tail-call step may remove, but only accountably
			for part := range next.Merged {
				removedOK[part] = true
			}
			for _, a := range next.CFIErrRemoved {
				removedOK[a] = true
			}
		}
		for a := range prev.Funcs {
			if !next.Funcs[a] && !removedOK[a] {
				vs = append(vs, Violation{shape, ladder[i], "lattice",
					fmt.Sprintf("start %#x present in %s but unaccountably absent in %s",
						a, names[i-1], names[i])})
			}
		}
		if !reflect.DeepEqual(prev.FDEStarts, next.FDEStarts) {
			vs = append(vs, Violation{shape, ladder[i], "lattice",
				fmt.Sprintf("FDEStarts differ between %s and %s", names[i-1], names[i])})
		}
	}
	return vs
}

// CheckAccounting asserts the internal consistency of one report.
func CheckAccounting(shape string, strat core.Strategy, rep *core.Report) []Violation {
	var vs []Violation
	add := func(format string, args ...any) {
		vs = append(vs, Violation{shape, strat, "accounting", fmt.Sprintf(format, args...)})
	}
	removed := map[uint64]bool{}
	for part := range rep.Merged {
		removed[part] = true
	}
	for _, a := range rep.CFIErrRemoved {
		removed[a] = true
	}
	// FDE floor: every FDE start survives unless explicitly removed.
	for _, a := range rep.FDEStarts {
		if !rep.Funcs[a] && !removed[a] {
			add("FDE start %#x dropped without being merged or removed", a)
		}
	}
	// Removed starts stay removed.
	for a := range removed {
		if rep.Funcs[a] {
			add("removed start %#x resurrected in Funcs", a)
		}
	}
	// Additions are accounted: still present, or removed later with a
	// record.
	for _, a := range append(append([]uint64(nil), rep.XrefNew...), rep.TailNew...) {
		if !rep.Funcs[a] && !removed[a] {
			add("added start %#x neither in Funcs nor accounted as removed", a)
		}
	}
	// FDEStarts are sorted and unique.
	for i := 1; i < len(rep.FDEStarts); i++ {
		if rep.FDEStarts[i-1] >= rep.FDEStarts[i] {
			add("FDEStarts not strictly increasing at index %d", i)
			break
		}
	}
	return vs
}

// CheckConvergence asserts the xref fixed point genuinely converged:
// every adversarial shape must reach a Detect round that accepts
// nothing within the safety bound. A truncated analysis (the failure
// mode the historical 3-round cap hid) is a violation on any shape the
// sweep generates.
func CheckConvergence(shape string, strat core.Strategy, rep *core.Report) []Violation {
	var vs []Violation
	if !rep.Stats.XrefConverged {
		vs = append(vs, Violation{shape, strat, "xref-convergence",
			fmt.Sprintf("pointer detection did not converge (%d iterations, truncated=%v)",
				rep.Stats.XrefIterations, rep.Stats.Truncated)})
	}
	if rep.Stats.Truncated != !rep.Stats.XrefConverged {
		vs = append(vs, Violation{shape, strat, "xref-convergence",
			fmt.Sprintf("Truncated=%v inconsistent with XrefConverged=%v",
				rep.Stats.Truncated, rep.Stats.XrefConverged)})
	}
	return vs
}

// CheckMetrics scores a report against the ground truth and asserts
// the consistency bounds that hold for every synthesized shape:
// the score balances, functions with correct FDEs are never false
// negatives (and never merged away), and — whenever recursive
// disassembly ran — neither the entry point nor any directly-called
// function is missed.
func CheckMetrics(shape string, strat core.Strategy, rep *core.Report, truth *groundtruth.Truth) []Violation {
	var vs []Violation
	add := func(format string, args ...any) {
		vs = append(vs, Violation{shape, strat, "metrics", fmt.Sprintf(format, args...)})
	}
	ev := metrics.Evaluate(rep.Funcs, truth)
	if ev.TP+ev.FN != len(truth.Funcs) {
		add("TP %d + FN %d != %d true functions", ev.TP, ev.FN, len(truth.Funcs))
	}
	if ev.TP+ev.FP != len(rep.Funcs) {
		add("TP %d + FP %d != %d detected starts", ev.TP, ev.FP, len(rep.Funcs))
	}
	for _, a := range ev.FPAddrs {
		if truth.IsStart(a) {
			add("FP %#x is actually a true start", a)
		}
	}
	// skewed marks true entries whose only FDE is the early hand-written
	// error: their FDE does not point at them. The skew is one garbage
	// instruction — one byte on x86-64, one word on aarch64 — so the
	// skewed entry is the true start just past the erroneous PC Begin.
	skewed := map[uint64]bool{}
	for _, a := range truth.CFIErrorAddrs {
		for d := uint64(1); d <= 8; d++ {
			if truth.IsStart(a + d) {
				skewed[a+d] = true
				break
			}
		}
	}
	merged := map[uint64]bool{}
	for part := range rep.Merged {
		merged[part] = true
	}
	removedErr := map[uint64]bool{}
	for _, a := range rep.CFIErrRemoved {
		removedErr[a] = true
	}
	for _, a := range ev.FNAddrs {
		fn, ok := truth.FuncAt(a)
		if !ok {
			add("FN %#x is not a true start", a)
			continue
		}
		if fn.HasFDE && !skewed[a] && !merged[a] {
			add("func %s at %#x has a correct FDE but was missed", fn.Name, a)
		}
		if strat.Recursive {
			switch fn.Reach {
			case groundtruth.ReachEntry, groundtruth.ReachCall:
				add("harmful FN under recursive strategy: %s at %#x (%v)", fn.Name, a, fn.Reach)
			}
		}
	}
	// True starts may be merged away only when they are tail-only
	// reachable: a tail-only FDE function has no reference besides the
	// single tail-call jump, so Algorithm 1 cannot tell it from a
	// non-contiguous part — the §V-C harmless-miss class. Merging a
	// start with any other reachability would be a real bug, as would
	// the convention sweep removing any true start.
	for _, fn := range truth.Funcs {
		if merged[fn.Addr] && fn.Reach != groundtruth.ReachTailOnly {
			add("true start %s at %#x (%v) merged away", fn.Name, fn.Addr, fn.Reach)
		}
		if removedErr[fn.Addr] {
			add("true start %s at %#x removed as a bogus FDE", fn.Name, fn.Addr)
		}
	}
	return vs
}
