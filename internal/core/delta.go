package core

import (
	"fmt"
	"slices"
	"sort"

	"fetch/internal/callconv"
	"fetch/internal/disasm"
	"fetch/internal/ehframe"
	"fetch/internal/elfx"
	"fetch/internal/resultcache"
	"fetch/internal/xref"
)

// This file implements the delta-re-analysis verifier. Given a new
// binary whose residue (everything outside the FDE-delimited roster
// ranges) matches a recorded trace, it proves — conservatively — that
// the full pipeline on the new binary would produce the exact Report
// recorded for the old one, by checking that every changed range is
// analysis-equivalent to its old version:
//
//  1. the range's cross-visible walk facts (calls, out-of-range
//     pushes, constants, reference counts, table reads, outgoing
//     jumps) are equal under EVERY verdict environment the fixed
//     point could have consulted (all projections of the recorded
//     union U onto the range's call targets);
//  2. the non-return and conditional-non-return verdicts of the
//     range's entry and interior functions are equal under every such
//     environment, and never depended on iteration-order-sensitive
//     answers (EV guard);
//  3. every recorded pointer-candidate validation whose byte extent
//     intersects a changed range re-validates to the same verdict,
//     extent, and constant contributions against the new bytes;
//  4. every recorded calling-convention verdict whose read bytes
//     intersect a changed range re-validates identically, and every
//     changed range's candidate tail-call jumps present the same
//     (target, height-known, height-zero) sequence to Algorithm 1.
//
// If all checks pass, the two binaries are indistinguishable to every
// pass of the pipeline, and the recorded Result is returned verbatim.
// ANY condition the verifier cannot reason about locally returns a
// fallback outcome and the caller runs the cold pipeline: fallbacks
// cost time, never correctness. The oracle's CheckDeltaEqualsCold
// sweep enforces the contract end to end.

// DefaultMaxDirtyFraction is the changed-range budget above which the
// delta path falls back: verifying most of the binary locally costs
// more than a cold run and the proof obligations grow with the dirty
// set.
const DefaultMaxDirtyFraction = 0.5

// envEnumCap bounds the verdict-environment enumeration per changed
// range: a range calling more than this many ever-non-returning
// functions falls back rather than enumerating the state space.
const envEnumCap = 5

// deltaKey computes the residue hash that addresses a binary's delta
// trace: equal keys mean the binaries differ at most inside their
// (identical) FDE-delimited roster ranges. It also returns the roster
// the hash covers (range hashes unset). ok=false means the binary
// admits no sound range decomposition and the delta path does not
// apply.
func deltaKey(img *elfx.Image, sec *ehframe.Section) ([32]byte, []RangeInfo, bool) {
	roster, ok := buildRoster(img, sec)
	if !ok || len(roster) == 0 {
		return [32]byte{}, nil, false
	}
	return residueHash(img, roster), roster, true
}

// EHFrame is a binary's decoded .eh_frame with the delta key derived
// from it. A cache miss loads it once for its delta attempt
// (ReplayDelta) and hands it to the recorded cold run
// (AnalyzeRecorded), which then neither decodes the section nor
// derives the key again.
type EHFrame struct {
	Sec *ehframe.Section
	// Residue is the residue hash that addresses the binary's delta
	// trace: equal residues mean two binaries differ at most inside
	// their (identical) FDE-delimited roster ranges. Roster is the
	// range set it covers (range hashes unset), nil when the binary
	// admits no sound range decomposition and the delta path does not
	// apply.
	Residue [32]byte
	Roster  []RangeInfo
}

// LoadEHFrame decodes img's .eh_frame and derives its delta key. It
// returns nil when the section is missing, unreadable or malformed; a
// pipeline run then decodes the section itself and fails with the
// error.
func LoadEHFrame(img *elfx.Image) *EHFrame {
	sec, err := decodeEHFrame(img)
	if err != nil {
		return nil
	}
	fr := &EHFrame{Sec: sec}
	fr.Residue, fr.Roster, _ = deltaKey(img, sec)
	return fr
}

// DeltaInput parameterizes ReplayDelta.
type DeltaInput struct {
	// Img is the new binary (stripped), Sec its decoded .eh_frame.
	Img *elfx.Image
	Sec *ehframe.Section
	// Trace is the recorded trace whose residue hash matched.
	Trace *Trace
	// Roster and Residue are the new binary's roster and residue hash
	// (EHFrame).
	Roster  []RangeInfo
	Residue [32]byte
	// OldRangeBytes returns the recorded bytes of roster range i (the
	// function-tier payload), or nil when unavailable; unavailable
	// bytes for a changed range force a fallback.
	OldRangeBytes func(i int) []byte
	// Strategy must equal the recorded run's strategy (the cache keys
	// traces by strategy variant, so this is structural).
	Strategy Strategy
}

// DeltaOutcome reports a ReplayDelta verification.
type DeltaOutcome struct {
	// OK means the recorded Result is proven valid for the new binary.
	OK bool
	// Reason is the first fallback reason when !OK ("" when OK).
	Reason string
	// DirtyRanges and TotalRanges describe the roster diff.
	DirtyRanges, TotalRanges int
}

// ReplayDelta verifies that the new binary is analysis-equivalent to
// the recorded one. It never mutates in.Img.
func ReplayDelta(in DeltaInput) DeltaOutcome {
	tr := in.Trace
	fail := func(format string, args ...any) DeltaOutcome {
		return DeltaOutcome{Reason: fmt.Sprintf(format, args...), TotalRanges: len(tr.Roster)}
	}

	roster := in.Roster
	if len(roster) != len(tr.Roster) {
		return fail("roster: range count %d != recorded %d", len(roster), len(tr.Roster))
	}
	for i := range roster {
		if roster[i].Start != tr.Roster[i].Start || roster[i].End != tr.Roster[i].End {
			return fail("roster: geometry mismatch at range %d", i)
		}
	}
	if in.Residue != tr.ResidueHash {
		return fail("residue: hash mismatch")
	}

	// Diff the ranges.
	var dirty []int
	var totalBytes, dirtyBytes uint64
	for i := range roster {
		b := RangeBytes(in.Img, roster[i].Start, roster[i].End)
		if b == nil {
			return fail("roster: range %d unmapped", i)
		}
		totalBytes += uint64(len(b))
		if resultcache.HashRange(roster[i].Start, b) != tr.Roster[i].Hash {
			dirty = append(dirty, i)
			dirtyBytes += uint64(len(b))
		}
	}
	out := DeltaOutcome{DirtyRanges: len(dirty), TotalRanges: len(roster)}
	if len(dirty) == 0 {
		// Residue and every range identical: the analyzed content is
		// byte-identical (e.g. only non-loadable or symbol bytes
		// differ at the file level).
		out.OK = true
		return out
	}
	if !in.Strategy.Recursive {
		// FDE-only: the Report is a pure function of .eh_frame, which
		// the residue covers. Code changes are invisible.
		out.OK = true
		return out
	}
	if totalBytes == 0 || float64(dirtyBytes)/float64(totalBytes) > DefaultMaxDirtyFraction {
		return fail("dirty fraction %.2f over budget", float64(dirtyBytes)/float64(totalBytes))
	}

	// Global guards.
	if tr.SawMid {
		return fail("recorded analysis was order-sensitive (sawMid)")
	}
	banned := toSet(tr.RemovedOrMerged)
	overlapsDirty := func(iv disasm.Interval) bool {
		for _, i := range dirty {
			if iv.Overlaps(tr.Roster[i].Start, tr.Roster[i].End) {
				return true
			}
		}
		return false
	}
	oldRange := make(map[int][]byte, len(dirty))
	for _, i := range dirty {
		ri := &tr.Roster[i]
		if ri.Foreign {
			return fail("range %#x: interior entered from outside", ri.Start)
		}
		if banned[ri.Start] {
			return fail("range %#x: removed or merged in recorded run", ri.Start)
		}
		old := in.OldRangeBytes(i)
		if old == nil || uint64(len(old)) != ri.End-ri.Start {
			return fail("range %#x: old bytes unavailable", ri.Start)
		}
		if resultcache.HashRange(ri.Start, old) != ri.Hash {
			return fail("range %#x: old bytes fail integrity", ri.Start)
		}
		oldRange[i] = old
	}
	for _, tv := range tr.TableReads {
		if overlapsDirty(tv) {
			return fail("changed range intersects a jump-table read")
		}
	}

	// Reconstruct the old image: new image with old bytes patched into
	// the changed ranges.
	oldImg := patchImage(in.Img, tr.Roster, oldRange)
	oldSess := disasm.NewSession(oldImg, safeOpts())
	newSess := disasm.NewSession(in.Img, safeOpts())
	// The sessions end with the replay; their table chunks serve the
	// next replay's sessions.
	defer oldSess.Release()
	defer newSess.Release()

	uNR, uCNR := toSet(tr.UNonRet), toSet(tr.UCondNonRet)
	finalNR, finalCNR := toSet(tr.FinalNonRet), toSet(tr.FinalCondNonRet)
	funcs, ev := toSet(tr.Funcs), toSet(tr.EV)

	// Per-range equivalence under every environment projection.
	freshFacts := make(map[int]*disasm.LocalFacts, len(dirty))
	for _, i := range dirty {
		rng := disasm.FuncRange{Start: tr.Roster[i].Start, End: tr.Roster[i].End}
		facts, reason := verifyRange(oldSess, newSess, rng, uNR, uCNR, finalNR, finalCNR, funcs, ev)
		if reason != "" {
			return fail("range %#x: %s", rng.Start, reason)
		}
		freshFacts[i] = facts
	}

	// Pointer-candidate re-validation against substituted coverage.
	// The coverage map spans every recorded instruction in the binary,
	// so it is built lazily: in the common recompile (few small dirty
	// ranges, no candidate extent touching them) no candidate needs
	// re-validation and the map is never materialized.
	if in.Strategy.Xref {
		var cov *disasm.Result
		coverage := func() *disasm.Result {
			if cov == nil {
				cov = disasm.BuildCoverage(substituteCoverage(tr, dirty, freshFacts))
			}
			return cov
		}
		var krPre, krPost []disasm.FuncRange
		built := false
		for _, rec := range tr.XrefRecs {
			touched := false
			for _, iv := range rec.Extent {
				if overlapsDirty(iv) {
					touched = true
					break
				}
			}
			if !touched {
				continue
			}
			if !built {
				built = true
				krPre = fdeRanges(in.Sec, nil)
				krPost = fdeRanges(in.Sec, toSet(tr.Removed))
			}
			kr := krPre
			if rec.Post {
				kr = krPost
			}
			if reason := revalidateXref(in.Img, rec, kr, newSess, coverage); reason != "" {
				return fail("%s", reason)
			}
		}
	}

	// Algorithm 1 re-verification.
	if in.Strategy.TailCall {
		for _, rec := range tr.ConvRecs {
			if !overlapsDirty(disasm.Interval{Lo: rec.Addr, Hi: rec.End}) {
				continue
			}
			if callconv.Validate(in.Img, newSess, rec.Addr) != rec.OK {
				return fail("convention verdict at %#x changed", rec.Addr)
			}
		}
		if reason := verifyTailJumps(in.Img, in.Sec, tr, dirty, freshFacts); reason != "" {
			return fail("%s", reason)
		}
	}

	out.OK = true
	return out
}

// revalidateXref re-runs one recorded pointer-candidate validation on
// the new image and returns a fallback reason when its outcome changed.
// coverage supplies the substituted committed coverage. Coverage feeds
// only rule (ii), which only rejects, so a recorded rejection is first
// re-checked against no coverage at all: when the other rules still
// reject, the verdict holds whatever the coverage, and the map is never
// asked for.
func revalidateXref(img *elfx.Image, rec XrefRec, known []disasm.FuncRange,
	sess *disasm.Session, coverage func() *disasm.Result) string {

	opts := xref.Options{KnownRanges: known, Session: sess}
	if !rec.OK {
		if _, ok := xref.ValidateCandidate(img, disasm.BuildCoverage(nil), rec.C, opts); !ok {
			return ""
		}
	}
	v, ok := xref.ValidateCandidate(img, coverage(), rec.C, opts)
	if ok != rec.OK {
		return fmt.Sprintf("candidate %#x: verdict changed", rec.C)
	}
	if ok {
		if xref.ContiguousEnd(v, rec.C) != rec.End {
			return fmt.Sprintf("candidate %#x: extent changed", rec.C)
		}
		if !slices.Equal(sortedKeys(v.Constants), rec.Consts) {
			return fmt.Sprintf("candidate %#x: constants changed", rec.C)
		}
	}
	return ""
}

// verifyRange proves one changed range analysis-equivalent to its old
// version. It returns the new side's final-environment facts (for
// coverage substitution and tail-call comparison) and a non-empty
// fallback reason on any doubt.
func verifyRange(oldSess, newSess *disasm.Session, rng disasm.FuncRange,
	uNR, uCNR, finalNR, finalCNR, funcs, ev map[uint64]bool) (*disasm.LocalFacts, string) {

	entries := []uint64{rng.Start}
	interior := func(a uint64) bool { return a > rng.Start && a < rng.End }

	// Final-environment walk: the new side's extraction, plus the base
	// for the environment-target set.
	wlOldFinal := oldSess.WalkLocal(rng, entries, finalNR, finalCNR)
	wlNewFinal := newSess.WalkLocal(rng, entries, finalNR, finalCNR)
	fresh := wlNewFinal.Facts()

	// The environment targets: every call target of either side that
	// was ever non-returning (or conditionally so). Only these can
	// change the walk or the verdicts across environments.
	tset := map[uint64]bool{}
	for _, t := range wlOldFinal.Facts().Calls {
		if uNR[t] || uCNR[t] {
			tset[t] = true
		}
	}
	for _, t := range fresh.Calls {
		if uNR[t] || uCNR[t] {
			tset[t] = true
		}
	}
	var targets []uint64
	for t := range tset {
		targets = append(targets, t)
	}
	if len(targets) > envEnumCap {
		return nil, fmt.Sprintf("%d environment targets over cap", len(targets))
	}
	sort.Slice(targets, func(a, b int) bool { return targets[a] < targets[b] })

	// Enumerate every projected environment: each target independently
	// absent, non-returning (if ever so), or conditionally
	// non-returning (if ever so).
	type state uint8
	const (
		stNone state = iota
		stNonRet
		stCond
	)
	states := make([][]state, len(targets))
	for i, t := range targets {
		s := []state{stNone}
		if uNR[t] {
			s = append(s, stNonRet)
		}
		if uCNR[t] {
			s = append(s, stCond)
		}
		states[i] = s
	}
	assign := make([]state, len(targets))
	var walk func(i int) string
	walk = func(i int) string {
		if i < len(targets) {
			for _, s := range states[i] {
				assign[i] = s
				if reason := walk(i + 1); reason != "" {
					return reason
				}
			}
			return ""
		}
		envNR := map[uint64]bool{}
		envCNR := map[uint64]bool{}
		for k, t := range targets {
			switch assign[k] {
			case stNonRet:
				envNR[t] = true
			case stCond:
				envCNR[t] = true
			}
		}
		wlOld := oldSess.WalkLocal(rng, entries, envNR, envCNR)
		wlNew := newSess.WalkLocal(rng, entries, envNR, envCNR)
		fo, fn := wlOld.Facts(), wlNew.Facts()
		if fo.Unfaithful || fn.Unfaithful {
			return "local walk escaped the range"
		}
		if !fo.Equal(fn) {
			return "cross-visible facts differ"
		}
		// Verdict equivalence for the entry and every interior
		// function the range defines.
		verdictEntries := []uint64{rng.Start}
		for _, t := range fo.Calls {
			if interior(t) {
				verdictEntries = append(verdictEntries, t)
			}
		}
		for _, e := range verdictEntries {
			vo, qo, oko := wlOld.EntryReturns(e, envNR, funcs)
			vn, qn, okn := wlNew.EntryReturns(e, envNR, funcs)
			if !oko || !okn {
				return "verdict walk escaped the range"
			}
			if vo != vn {
				return "non-return verdict differs"
			}
			if reason := checkQueried(qo, qn, tset, uNR, uCNR, ev); reason != "" {
				return reason
			}
			ho, bo, qo2, oko2 := wlOld.CondFacts(e, funcs)
			hn, bn, qn2, okn2 := wlNew.CondFacts(e, funcs)
			if !oko2 || !okn2 {
				return "conditional-verdict walk escaped the range"
			}
			if ho != hn || !slices.Equal(bo, bn) {
				return "conditional-non-return facts differ"
			}
			if reason := checkQueried(qo2, qn2, tset, uNR, uCNR, ev); reason != "" {
				return reason
			}
		}
		return ""
	}
	if reason := walk(0); reason != "" {
		return nil, reason
	}
	if fresh.Unfaithful || !wlOldFinal.Facts().Equal(fresh) {
		// The final projection is covered by the enumeration, but keep
		// the explicit check: these facts substitute into the global
		// coverage.
		return nil, "final-environment facts differ"
	}
	return fresh, ""
}

// checkQueried rejects verdict evaluations whose answers were not
// pinned by the enumeration: a queried target that was ever
// non-returning but is not an enumerated environment target, or whose
// function-set membership varied across passes (EV).
func checkQueried(qo, qn []uint64, tset, uNR, uCNR, ev map[uint64]bool) string {
	for _, q := range append(append([]uint64(nil), qo...), qn...) {
		if ev[q] {
			return "verdict depended on iteration-sensitive function membership"
		}
		if (uNR[q] || uCNR[q]) && !tset[q] {
			return "verdict depended on an unenumerated environment target"
		}
	}
	return ""
}

// verifyTailJumps compares each changed range's candidate tail-call
// jumps — (target, height-known, height-zero) in address order —
// against the recorded sequence Algorithm 1 consumed.
func verifyTailJumps(img *elfx.Image, sec *ehframe.Section, tr *Trace, dirty []int,
	freshFacts map[int]*disasm.LocalFacts) string {

	isa := img.ISA()
	fdeAt := make(map[uint64]*ehframe.FDE, len(sec.FDEs))
	for _, f := range sec.FDEs {
		fdeAt[f.PCBegin] = f
	}
	recsByFDE := map[uint64][]JumpRec{}
	for _, r := range tr.JumpRecs {
		recsByFDE[r.FDE] = append(recsByFDE[r.FDE], r)
	}
	for _, i := range dirty {
		start := tr.Roster[i].Start
		fde := fdeAt[start]
		if fde == nil {
			return fmt.Sprintf("range %#x: no FDE", start)
		}
		ht := fde.HeightsABI(isa.CFISPReg(), isa.CFIEntryOffset())
		if !ht.Complete {
			// Algorithm 1 skipped this frame on both sides (heights
			// come from the residue-equal .eh_frame).
			continue
		}
		recs := recsByFDE[start]
		var freshJumps []JumpRec
		for _, j := range freshFacts[i].JmpOut {
			h, okh := ht.HeightAt(j.Addr)
			freshJumps = append(freshJumps, JumpRec{
				Target: j.Target, HOK: okh, HZero: okh && h == 0,
			})
		}
		if len(recs) != len(freshJumps) {
			return fmt.Sprintf("range %#x: tail-call jump count changed", start)
		}
		for k := range recs {
			if recs[k].Target != freshJumps[k].Target ||
				recs[k].HOK != freshJumps[k].HOK ||
				recs[k].HZero != freshJumps[k].HZero {
				return fmt.Sprintf("range %#x: tail-call jump inputs changed", start)
			}
		}
	}
	return ""
}

// substituteCoverage replaces the changed ranges' recorded coverage
// with the fresh local coverage: the committed coverage the new
// binary's pipeline would hold.
func substituteCoverage(tr *Trace, dirty []int, freshFacts map[int]*disasm.LocalFacts) []disasm.InstFact {
	// Both inputs are address-sorted (the recorded skeleton by
	// construction, the fresh facts because dirty ranges are disjoint
	// and ascending), so a linear merge keeps the output sorted —
	// BuildCoverage depends on that to build its dense form directly.
	// The same order lets one cursor track the first dirty range not
	// yet passed.
	var fresh []disasm.InstFact
	for _, i := range dirty {
		fresh = append(fresh, freshFacts[i].Insts...)
	}
	// The skeleton was checked when the trace was loaded; every fact in
	// it takes at least two bytes.
	out := make([]disasm.InstFact, 0, len(tr.GlobalInsts)/2+len(fresh))
	k, d := 0, 0
	var addr uint64
	for b := tr.GlobalInsts; len(b) > 0; {
		step, l, rest, _ := skeletonFact(b)
		b, addr = rest, addr+step
		f := disasm.InstFact{Addr: addr, Len: uint16(l)}
		for d < len(dirty) && tr.Roster[dirty[d]].End <= f.Addr {
			d++
		}
		if d < len(dirty) && f.Addr >= tr.Roster[dirty[d]].Start {
			continue // inside a dirty range
		}
		for k < len(fresh) && fresh[k].Addr < f.Addr {
			out = append(out, fresh[k])
			k++
		}
		out = append(out, f)
	}
	out = append(out, fresh[k:]...)
	return out
}

// patchImage builds the recorded binary's image: the new image with
// the old bytes written back into the changed ranges. Section data is
// copied; the input image is never mutated.
func patchImage(img *elfx.Image, roster []RangeInfo, oldRange map[int][]byte) *elfx.Image {
	cp := *img
	cp.Sections = make([]*elfx.Section, len(img.Sections))
	for i, s := range img.Sections {
		if s.Flags&elfx.FlagExec != 0 {
			// A fresh in-memory section, not a struct copy: file-backed
			// sections must not carry their lazy state alongside the
			// patched heap copy.
			cp.Sections[i] = &elfx.Section{
				Name:  s.Name,
				Addr:  s.Addr,
				Data:  append([]byte(nil), s.Bytes()...),
				Flags: s.Flags,
			}
			continue
		}
		sc := *s
		cp.Sections[i] = &sc
	}
	for i, old := range oldRange {
		start, end := roster[i].Start, roster[i].End
		for _, s := range cp.Sections {
			if s.Flags&elfx.FlagExec == 0 {
				continue
			}
			if start >= s.Addr && end <= s.End() {
				copy(s.Data[start-s.Addr:end-s.Addr], old)
				break
			}
		}
	}
	return &cp
}

func toSet(in []uint64) map[uint64]bool {
	out := make(map[uint64]bool, len(in))
	for _, a := range in {
		out[a] = true
	}
	return out
}
