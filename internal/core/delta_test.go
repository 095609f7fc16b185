package core

import (
	"bytes"
	"strings"
	"testing"

	"fetch/internal/disasm"
	"fetch/internal/ehframe"
	"fetch/internal/elfx"
)

// TestRevalidateXrefAsksForCoverageOnlyWhenNeeded replays recorded
// pointer verdicts against candidates rejected by different rules. A
// recorded rejection that a coverage-free rule still reaches must hold
// without the coverage map; one that only rule (ii) rejects, and every
// recorded acceptance, must be checked against it; and every changed
// verdict or extent must be reported.
func TestRevalidateXrefAsksForCoverageOnlyWhenNeeded(t *testing.T) {
	const base = 0x401000
	code := make([]byte, 0x40)
	for i := range code {
		code[i] = 0xCC // int3
	}
	copy(code, []byte{0xB8, 0x90, 0x90, 0x90, 0xC3, 0xC3}) // committed: mov eax, 0xc3909090; ret
	copy(code[0x10:], []byte{0xEB, 0xEF})                  // jmp base+1: rule (ii) alone rejects
	copy(code[0x20:], []byte{0x48, 0x89, 0xD8, 0xC3})      // mov rax, rbx; ret: rule (iv) rejects
	copy(code[0x30:], []byte{0xC3})                        // ret: accepted
	img := &elfx.Image{
		Entry: base,
		Sections: []*elfx.Section{{
			Name: ".text", Addr: base, Data: code,
			Flags: elfx.FlagAlloc | elfx.FlagExec,
		}},
	}
	committed := disasm.NewSession(img, safeOpts()).Extend([]uint64{base})
	const midOnly, convBad, good = base + 0x10, base + 0x20, base + 0x30

	for _, tc := range []struct {
		name         string
		rec          XrefRec
		wantCoverage bool
		wantReason   string
	}{
		{"rejection by rule (iv) holds without coverage", XrefRec{C: convBad}, false, ""},
		{"rejection by rule (ii) alone needs coverage", XrefRec{C: midOnly}, true, ""},
		{"acceptance is checked against coverage", XrefRec{C: good, OK: true, End: good + 1}, true, ""},
		{"acceptance now failing rule (iv)", XrefRec{C: convBad, OK: true}, true, "verdict changed"},
		{"acceptance now failing rule (ii)", XrefRec{C: midOnly, OK: true}, true, "verdict changed"},
		{"rejection now accepted", XrefRec{C: good}, true, "verdict changed"},
		{"acceptance with another extent", XrefRec{C: good, OK: true, End: good + 2}, true, "extent changed"},
	} {
		asked := false
		coverage := func() *disasm.Result {
			asked = true
			return committed
		}
		sess := disasm.NewSession(img, safeOpts())
		reason := revalidateXref(img, tc.rec, nil, sess, coverage)
		if (tc.wantReason == "") != (reason == "") || !strings.Contains(reason, tc.wantReason) {
			t.Errorf("%s: reason %q, want %q", tc.name, reason, tc.wantReason)
		}
		if asked != tc.wantCoverage {
			t.Errorf("%s: coverage asked for = %v, want %v", tc.name, asked, tc.wantCoverage)
		}
	}
}

// overlapBinary builds a binary whose committed walk decodes
// overlapping instructions: FDEs at base (a five-byte `call` to a
// never-returning `jmp $`) and base+1 (`add eax, imm32` over the call's
// last four bytes and the byte after, then `ret`), and a third
// function f whose body is fBody.
func overlapBinary(t *testing.T, fBody []byte) (img *elfx.Image, f uint64) {
	t.Helper()
	const base, ehAddr = 0x401000, 0x402000
	f = base + 0x20
	text := bytes.Repeat([]byte{0xCC}, 0x20+len(fBody))
	copy(text, []byte{0xE8, 0x05, 0x00, 0x00, 0x00, 0x90, 0xC3, 0xCC, 0xCC, 0xCC, 0xEB, 0xFE})
	copy(text[f-base:], fBody)
	cie := ehframe.NewDefaultCIE()
	eh, err := (&ehframe.Section{Addr: ehAddr, FDEs: []*ehframe.FDE{
		{CIE: cie, PCBegin: base, PCRange: 1},
		{CIE: cie, PCBegin: base + 1, PCRange: 11},
		{CIE: cie, PCBegin: f, PCRange: uint64(len(fBody))},
	}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return &elfx.Image{Entry: base, Sections: []*elfx.Section{
		{Name: ".text", Addr: base, Data: text, Flags: elfx.FlagAlloc | elfx.FlagExec},
		{Name: ".eh_frame", Addr: ehAddr, Data: eh, Flags: elfx.FlagAlloc},
	}}, f
}

// TestReplayRefusesOverlappingWalk pins that a trace recorded over a
// walk with overlapping instructions is order-sensitive: its coverage
// cannot be rebuilt from the instruction skeleton, so a recompile that
// changes another function falls back with the sawMid reason.
func TestReplayRefusesOverlappingWalk(t *testing.T) {
	strat := Strategy{Recursive: true}
	oldImg, _ := overlapBinary(t, []byte{0x90, 0x90, 0x90, 0xC3})
	newImg, f := overlapBinary(t, []byte{0x90, 0x90, 0xC3, 0xC3})
	_, tr, err := AnalyzeRecorded(oldImg, strat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil || !tr.SawMid {
		t.Fatalf("trace %v: want one recorded with SawMid", tr != nil)
	}
	eh := LoadEHFrame(newImg)
	out := ReplayDelta(DeltaInput{
		Img: newImg, Sec: eh.Sec, Trace: tr, Roster: eh.Roster, Residue: eh.Residue,
		OldRangeBytes: func(i int) []byte { return RangeBytes(oldImg, tr.Roster[i].Start, tr.Roster[i].End) },
		Strategy:      strat,
	})
	if out.OK || out.Reason != "recorded analysis was order-sensitive (sawMid)" {
		t.Fatalf("replay after changing %#x: %+v, want a fallback for sawMid", f, out)
	}
}
