package core

import (
	"strings"
	"testing"

	"fetch/internal/disasm"
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
