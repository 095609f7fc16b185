package core

import (
	"fmt"
	"reflect"
	"testing"

	"fetch/internal/disasm"
	"fetch/internal/elfx"
	"fetch/internal/synth"
)

// equivCorpus mirrors the synth corpus mix: both compilers, both
// languages, all optimization levels, plus shapes that force every
// incremental path (xref extends, CFI-error retracts, part merges).
func equivCorpus(t *testing.T) []*elfx.Image {
	t.Helper()
	var imgs []*elfx.Image
	seed := int64(91000)
	for _, comp := range []synth.Compiler{synth.GCC, synth.Clang} {
		for _, opt := range []synth.Opt{synth.O2, synth.Os} {
			seed++
			cfg := synth.DefaultConfig(fmt.Sprintf("equiv-%d", seed), seed, opt, comp, synth.LangC)
			cfg.NumFuncs = 60
			img, _, err := synth.Generate(cfg)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			imgs = append(imgs, img.Strip())
		}
	}
	for i, mutate := range []func(*synth.Config){
		func(c *synth.Config) { c.CFIErrorCount = 2 },
		func(c *synth.Config) { c.IndirectOnlyRate = 0.1 },
		func(c *synth.Config) { c.NonContigRate = 0.25 },
		func(c *synth.Config) { c.Lang = synth.LangCPP },
	} {
		cfg := synth.DefaultConfig(fmt.Sprintf("equiv-shape-%d", i), 92000+int64(i), synth.O2, synth.GCC, synth.LangC)
		cfg.NumFuncs = 60
		mutate(&cfg)
		img, _, err := synth.Generate(cfg)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		imgs = append(imgs, img.Strip())
	}
	return imgs
}

// TestAnalyzeMatchesScratchPipeline is the hard equivalence gate: the
// session-based pass pipeline must produce Reports byte-identical to
// the from-scratch reference on every corpus binary under every
// Strategy combination.
func TestAnalyzeMatchesScratchPipeline(t *testing.T) {
	for bi, img := range equivCorpus(t) {
		for _, strat := range AllStrategies() {
			label := fmt.Sprintf("bin%d/rec=%v,xref=%v,tail=%v",
				bi, strat.Recursive, strat.Xref, strat.TailCall)
			got, err := Analyze(img, strat)
			if err != nil {
				t.Fatalf("%s: Analyze: %v", label, err)
			}
			want, err := ScratchAnalyze(img, strat)
			if err != nil {
				t.Fatalf("%s: scratch: %v", label, err)
			}
			if !reflect.DeepEqual(got.Funcs, want.Funcs) {
				t.Errorf("%s: Funcs differ (%d vs %d)", label, len(got.Funcs), len(want.Funcs))
			}
			if !reflect.DeepEqual(got.FDEStarts, want.FDEStarts) {
				t.Errorf("%s: FDEStarts differ", label)
			}
			if !reflect.DeepEqual(got.XrefNew, want.XrefNew) {
				t.Errorf("%s: XrefNew differs: %x vs %x", label, got.XrefNew, want.XrefNew)
			}
			if !reflect.DeepEqual(got.TailNew, want.TailNew) {
				t.Errorf("%s: TailNew differs", label)
			}
			if !reflect.DeepEqual(got.Merged, want.Merged) {
				t.Errorf("%s: Merged differs", label)
			}
			if !reflect.DeepEqual(got.CFIErrRemoved, want.CFIErrRemoved) {
				t.Errorf("%s: CFIErrRemoved differs", label)
			}
			if got.SkippedIncomplete != want.SkippedIncomplete {
				t.Errorf("%s: SkippedIncomplete %d vs %d", label,
					got.SkippedIncomplete, want.SkippedIncomplete)
			}
			if (got.Res == nil) != (want.Res == nil) {
				t.Fatalf("%s: Res nil-ness differs", label)
			}
			if got.Res != nil {
				if !reflect.DeepEqual(got.Res.Insts, want.Res.Insts) {
					t.Errorf("%s: final disassembly Insts differ", label)
				}
				if !reflect.DeepEqual(got.Res.Funcs, want.Res.Funcs) {
					t.Errorf("%s: final disassembly Funcs differ", label)
				}
				if !reflect.DeepEqual(got.Res.JTTargets, want.Res.JTTargets) {
					t.Errorf("%s: final disassembly JTTargets differ", label)
				}
				if !reflect.DeepEqual(got.Res.NonRet, want.Res.NonRet) {
					t.Errorf("%s: final disassembly NonRet differs", label)
				}
			}
		}
	}
}

// TestAnalyzeZeroResweeps is the acceptance gate for incrementality:
// after the initial sweep, the pipeline must never start another cold
// analysis — xref rounds extend, CFI-error recovery retracts, and
// candidate validation probes, all on the one session.
func TestAnalyzeZeroResweeps(t *testing.T) {
	im, _ := build(t, 36, func(c *synth.Config) {
		c.CFIErrorCount = 2
		c.IndirectOnlyRate = 0.08
	})
	rep, err := Analyze(im, FETCH)
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Stats
	if st.Disasm.ColdStarts != 1 {
		t.Errorf("ColdStarts = %d, want exactly 1 (the initial sweep)", st.Disasm.ColdStarts)
	}
	if st.Disasm.Extends < 2 {
		t.Errorf("Extends = %d, want >= 2 (initial + xref rounds)", st.Disasm.Extends)
	}
	if st.Disasm.Retracts != 1 {
		t.Errorf("Retracts = %d, want 1 (CFI-error recovery)", st.Disasm.Retracts)
	}
	if st.Disasm.Probes == 0 {
		t.Error("candidate validation did not probe")
	}
	if st.Disasm.InstsReused == 0 {
		t.Error("pipeline reused no decodes — every stage decoded cold")
	}
	if st.XrefIterations < 2 {
		t.Errorf("XrefIterations = %d, want >= 2 (initial + post-recovery)", st.XrefIterations)
	}
	if !st.XrefConverged {
		t.Error("xref unexpectedly truncated on the test binary")
	}
	if len(st.Passes) != 4 {
		t.Fatalf("pass stats = %v, want 4 entries", st.Passes)
	}
	for i, name := range []string{"fde", "recursive", "xref", "tailcall"} {
		if st.Passes[i].Name != name {
			t.Errorf("pass %d = %q, want %q", i, st.Passes[i].Name, name)
		}
	}

	// The reference pipeline decodes every instruction cold each round;
	// the session must do strictly less decode work.
	if ref, err := ScratchAnalyze(im, FETCH); err == nil && ref != nil {
		lookups := st.Disasm.InstsDecoded + st.Disasm.InstsReused
		if st.Disasm.InstsDecoded >= lookups {
			t.Error("session decoded on every lookup")
		}
	}
}

// TestFDEOnlyStats pins the degenerate strategy: no session exists, so
// the stats stay zero and only the fde pass is recorded.
func TestFDEOnlyStats(t *testing.T) {
	im, _ := build(t, 37, nil)
	rep, err := Analyze(im, Strategy{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Stats.Disasm, disasm.Stats{}) {
		t.Errorf("FDE-only Disasm stats = %+v, want zero", rep.Stats.Disasm)
	}
	if len(rep.Stats.Passes) != 1 || rep.Stats.Passes[0].Name != "fde" {
		t.Errorf("FDE-only passes = %v", rep.Stats.Passes)
	}
	if !rep.Stats.XrefConverged {
		t.Error("XrefConverged should be vacuously true when xref is disabled")
	}
}
