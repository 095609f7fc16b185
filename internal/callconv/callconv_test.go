package callconv

import (
	"testing"

	"fetch/internal/elfx"
	"fetch/internal/groundtruth"
	"fetch/internal/synth"
	"fetch/internal/x64"
)

// imageFromAsm wraps assembled bytes in a single-section image.
func imageFromAsm(t *testing.T, build func(a *x64.Asm)) *elfx.Image {
	t.Helper()
	var a x64.Asm
	build(&a)
	code, _, err := a.Finish()
	if err != nil {
		t.Fatalf("asm: %v", err)
	}
	return &elfx.Image{Sections: []*elfx.Section{{
		Name: ".text", Addr: 0x1000, Data: code,
		Flags: elfx.FlagAlloc | elfx.FlagExec,
	}}}
}

func TestValidateAcceptsStandardPrologue(t *testing.T) {
	im := imageFromAsm(t, func(a *x64.Asm) {
		a.PushReg(x64.RBP)
		a.MovRegReg(x64.RBP, x64.RSP)
		a.SubRSP(0x20)
		a.MovRegReg(x64.RAX, x64.RDI) // arg read: fine
		a.AddRSP(0x20)
		a.PopReg(x64.RBP)
		a.Ret()
	})
	if !Validate(im, 0x1000) {
		t.Fatal("standard prologue rejected")
	}
}

func TestValidateAcceptsFramelessArgReader(t *testing.T) {
	im := imageFromAsm(t, func(a *x64.Asm) {
		a.MovRegReg(x64.RAX, x64.RDI)
		a.AddRegReg(x64.RAX, x64.RSI)
		a.Ret()
	})
	if !Validate(im, 0x1000) {
		t.Fatal("frameless arg reader rejected")
	}
}

func TestValidateRejectsCalleeSavedRead(t *testing.T) {
	im := imageFromAsm(t, func(a *x64.Asm) {
		a.MovRegReg(x64.RAX, x64.RBX) // rbx not initialized
		a.Ret()
	})
	if Validate(im, 0x1000) {
		t.Fatal("rbx read at entry accepted")
	}
}

func TestValidateRejectsRBPRead(t *testing.T) {
	im := imageFromAsm(t, func(a *x64.Asm) {
		a.MovRegMem(x64.RDX, x64.RBP, -8) // reads the caller's rbp
		a.Ret()
	})
	if Validate(im, 0x1000) {
		t.Fatal("rbp-relative read at entry accepted")
	}
}

func TestValidatePushIsASaveNotAUse(t *testing.T) {
	im := imageFromAsm(t, func(a *x64.Asm) {
		a.PushReg(x64.RBX) // saving callee-saved: not a use
		a.PushReg(x64.R12)
		a.MovRegReg(x64.RBX, x64.RDI)
		a.MovRegReg(x64.RAX, x64.RBX) // now initialized
		a.PopReg(x64.R12)
		a.PopReg(x64.RBX)
		a.Ret()
	})
	if !Validate(im, 0x1000) {
		t.Fatal("push-save pattern rejected")
	}
}

func TestValidateCallDefinesCallerSaved(t *testing.T) {
	im := imageFromAsm(t, func(a *x64.Asm) {
		a.CallSym("x")                // unpatched rel32 == call next
		a.MovRegReg(x64.RDX, x64.RAX) // rax defined by the call
		a.Ret()
	})
	if !Validate(im, 0x1000) {
		t.Fatal("post-call rax read rejected")
	}
}

func TestValidateRejectsUnmappedAndGarbage(t *testing.T) {
	im := imageFromAsm(t, func(a *x64.Asm) { a.Ret() })
	if Validate(im, 0x9999999) {
		t.Fatal("unmapped address accepted")
	}
	bad := &elfx.Image{Sections: []*elfx.Section{{
		Name: ".text", Addr: 0x1000,
		Data:  []byte{0x06, 0x06, 0x06}, // invalid opcodes
		Flags: elfx.FlagAlloc | elfx.FlagExec,
	}}}
	if Validate(bad, 0x1000) {
		t.Fatal("invalid opcode accepted")
	}
}

func TestValidateOnSynthesizedBinaries(t *testing.T) {
	cfg := synth.DefaultConfig("cc-test", 42, synth.O2, synth.GCC, synth.LangC)
	cfg.IndirectOnlyRate = 0.05
	im, truth, err := synth.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// All true function entries validate.
	for _, fn := range truth.Funcs {
		if !Validate(im, fn.Addr) {
			t.Errorf("true entry %s at %#x rejected", fn.Name, fn.Addr)
		}
	}
	// Non-contiguous cold parts pass the check, exactly like the
	// paper's corpus (their removal happens via Algorithm 1 merging,
	// and the FDE-start convention sweep must single out only the
	// hand-written errors).
	for _, p := range truth.Parts {
		if !Validate(im, p.Addr) {
			t.Errorf("cold part %s at %#x rejected — the §V-B sweep would over-remove", p.Name, p.Addr)
		}
	}
	// Hand-written CFI error starts (one byte early) must fail.
	for _, a := range truth.CFIErrorAddrs {
		if Validate(im, a) {
			t.Errorf("CFI-error FDE start %#x accepted", a)
		}
	}
}

func TestValidateCFIErrorAddrsAcrossSeeds(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		cfg := synth.DefaultConfig("cc-seed", seed, synth.O3, synth.Clang, synth.LangCPP)
		cfg.CFIErrorCount = 2
		im, truth, err := synth.Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, a := range truth.CFIErrorAddrs {
			if Validate(im, a) {
				t.Errorf("seed %d: CFI-error start %#x accepted", seed, a)
			}
		}
		_ = groundtruth.ClassNormal
	}
}

// TestValidateExtentBoundsTheVerdict pins what delta replay relies on:
// the verdict depends on no code byte at or past the reported end.
// Every byte from the end to the end of the section is overwritten
// with each of two fillers, and the verdict and end must not move; on
// both ISAs, at every true entry and at interior addresses that fail.
func TestValidateExtentBoundsTheVerdict(t *testing.T) {
	for _, isa := range []string{"x64", "a64"} {
		cfg := synth.DefaultConfig("cc-extent", 43, synth.O2, synth.GCC, synth.LangC)
		cfg.Arch = isa
		cfg.NumFuncs = 40
		im, truth, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		text, ok := im.Section(".text")
		if !ok {
			t.Fatal("no .text")
		}
		var addrs []uint64
		for _, fn := range truth.Funcs {
			addrs = append(addrs, fn.Addr, fn.Addr+1, fn.Addr+5)
		}
		rejected := 0
		for _, a := range addrs {
			if !text.Contains(a) {
				continue
			}
			ok, end := ValidateExtent(im, a)
			if ok != Validate(im, a) || end < a {
				t.Fatalf("%s %#x: ValidateExtent = %v, %#x; Validate = %v", isa, a, ok, end, Validate(im, a))
			}
			if !ok {
				rejected++
			}
			for _, fill := range []byte{0x00, 0xFF} {
				cp := *text
				cp.Data = append([]byte(nil), text.Data...)
				if end < text.End() {
					for i := end - text.Addr; i < uint64(len(cp.Data)); i++ {
						cp.Data[i] = fill
					}
				}
				patched := *im
				patched.Sections = nil
				for _, s := range im.Sections {
					if s == text {
						s = &cp
					}
					patched.Sections = append(patched.Sections, s)
				}
				if ok2, end2 := ValidateExtent(&patched, a); ok2 != ok || end2 != end {
					t.Fatalf("%s %#x: bytes past %#x moved the verdict: %v, %#x; was %v, %#x", isa, a, end, ok2, end2, ok, end)
				}
			}
		}
		if rejected == 0 {
			t.Fatalf("%s: no address was rejected; the test no longer covers failing walks", isa)
		}
	}
}
