package disasm

import (
	"testing"

	"fetch/internal/ehframe"
	"fetch/internal/elfx"
	"fetch/internal/groundtruth"
	"fetch/internal/synth"
)

// buildBinary synthesizes one test binary and parses its eh_frame.
func buildBinary(t *testing.T, seed int64, mutate func(*synth.Config)) (*elfx.Image, *groundtruth.Truth, *ehframe.Section) {
	t.Helper()
	cfg := synth.DefaultConfig("disasm-test", seed, synth.O2, synth.GCC, synth.LangC)
	if mutate != nil {
		mutate(&cfg)
	}
	im, truth, err := synth.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	eh, ok := im.Section(".eh_frame")
	if !ok {
		t.Fatal("no .eh_frame")
	}
	sec, err := ehframe.Decode(eh.Data, eh.Addr)
	if err != nil {
		t.Fatalf("eh_frame decode: %v", err)
	}
	return im, truth, sec
}

func defaultOpts() Options {
	return Options{ResolveJumpTables: true, NonReturning: true}
}

func TestRecursiveCoversCallReachable(t *testing.T) {
	im, truth, sec := buildBinary(t, 11, nil)
	res := Recursive(im, sec.FunctionStarts(), defaultOpts())
	// Every call-reachable or entry function must be detected: the
	// FDE+Rec configuration of §IV-C.
	for _, fn := range truth.Funcs {
		switch fn.Reach {
		case groundtruth.ReachEntry, groundtruth.ReachCall:
			if !res.Funcs[fn.Addr] {
				t.Errorf("missed call-reachable %s at %#x (class %d, fde %v)",
					fn.Name, fn.Addr, fn.Class, fn.HasFDE)
			}
		}
	}
}

func TestRecursiveNoFalseStartsFromFDESeeds(t *testing.T) {
	im, truth, sec := buildBinary(t, 12, nil)
	res := Recursive(im, sec.FunctionStarts(), defaultOpts())
	// Detected starts must all be true starts, non-contiguous parts
	// (inherited FDE errors), or hand-written FDE errors — recursive
	// descent itself must not invent anything else (§IV-C: "no false
	// positives during the recursive disassembly").
	for addr := range res.Funcs {
		if truth.IsStart(addr) {
			continue
		}
		if _, isPart := truth.PartAt(addr); isPart {
			continue
		}
		isCFIErr := false
		for _, a := range truth.CFIErrorAddrs {
			if a == addr {
				isCFIErr = true
			}
		}
		if !isCFIErr {
			t.Errorf("false start at %#x", addr)
		}
	}
}

func TestRecursiveDecodedInstructionsAreConsistent(t *testing.T) {
	im, _, sec := buildBinary(t, 13, nil)
	res := Recursive(im, sec.FunctionStarts(), defaultOpts())
	if len(res.Insts) < 500 {
		t.Fatalf("suspiciously few instructions: %d", len(res.Insts))
	}
	// No two decoded instructions overlap (the safe engine never
	// produces overlapping decodes).
	for _, in := range res.Insts {
		addr := in.Addr
		for b := addr; b < addr+uint64(in.Len); b++ {
			if owner, ok := res.InstStartAt(b); !ok || owner != addr {
				t.Fatalf("byte %#x owned by %#x, want %#x", b, owner, addr)
			}
		}
	}
}

func TestJumpTableResolution(t *testing.T) {
	im, truth, sec := buildBinary(t, 14, func(c *synth.Config) {
		c.JumpTableRate = 0.5
	})
	res := Recursive(im, sec.FunctionStarts(), defaultOpts())
	if len(res.JTTargets) == 0 {
		t.Fatal("no jump tables resolved at 50% rate")
	}
	for jmp, targets := range res.JTTargets {
		if len(targets) < 3 {
			t.Errorf("table at %#x has %d targets, want >= 3", jmp, len(targets))
		}
		for _, tg := range targets {
			if !im.IsExec(tg) {
				t.Errorf("table at %#x targets non-exec %#x", jmp, tg)
			}
			// Table targets are intra-procedural: never true starts.
			if truth.IsStart(tg) {
				t.Errorf("table target %#x is a function start", tg)
			}
		}
	}
}

func TestNonReturningDetection(t *testing.T) {
	im, truth, sec := buildBinary(t, 15, nil)
	res := Recursive(im, sec.FunctionStarts(), defaultOpts())
	var exitAddr, errAddr uint64
	for _, fn := range truth.Funcs {
		if fn.Name == "xexit" {
			exitAddr = fn.Addr
		}
		if fn.Name == "xerror" {
			errAddr = fn.Addr
		}
	}
	if !res.NonRet[exitAddr] {
		t.Errorf("exit-like at %#x not detected non-returning", exitAddr)
	}
	if !res.CondNonRet[errAddr] {
		t.Errorf("error-like at %#x not detected conditionally non-returning", errAddr)
	}
	// Ordinary functions must not be non-returning.
	fnCount := 0
	for _, fn := range truth.Funcs {
		if fn.Name == "xexit" || fn.Name == "__clang_call_terminate" {
			continue
		}
		if res.NonRet[fn.Addr] && !fn.NonRet {
			// The clang-terminate clone also legitimately never
			// returns; everything else must be returning.
			t.Errorf("%s at %#x wrongly non-returning", fn.Name, fn.Addr)
		}
		fnCount++
	}
	if fnCount == 0 {
		t.Fatal("no functions checked")
	}
}

func TestStrictModeOnGarbage(t *testing.T) {
	im, _, _ := buildBinary(t, 16, nil)
	// Decoding from a deliberately misaligned address must produce
	// strict errors rather than silently succeeding forever.
	text, _ := im.Section(".text")
	seed := text.Addr + 3 // middle of some instruction
	res := Recursive(im, []uint64{seed}, Options{Strict: true, MaxInsts: 200})
	_ = res
	// Either it errored or it decoded a tiny run that terminated; both
	// are acceptable. What is not acceptable is a panic, covered by
	// reaching this line.
}

func TestStrictJumpIntoKnownFunction(t *testing.T) {
	im, truth, sec := buildBinary(t, 17, nil)
	// Build known ranges from FDEs, then validate a bogus pointer into
	// a function middle: the strict engine must flag it.
	var ranges []FuncRange
	for _, f := range sec.FDEs {
		ranges = append(ranges, FuncRange{Start: f.PCBegin, End: f.End()})
	}
	var mid uint64
	for _, fn := range truth.Funcs {
		if fn.Size > 20 && fn.Class == groundtruth.ClassNormal {
			mid = fn.Addr + 9
			break
		}
	}
	if mid == 0 {
		t.Fatal("no candidate function")
	}
	res := Recursive(im, []uint64{mid}, Options{
		Strict: true, KnownRanges: ranges, MaxInsts: 500,
	})
	// A mid-function seed nearly always either decodes into a
	// transfer back into a known range or misdecodes.
	if len(res.Errors) == 0 {
		t.Logf("no strict errors for seed %#x (can legitimately happen); insts=%d", mid, len(res.Insts))
	}
}

func TestLinearSweepResync(t *testing.T) {
	im, _, _ := buildBinary(t, 18, nil)
	text, _ := im.Section(".text")
	insts := LinearSweep(im, text.Addr, text.End())
	if len(insts) < 1000 {
		t.Fatalf("linear sweep decoded %d instructions", len(insts))
	}
	for addr, in := range insts {
		if in.Addr != addr {
			t.Fatalf("inst at %#x claims addr %#x", addr, in.Addr)
		}
	}
}

func TestGapsArePaddingMostly(t *testing.T) {
	im, _, sec := buildBinary(t, 19, nil)
	res := Recursive(im, sec.FunctionStarts(), defaultOpts())
	gaps := Gaps(im, res)
	if len(gaps) == 0 {
		t.Fatal("no gaps — padding must be uncovered")
	}
	padding := 0
	for _, g := range gaps {
		if IsPaddingRun(im, g.Start, g.End) {
			padding++
		}
	}
	if padding == 0 {
		t.Error("no padding gaps found")
	}
}

func TestRecursiveHonorsMaxInsts(t *testing.T) {
	im, _, sec := buildBinary(t, 20, nil)
	res := Recursive(im, sec.FunctionStarts(), Options{MaxInsts: 50})
	if len(res.Insts) > 50 {
		t.Fatalf("MaxInsts ignored: %d", len(res.Insts))
	}
}

func TestCallFallthroughStopsAtNonRetCallSites(t *testing.T) {
	im, truth, sec := buildBinary(t, 21, func(c *synth.Config) {
		c.NonRetCallRate = 0.8
	})
	res := Recursive(im, sec.FunctionStarts(), defaultOpts())
	// At every call site of the error-like function with a non-zero
	// argument, the instruction after the call must NOT be decoded as
	// fall-through of that path... unless something else reaches it.
	// We verify the weaker, precise property: no decoded instruction
	// lies outside all true function/part extents.
	inExtent := func(a uint64) bool {
		for _, fn := range truth.Funcs {
			if a >= fn.Addr && a < fn.Addr+fn.Size {
				return true
			}
		}
		for _, p := range truth.Parts {
			if a >= p.Addr && a < p.Addr+p.Size {
				return true
			}
		}
		return false
	}
	bad := 0
	for _, in := range res.Insts {
		if !inExtent(in.Addr) && !in.IsPadding() {
			bad++
			if bad < 5 {
				t.Errorf("decoded %v outside all function extents", in)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d instructions decoded outside function extents", bad)
	}
}
