package realbin

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"fetch/internal/core"
	"fetch/internal/disasm"
	"fetch/internal/elfx"
)

// goRealVerdictWalks is the non-return inference's funcReturns walk
// count for one FETCH analysis of GOROOT's pack, prepared like
// perfbench's go-real workload, under the toolchain it was measured
// with (goRealToolchain). The round-robin sweep the worklist replaced
// made 24,790, and the fixed point before it stopped at passes that
// would repeat 9,212. goRealCommittedPasses and goRealProbes are the
// same analysis's committed fixed-point passes (9 without the skip)
// and validation probes (342 when every round walked every candidate
// again; 205 while imul r, r/m, imm counted as reading its destination,
// so rule (iv) rejected one more candidate before its walk).
const (
	goRealToolchain       = "go1.24.0"
	goRealVerdictWalks    = 6169
	goRealCommittedPasses = 6
	goRealProbes          = 206
)

// TestGoRealVerdictWalks pins the engine work on go-real: the verdict
// walk count repeats exactly from one analysis to the next, stays under
// 10,000, and, under the toolchain whose pack it was measured on,
// equals goRealVerdictWalks, with goRealCommittedPasses committed
// passes and goRealProbes probes. It skips without a pack tool and
// under -short.
func TestGoRealVerdictWalks(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes a real Go binary")
	}
	src := filepath.Join(runtime.GOROOT(), "pkg", "tool", runtime.GOOS+"_"+runtime.GOARCH, "pack")
	if _, err := os.Stat(src); err != nil {
		t.Skipf("no pack tool: %v", err)
	}
	im, err := elfx.LoadELFFile(src)
	if err != nil {
		t.Fatal(err)
	}
	prepared, _ := PrepareStripped(im)
	raw, err := elfx.WriteELF(prepared)
	im.Close()
	if err != nil {
		t.Fatal(err)
	}
	analyze := func() disasm.Stats {
		img, err := elfx.LoadELF(raw)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.Analyze(img.Strip(), core.FETCH)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Stats.Disasm
	}
	st, again := analyze(), analyze()
	first, second := st.VerdictWalks, again.VerdictWalks
	// Validation probes walk once each, without the non-return fixed
	// point; every other pass is a committed one.
	committed := st.FixedPointPasses - st.Probes
	t.Logf("%s: %d verdict walks, %d committed passes, %d probes", runtime.Version(), first, committed, st.Probes)
	if first != second {
		t.Fatalf("verdict walks %d, then %d: the count must repeat", first, second)
	}
	if first > 10000 {
		t.Fatalf("%d verdict walks, want at most 10,000", first)
	}
	if runtime.Version() == goRealToolchain {
		if first != goRealVerdictWalks {
			t.Fatalf("%d verdict walks, want %d", first, goRealVerdictWalks)
		}
		if committed != goRealCommittedPasses || st.Probes != goRealProbes {
			t.Fatalf("%d committed passes and %d probes, want %d and %d",
				committed, st.Probes, goRealCommittedPasses, goRealProbes)
		}
	}
}
