package realbin

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"fetch/internal/core"
	"fetch/internal/elfx"
)

// goRealVerdictWalks is the non-return inference's funcReturns walk
// count for one FETCH analysis of GOROOT's pack, prepared like
// perfbench's go-real workload, under the toolchain it was measured
// with (goRealToolchain). The round-robin sweep the worklist replaced
// made 24,790.
const (
	goRealToolchain    = "go1.24.0"
	goRealVerdictWalks = 9212
)

// TestGoRealVerdictWalks pins the inference work on go-real: the count
// repeats exactly from one analysis to the next, stays under 10,000,
// and, under the toolchain whose pack it was measured on, equals
// goRealVerdictWalks. It skips without a pack tool and under -short.
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
	walks := func() int {
		img, err := elfx.LoadELF(raw)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.AnalyzeConfig(img.Strip(), core.Config{Strategy: core.FETCH})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Stats.Disasm.VerdictWalks
	}
	first, second := walks(), walks()
	t.Logf("%s: %d verdict walks", runtime.Version(), first)
	if first != second {
		t.Fatalf("verdict walks %d, then %d: the count must repeat", first, second)
	}
	if first > 10000 {
		t.Fatalf("%d verdict walks, want at most 10,000", first)
	}
	if runtime.Version() == goRealToolchain && first != goRealVerdictWalks {
		t.Fatalf("%d verdict walks, want %d", first, goRealVerdictWalks)
	}
}
