package realbin

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"fetch/internal/elfx"
	"fetch/internal/synth"
)

// handImage builds a small image with a controlled symbol table.
func handImage() *elfx.Image {
	return &elfx.Image{
		Entry: 0x401000,
		Sections: []*elfx.Section{
			{Name: ".text", Addr: 0x401000, Data: bytes.Repeat([]byte{0xC3}, 0x100), Flags: elfx.FlagAlloc | elfx.FlagExec},
			{Name: ".data", Addr: 0x402000, Data: make([]byte, 0x20), Flags: elfx.FlagAlloc | elfx.FlagWrite},
		},
		Symbols: []elfx.Symbol{
			{Name: "main", Addr: 0x401000, Size: 0x20, Func: true},
			{Name: "frob", Addr: 0x401020, Size: 0x20, Func: true},
			{Name: "frob_alias", Addr: 0x401020, Size: 0x20, Func: true},
			{Name: "frob.cold", Addr: 0x401040, Size: 0x10, Func: true},
			{Name: "twiddle.part.1", Addr: 0x401050, Size: 0x10, Func: true},
			{Name: "coldfn", Addr: 0x401060, Size: 0x10, Func: true}, // not a part
			{Name: "data_obj", Addr: 0x402000, Size: 8, Func: false},
			{Name: "orphan", Addr: 0x900000, Size: 8, Func: true}, // outside any section
			{Name: "exported", Addr: 0x401070, Size: 0x10, Func: true, Dyn: true},
		},
	}
}

// TestDeriveTruthSymtab pins the symtab derivation rules: function
// symbols in executable sections become starts, aliases collapse,
// cold/part suffixes become Parts with resolved parents, and data,
// unmapped, and dynamic symbols stay out.
func TestDeriveTruthSymtab(t *testing.T) {
	truth, info := DeriveTruth(handImage())
	if info.Source != SourceSymtab || info.Partial {
		t.Fatalf("info = %+v, want full symtab truth", info)
	}
	wantStarts := map[uint64]bool{0x401000: true, 0x401020: true, 0x401060: true}
	if got := truth.StartSet(); len(got) != len(wantStarts) {
		t.Fatalf("starts = %#v, want %#v", got, wantStarts)
	} else {
		for a := range wantStarts {
			if !got[a] {
				t.Errorf("missing start %#x", a)
			}
		}
	}
	if len(truth.Parts) != 2 {
		t.Fatalf("parts = %+v, want frob.cold and twiddle.part.1", truth.Parts)
	}
	for _, p := range truth.Parts {
		if p.Name == "frob.cold" && p.Parent != 0x401020 {
			t.Errorf("frob.cold parent = %#x, want frob at 0x401020", p.Parent)
		}
		if p.Name == "twiddle.part.1" && p.Parent != 0 {
			t.Errorf("twiddle.part.1 parent = %#x, want unresolved 0", p.Parent)
		}
	}
}

// TestDeriveTruthDynsym pins the fallback ladder: with .symtab gone,
// surviving dynamic symbols yield partial truth; with nothing, no
// truth at all.
func TestDeriveTruthDynsym(t *testing.T) {
	im := handImage()
	var dynOnly []elfx.Symbol
	for _, s := range im.Symbols {
		if s.Dyn {
			dynOnly = append(dynOnly, s)
		}
	}
	im.Symbols = dynOnly
	truth, info := DeriveTruth(im)
	if info.Source != SourceDynsym || !info.Partial {
		t.Fatalf("info = %+v, want partial dynsym truth", info)
	}
	if len(truth.Funcs) != 1 || truth.Funcs[0].Addr != 0x401070 {
		t.Fatalf("funcs = %+v, want just the exported dynamic symbol", truth.Funcs)
	}

	im.Symbols = nil
	if tr, info := DeriveTruth(im); tr != nil || info.Source != SourceNone {
		t.Fatalf("stripped image yielded truth %v from %q", tr, info.Source)
	}
}

// TestDeriveTruthPclntab derives truth from a real unstripped Go
// binary's runtime function table — the toolchain's own go tool, since
// `go test` links its ephemeral test binaries without .symtab — and
// cross-checks it against the binary's symbol table: pclntab wins
// precedence and the two sources must agree on where functions start.
func TestDeriveTruthPclntab(t *testing.T) {
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	data, err := os.ReadFile(goBin)
	if err != nil {
		t.Skipf("reading %s: %v", goBin, err)
	}
	im, err := elfx.LoadELF(data)
	if err != nil {
		t.Skipf("%s not loadable here: %v", goBin, err)
	}
	truth, info := DeriveTruth(im)
	if info.Source != SourcePclntab {
		t.Skipf("%s has no usable pclntab (source %q)", goBin, info.Source)
	}
	if len(truth.Funcs) < 500 {
		t.Fatalf("only %d pclntab functions; a Go binary has thousands", len(truth.Funcs))
	}
	agree, disagree := 0, 0
	for _, s := range im.Symbols {
		if !s.Func || s.Dyn || !im.IsExec(s.Addr) {
			continue
		}
		if truth.IsStart(s.Addr) {
			agree++
		} else {
			disagree++
		}
	}
	if agree < 100 || disagree > agree/10 {
		t.Errorf("pclntab vs symtab: %d agree, %d disagree", agree, disagree)
	}
}

// TestPartBase pins the part-name grammar.
func TestPartBase(t *testing.T) {
	cases := []struct {
		name, base string
		part       bool
	}{
		{"frob.cold", "frob", true},
		{"frob.cold.3", "frob", true},
		{"frob.part.2", "frob", true},
		{"frob.isra.0", "", false},
		{"frob.constprop.1", "", false},
		{"coldfn", "", false},
		{"frob.coldstart", "", false},
		{".cold", "", false},
		{"plain", "", false},
	}
	for _, c := range cases {
		base, part := partBase(c.name)
		if part != c.part || base != c.base {
			t.Errorf("partBase(%q) = %q, %v; want %q, %v", c.name, base, part, c.base, c.part)
		}
	}
}

// evalSynth generates one synthetic binary and evaluates it through
// the real-binary lane, where its own symbol table is the truth.
func evalSynth(t *testing.T, seed int64) *BinaryReport {
	t.Helper()
	cfg := synth.DefaultConfig("realbin-synth", seed, synth.O2, synth.GCC, synth.LangC)
	cfg.NumFuncs = 40
	im, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatalf("synth.Generate: %v", err)
	}
	return EvalImage(cfg.Name, im)
}

// TestEvalImageSynthetic runs the full strategy ladder on a generated
// binary whose symbols provide the truth. The scores must reproduce
// the lane's core claim: the full pipeline strictly improves on the
// weaker strategies and lands near the oracle.
func TestEvalImageSynthetic(t *testing.T) {
	rep := evalSynth(t, 7)
	if rep.Err != "" || rep.Skip != "" {
		t.Fatalf("report not evaluated: err=%q skip=%q", rep.Err, rep.Skip)
	}
	if rep.Truth.Source != SourceSymtab || rep.TruthFuncs == 0 {
		t.Fatalf("truth = %+v (%d funcs), want symtab truth", rep.Truth, rep.TruthFuncs)
	}
	if len(rep.Scores) != len(StrategyNames) {
		t.Fatalf("got %d scores, want %d", len(rep.Scores), len(StrategyNames))
	}
	fetch, _ := rep.Score("FETCH")
	fde, _ := rep.Score("FDE")
	if fetch.Recall < fde.Recall || fetch.F1 < fde.F1 {
		t.Errorf("FETCH (%+v) does not improve on FDE (%+v)", fetch, fde)
	}
	if fetch.Precision < 0.95 || fetch.Recall < 0.95 {
		t.Errorf("FETCH scored P=%.3f R=%.3f on a synthetic binary; expected near-oracle", fetch.Precision, fetch.Recall)
	}
	if rep.SyntheticEHFrame {
		t.Error("synthetic binary has a real .eh_frame; none should be injected")
	}
	if rep.EHStats.Entries == 0 {
		t.Error("decoder stats not captured")
	}
}

// TestEvalImageA64 runs the real-binary lane end to end on an aarch64
// image: symtab-derived truth, the full strategy ladder, near-oracle
// scores — the second ISA rides the identical evaluation path.
func TestEvalImageA64(t *testing.T) {
	cfg := synth.DefaultConfig("realbin-a64", 7, synth.O2, synth.GCC, synth.LangC)
	cfg.NumFuncs = 40
	cfg.Arch = "a64"
	im, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatalf("synth.Generate: %v", err)
	}
	rep := EvalImage(cfg.Name, im)
	if rep.Err != "" || rep.Skip != "" {
		t.Fatalf("report not evaluated: err=%q skip=%q", rep.Err, rep.Skip)
	}
	if rep.Truth.Source != SourceSymtab || rep.TruthFuncs == 0 {
		t.Fatalf("truth = %+v (%d funcs), want symtab truth", rep.Truth, rep.TruthFuncs)
	}
	fetch, _ := rep.Score("FETCH")
	if fetch.Precision < 0.95 || fetch.Recall < 0.95 {
		t.Errorf("FETCH scored P=%.3f R=%.3f on an aarch64 synthetic binary; expected near-oracle",
			fetch.Precision, fetch.Recall)
	}
}

// TestEvalImageStrippedSkips pins the graceful path for binaries with
// no derivable truth.
func TestEvalImageStrippedSkips(t *testing.T) {
	cfg := synth.DefaultConfig("stripped", 3, synth.O2, synth.GCC, synth.LangC)
	cfg.NumFuncs = 10
	im, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := EvalImage("stripped", im.Strip())
	if rep.Evaluated() || rep.Skip == "" {
		t.Fatalf("stripped image evaluated anyway: %+v", rep)
	}
}

// TestEvalDataJunk pins that non-ELF bytes skip, not fail.
func TestEvalDataJunk(t *testing.T) {
	rep := EvalData("junk", []byte("#!/bin/sh\necho hi\n"))
	if rep.Err != "" || rep.Skip == "" {
		t.Fatalf("junk input: err=%q skip=%q, want a skip", rep.Err, rep.Skip)
	}
}

// TestSyntheticEHFrameInjection feeds an image without .eh_frame
// through the lane: analysis must still run (via the injected empty
// table) instead of hard-failing, with the injection reported.
func TestSyntheticEHFrameInjection(t *testing.T) {
	cfg := synth.DefaultConfig("noeh", 5, synth.O2, synth.GCC, synth.LangC)
	cfg.NumFuncs = 10
	im, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var secs []*elfx.Section
	for _, s := range im.Sections {
		if s.Name != ".eh_frame" {
			secs = append(secs, s)
		}
	}
	im.Sections = secs
	rep := EvalImage("noeh", im)
	if rep.Err != "" {
		t.Fatalf("no-.eh_frame image failed: %s", rep.Err)
	}
	if !rep.SyntheticEHFrame {
		t.Error("injection not reported")
	}
	if fetch, ok := rep.Score("FETCH"); !ok || fetch.Recall == 0 {
		t.Errorf("FETCH found nothing without .eh_frame: %+v", fetch)
	}
	// The injected section must not collide with real bytes, and the
	// input image must not gain it.
	prepared, injected := PrepareStripped(im)
	eh, ok := prepared.Section(".eh_frame")
	if !injected || !ok {
		t.Fatalf("PrepareStripped injected=%v, .eh_frame present=%v", injected, ok)
	}
	if _, ok := im.SectionAt(eh.Addr); ok {
		t.Error("synthetic .eh_frame address overlaps a mapped section")
	}
	if _, ok := im.Section(".eh_frame"); ok {
		t.Error("PrepareStripped added .eh_frame to its input image")
	}
}

// corpusDir writes a temp corpus: two loadable synthetic binaries, a
// stripped one, and junk.
func corpusDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for i, seed := range []int64{11, 12} {
		cfg := synth.DefaultConfig("corp", seed, synth.O2, synth.GCC, synth.LangC)
		cfg.NumFuncs = 15
		im, _, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := elfx.WriteELF(im)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, []string{"a.bin", "b.bin"}[i]), blob, 0o755); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			stripped, err := elfx.WriteELF(im.Strip())
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "stripped.bin"), stripped, 0o755); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "junk.txt"), []byte("not an elf"), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestEvalFilesAndGolden runs a corpus end to end: per-binary rows in
// input order, skip/fail accounting, aggregation, and golden floors
// both holding and violated.
func TestEvalFilesAndGolden(t *testing.T) {
	dir := corpusDir(t)
	paths := []string{
		filepath.Join(dir, "a.bin"),
		filepath.Join(dir, "b.bin"),
		filepath.Join(dir, "stripped.bin"),
		filepath.Join(dir, "junk.txt"),
		filepath.Join(dir, "missing.bin"),
	}
	rep := EvalFiles(nil, paths, 2, 0)
	if len(rep.Binaries) != len(paths) {
		t.Fatalf("%d rows for %d paths", len(rep.Binaries), len(paths))
	}
	if rep.Evaluated != 2 || rep.Skipped != 2 || rep.Failed != 1 {
		t.Fatalf("evaluated/skipped/failed = %d/%d/%d, want 2/2/1", rep.Evaluated, rep.Skipped, rep.Failed)
	}
	if len(rep.Aggregate) != len(StrategyNames) {
		t.Fatalf("aggregate rows = %d, want %d", len(rep.Aggregate), len(StrategyNames))
	}
	var fetchAgg AggregateScore
	for _, a := range rep.Aggregate {
		if a.Strategy == "FETCH" {
			fetchAgg = a
		}
	}
	if fetchAgg.TP == 0 || fetchAgg.Precision < 0.9 {
		t.Errorf("corpus FETCH aggregate %+v too weak", fetchAgg)
	}

	good := Golden{paths[0]: {{MinPrecision: 0.9, MinRecall: 0.9}}}
	if bad := good.Check(rep); len(bad) != 0 {
		t.Errorf("passing floors reported violations: %v", bad)
	}
	bad := Golden{
		paths[0]:      {{MinPrecision: 1.01}},            // impossible floor
		paths[2]:      {{MinRecall: 0.1}},                // stripped → skipped
		"nonexistent": {{Strategy: "FDE", MinRecall: 0}}, // not in run
	}
	if got := bad.Check(rep); len(got) != 3 {
		t.Errorf("want 3 violations, got %v", got)
	}
}

// TestScan pins the host-walk filters: ELF candidates found, junk and
// oversized files counted, nothing fatal.
func TestScan(t *testing.T) {
	dir := corpusDir(t)
	// Size the cap just above the largest real candidate so only the
	// deliberately oversized ELF trips it.
	var maxBytes int64
	for _, n := range []string{"a.bin", "b.bin", "stripped.bin"} {
		fi, err := os.Stat(filepath.Join(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > maxBytes {
			maxBytes = fi.Size()
		}
	}
	maxBytes += 1024
	big := bytes.Repeat([]byte{0}, int(maxBytes)+4096)
	copy(big, []byte{0x7F, 'E', 'L', 'F', 2, 1, 1, 0})
	big[18], big[19] = 0x3E, 0
	if err := os.WriteFile(filepath.Join(dir, "big.bin"), big, 0o755); err != nil {
		t.Fatal(err)
	}
	elf32 := append([]byte{0x7F, 'E', 'L', 'F', 1, 1, 1, 0}, make([]byte, 32)...)
	if err := os.WriteFile(filepath.Join(dir, "elf32.bin"), elf32, 0o755); err != nil {
		t.Fatal(err)
	}
	// A well-formed ELF64 header of an ISA without a registered backend
	// (riscv64, e_machine 243) lands in its own bucket, not NonELF.
	riscv := append([]byte{0x7F, 'E', 'L', 'F', 2, 1, 1, 0}, make([]byte, 32)...)
	riscv[18], riscv[19] = 243, 0
	if err := os.WriteFile(filepath.Join(dir, "riscv.bin"), riscv, 0o755); err != nil {
		t.Fatal(err)
	}

	res := Scan([]string{dir}, maxBytes)
	if len(res.Candidates) != 3 {
		t.Errorf("candidates = %v, want the three synthetic binaries", res.Candidates)
	}
	if res.TooLarge != 1 {
		t.Errorf("TooLarge = %d, want 1 (big.bin)", res.TooLarge)
	}
	if res.NonELF != 2 {
		t.Errorf("NonELF = %d, want 2 (junk.txt, elf32.bin)", res.NonELF)
	}
	if res.OtherISA != 1 {
		t.Errorf("OtherISA = %d, want 1 (riscv.bin)", res.OtherISA)
	}
	if res2 := Scan([]string{filepath.Join(dir, "does-not-exist")}, 0); len(res2.Candidates) != 0 || res2.Unreadable != 1 {
		t.Errorf("missing dir: %+v, want one unreadable entry", res2)
	}
}

// TestEvalFileLargerThanBudgetDoesNotMaterialize is the regression
// test for the file-backed evaluation path: a scan over a binary far
// larger than any in-memory budget must evaluate successfully while
// keeping heap-materialized section bytes a small fraction of the file
// — the bulk stays on disk behind mmap windows. The buffered-era
// EvalFile (os.ReadFile + LoadELF) materialized everything and fails
// the MemStats assertion by construction.
func TestEvalFileLargerThanBudgetDoesNotMaterialize(t *testing.T) {
	blobSize := 48 << 20
	if testing.Short() {
		blobSize = 16 << 20
	}
	cfg := synth.DefaultConfig("bigscan", 11, synth.O2, synth.GCC, synth.LangC)
	cfg.NumFuncs = 20
	im, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatalf("synth.Generate: %v", err)
	}
	// Bolt a huge non-executable blob onto the image, placed past
	// everything mapped so it shadows nothing.
	var top uint64
	for _, s := range im.Sections {
		if s.End() > top {
			top = s.End()
		}
	}
	im.Sections = append(im.Sections, &elfx.Section{
		Name:  ".blob",
		Addr:  (top + 0xFFF) &^ 0xFFF,
		Data:  make([]byte, blobSize),
		Flags: elfx.FlagAlloc,
	})
	raw, err := elfx.WriteELF(im)
	if err != nil {
		t.Fatalf("WriteELF: %v", err)
	}
	path := filepath.Join(t.TempDir(), "big.elf")
	if err := os.WriteFile(path, raw, 0o755); err != nil {
		t.Fatal(err)
	}

	// The public entry point: evaluation over the big file succeeds.
	rep := EvalFile(path, 0)
	if rep.Err != "" || rep.Skip != "" {
		t.Fatalf("EvalFile on big binary: err=%q skip=%q", rep.Err, rep.Skip)
	}
	if rep.SizeBytes != len(raw) {
		t.Errorf("SizeBytes = %d, want %d", rep.SizeBytes, len(raw))
	}
	// A cap below the file size still skips cleanly, never fails.
	if capped := EvalFile(path, int64(len(raw)-1)); capped.Skip == "" || capped.Err != "" {
		t.Fatalf("capped EvalFile: err=%q skip=%q, want a skip", capped.Err, capped.Skip)
	}

	// The same evaluation with an observable image: heap-materialized
	// bytes stay a small fraction of the file while mmap serves the
	// rest. (Without a working mmap the pread fallback materializes
	// whatever the analysis touches; only assert where mapping works.)
	img, err := elfx.LoadELFFile(path)
	if err != nil {
		t.Fatalf("LoadELFFile: %v", err)
	}
	defer img.Close()
	rep2 := EvalImage("bigscan", img)
	if rep2.Err != "" || rep2.Skip != "" {
		t.Fatalf("EvalImage on big binary: err=%q skip=%q", rep2.Err, rep2.Skip)
	}
	ms := img.MemStats()
	if ms.MappedBytes == 0 {
		t.Skip("platform did not mmap the image; materialization bound not applicable")
	}
	if limit := int64(len(raw)) / 4; ms.MaterializedBytes > limit {
		t.Errorf("materialized %d bytes of a %d-byte file (limit %d): the blob went on the heap",
			ms.MaterializedBytes, len(raw), limit)
	}
	if runtime.GOOS == "linux" && ms.MaterializedBytes > 4<<20 {
		t.Errorf("materialized %d bytes on linux; expected well under 4 MiB", ms.MaterializedBytes)
	}
}
