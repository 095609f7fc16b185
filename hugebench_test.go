package fetch

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"fetch/internal/elfx"
	"fetch/internal/synth"
)

// hugeTextMiB resolves the size of the benchmark binary's padded text:
// 64 MiB by default (the "binary bigger than any reasonable budget"
// regime), overridable via FETCH_HUGE_TEXT_MIB so the CI smoke run can
// exercise the same assertions at a fraction of the cost.
func hugeTextMiB(tb testing.TB) int {
	mib := 64
	if v := os.Getenv("FETCH_HUGE_TEXT_MIB"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			tb.Fatalf("bad FETCH_HUGE_TEXT_MIB=%q", v)
		}
		mib = n
	}
	return mib
}

// writeHugeBinary synthesizes a binary whose text is padded to
// ~textMiB MiB with a zero-filled executable section, serializes it to
// a temp file, and returns the path plus the total executable byte
// count. The padding carries no FDEs, so a budget-aware analysis must
// leave it on disk; every dense per-text-byte structure the pipeline
// ever grows back will blow the benchmark's ceiling.
func writeHugeBinary(tb testing.TB, textMiB int) (string, int64) {
	tb.Helper()
	cfg := synth.DefaultConfig("hugebench", 1, synth.O2, synth.GCC, synth.LangC)
	cfg.NumFuncs = 60
	im, _, err := synth.Generate(cfg)
	if err != nil {
		tb.Fatalf("synth.Generate: %v", err)
	}
	im = im.Strip()
	im.Sections = append([]*elfx.Section(nil), im.Sections...)
	var top uint64
	for _, s := range im.Sections {
		if s.End() > top {
			top = s.End()
		}
	}
	im.Sections = append(im.Sections, &elfx.Section{
		Name:  ".text.pad",
		Addr:  (top + 0xFFF) &^ 0xFFF,
		Data:  make([]byte, textMiB<<20),
		Flags: elfx.FlagAlloc | elfx.FlagExec,
	})
	raw, err := elfx.WriteELF(im)
	if err != nil {
		tb.Fatalf("WriteELF: %v", err)
	}
	dir, err := os.MkdirTemp("", "fetch-hugebench-*")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { os.RemoveAll(dir) })
	path := filepath.Join(dir, "huge.elf")
	if err := os.WriteFile(path, raw, 0o755); err != nil {
		tb.Fatal(err)
	}
	var textBytes int64
	for _, s := range im.Sections {
		if s.Flags&elfx.FlagExec != 0 {
			textBytes += int64(s.Size())
		}
	}
	return path, textBytes
}

// hugePeakCeiling is the enforced memory budget of the huge-binary
// benchmark, in peak bytes per byte of executable text. The file-backed
// path holds no eager per-text-byte array — the owner index (one byte
// per text byte), the decode index and the two walk-mark sets (four
// bytes per text byte each) allocate 64 KiB chunks only where the walks
// land, decode entries are per reachable instruction, the image serves
// sections from mmap — so an analysis of mostly-cold text sits far
// below this. Any dense allocation regression (an eagerly allocated
// owner index is ratio 1.0, an eager decode index or mark set 4.0, and
// a materialized text copy 1.0) fails the run outright.
const hugePeakCeiling = 0.125

// BenchmarkHugeBinary analyzes a synthesized binary with ≥64 MiB of
// executable text (FETCH_HUGE_TEXT_MIB overrides) through the
// file-backed path and FAILS — not logs — when the analysis's
// accounted peak memory exceeds hugePeakCeiling bytes per text byte.
// Snapshot: go test -run '^$' -bench '^BenchmarkHugeBinary$'
// -benchtime 3x . | benchsnap > BENCH_9.json
func BenchmarkHugeBinary(b *testing.B) {
	path, textBytes := writeHugeBinary(b, hugeTextMiB(b))

	// One-time identity check: the file-backed result must be
	// codec-byte-identical to the buffered result (the oracle sweeps
	// this across strategies; the benchmark pins it at this size).
	raw, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	buffered, err := Analyze(raw)
	if err != nil {
		b.Fatalf("buffered analyze: %v", err)
	}
	raw = nil
	fileBacked, err := AnalyzeFile(path)
	if err != nil {
		b.Fatalf("file-backed analyze: %v", err)
	}
	bufEnc, err := EncodeResult(StripSchedule(buffered))
	if err != nil {
		b.Fatal(err)
	}
	fileEnc, err := EncodeResult(StripSchedule(fileBacked))
	if err != nil {
		b.Fatal(err)
	}
	if !bytes.Equal(bufEnc, fileEnc) {
		b.Fatal("file-backed result encoding differs from buffered at huge-binary size")
	}

	b.SetBytes(textBytes)
	b.ResetTimer()
	var lastRatio float64
	for i := 0; i < b.N; i++ {
		res, err := AnalyzeFile(path)
		if err != nil {
			b.Fatalf("AnalyzeFile: %v", err)
		}
		peak := res.Stats.PeakImageBytes + res.Stats.PeakAuxBytes
		lastRatio = float64(peak) / float64(textBytes)
		if lastRatio > hugePeakCeiling {
			b.Fatalf("peak memory %d bytes for %d text bytes (%.4f per text byte) exceeds the %.3f ceiling",
				peak, textBytes, lastRatio, hugePeakCeiling)
		}
	}
	b.ReportMetric(lastRatio, "peak-bytes/text-byte")
}

// TestHugeBinaryBudget is the test-mode twin of BenchmarkHugeBinary so
// the ceiling is enforced by plain `go test` runs too, at smoke size
// unless FETCH_HUGE_TEXT_MIB asks for more.
func TestHugeBinaryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("huge-binary budget check skipped in -short")
	}
	mib := 8
	if v := os.Getenv("FETCH_HUGE_TEXT_MIB"); v != "" {
		mib = hugeTextMiB(t)
	}
	path, textBytes := writeHugeBinary(t, mib)
	res, err := AnalyzeFile(path)
	if err != nil {
		t.Fatalf("AnalyzeFile: %v", err)
	}
	peak := res.Stats.PeakImageBytes + res.Stats.PeakAuxBytes
	if ratio := float64(peak) / float64(textBytes); ratio > hugePeakCeiling {
		t.Fatalf("peak memory %d bytes for %d text bytes (%.4f per text byte) exceeds the %.3f ceiling",
			peak, textBytes, ratio, hugePeakCeiling)
	}
}
