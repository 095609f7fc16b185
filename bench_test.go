// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation, per-tool throughput benchmarks (Table V's
// substance), and ablation benches for the design choices DESIGN.md
// calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Each evaluation bench reports the headline counts of its experiment
// as custom metrics so regressions in *results* (not just speed) are
// visible in benchmark diffs.
package fetch

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"fetch/internal/baseline"
	"fetch/internal/core"
	"fetch/internal/disasm"
	"fetch/internal/ehframe"
	"fetch/internal/elfx"
	"fetch/internal/eval"
	"fetch/internal/groundtruth"
	"fetch/internal/metrics"
	"fetch/internal/realbin"
	"fetch/internal/stackan"
	"fetch/internal/synth"
	"fetch/internal/tailcall"
	"fetch/internal/xref"
)

// benchCorpus is built once and shared by all evaluation benches.
var (
	benchOnce   sync.Once
	benchCorp   *eval.Corpus
	benchSingle *elfx.Image
	benchTruth  *groundtruth.Truth
)

func corpusForBench(b *testing.B) *eval.Corpus {
	b.Helper()
	benchOnce.Do(func() {
		// Jobs pinned to 1: these per-driver benches measure sequential
		// cost, comparable across machines and to pre-pool baselines.
		// BenchmarkAnalyzeBatch/BenchmarkCorpusParallel carry the
		// parallel legs.
		c, err := eval.BuildSelfBuiltJobs(0.01, 31000, 1)
		if err != nil {
			panic(err)
		}
		if len(c.Bins) > 40 {
			c.Bins = c.Bins[:40]
		}
		benchCorp = c
		cfg := synth.DefaultConfig("bench-single", 31999, synth.O2, synth.GCC, synth.LangC)
		cfg.NumFuncs = 200
		img, truth, err := synth.Generate(cfg)
		if err != nil {
			panic(err)
		}
		benchSingle = img.Strip()
		benchTruth = truth
	})
	return benchCorp
}

// --- Tables ---

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.TableIJobs(int64(40000+i), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AvgRatio, "fde%")
	}
}

func BenchmarkTableII(b *testing.B) {
	c := corpusForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.TableII(c)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Overall, "fde%")
	}
}

func BenchmarkTableIII(b *testing.B) {
	c := corpusForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.TableIII(c)
		if err != nil {
			b.Fatal(err)
		}
		var fetchFP, fetchFN int
		for _, opt := range res.Opts {
			cell := res.Cells[opt][baseline.ToolFETCH]
			fetchFP += cell.FP
			fetchFN += cell.FN
		}
		b.ReportMetric(float64(fetchFP), "fetch-fp")
		b.ReportMetric(float64(fetchFN), "fetch-fn")
	}
}

func BenchmarkTableIV(b *testing.B) {
	c := corpusForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.TableIV(c)
		if err != nil {
			b.Fatal(err)
		}
		cell := res.Cells[synth.O2][stackan.DyninstStyle]
		b.ReportMetric(cell[0].Precision, "dyninst-pre")
	}
}

func BenchmarkTableV(b *testing.B) {
	c := corpusForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.TableV(c, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures ---

func benchFigure(b *testing.B, run func(*eval.Corpus) (*eval.FigureResult, error)) {
	b.Helper()
	c := corpusForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := run(c)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(float64(last.FullCoverage), "full-cov")
		b.ReportMetric(float64(last.FullAccuracy), "full-acc")
	}
}

func BenchmarkFigure5a(b *testing.B) { benchFigure(b, eval.Figure5a) }
func BenchmarkFigure5b(b *testing.B) { benchFigure(b, eval.Figure5b) }
func BenchmarkFigure5c(b *testing.B) { benchFigure(b, eval.Figure5c) }

// --- Section experiments ---

func BenchmarkSectionIVB(b *testing.B) {
	c := corpusForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.SectionIVB(c)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CoverageRatio, "coverage%")
	}
}

func BenchmarkSectionIVE(b *testing.B) {
	c := corpusForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.SectionIVE(c)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.NewStarts), "found")
		b.ReportMetric(float64(res.NewFPs), "fp")
	}
}

func BenchmarkSectionVA(b *testing.B) {
	c := corpusForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.SectionVA(c)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.TotalFPs), "fde-fp")
		b.ReportMetric(float64(res.ROPGadgets), "gadgets")
	}
}

func BenchmarkSectionVC(b *testing.B) {
	c := corpusForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.SectionVC(c)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.FPsBefore), "fp-before")
		b.ReportMetric(float64(res.FPsAfter), "fp-after")
	}
}

// --- Per-tool single-binary throughput (Table V's substance) ---

func benchTool(b *testing.B, tool baseline.Tool) {
	b.Helper()
	corpusForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.Run(tool, benchSingle); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkToolFETCHPerBinary(b *testing.B)   { benchTool(b, baseline.ToolFETCH) }
func BenchmarkToolGhidraPerBinary(b *testing.B)  { benchTool(b, baseline.ToolGhidra) }
func BenchmarkToolAngrPerBinary(b *testing.B)    { benchTool(b, baseline.ToolAngr) }
func BenchmarkToolDyninstPerBinary(b *testing.B) { benchTool(b, baseline.ToolDyninst) }
func BenchmarkToolBAPPerBinary(b *testing.B)     { benchTool(b, baseline.ToolBAP) }
func BenchmarkToolRadare2PerBinary(b *testing.B) { benchTool(b, baseline.ToolRadare2) }
func BenchmarkToolNucleusPerBinary(b *testing.B) { benchTool(b, baseline.ToolNucleus) }
func BenchmarkToolIDAPerBinary(b *testing.B)     { benchTool(b, baseline.ToolIDA) }
func BenchmarkToolNinjaPerBinary(b *testing.B)   { benchTool(b, baseline.ToolNinja) }

// --- Component benchmarks ---

func BenchmarkRecursiveDisassembly(b *testing.B) {
	corpusForBench(b)
	eh, _ := benchSingle.Section(".eh_frame")
	sec, err := ehframe.Decode(eh.Data, eh.Addr)
	if err != nil {
		b.Fatal(err)
	}
	seeds := sec.FunctionStarts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		disasm.Recursive(benchSingle, seeds, disasm.Options{
			ResolveJumpTables: true, NonReturning: true,
		})
	}
}

// sessionBenchSeeds splits the bench binary's FDE starts into an
// initial bulk plus the small late batches an xref-style fixed point
// adds, so the two benchmarks below replay the same iterative growth
// with and without incremental state.
func sessionBenchSeeds(b *testing.B) (initial []uint64, batches [][]uint64) {
	b.Helper()
	corpusForBench(b)
	eh, _ := benchSingle.Section(".eh_frame")
	sec, err := ehframe.Decode(eh.Data, eh.Addr)
	if err != nil {
		b.Fatal(err)
	}
	seeds := sec.FunctionStarts()
	if len(seeds) < 24 {
		b.Fatalf("bench binary has only %d seeds", len(seeds))
	}
	cut := len(seeds) - 12
	initial = seeds[:cut]
	for k := cut; k < len(seeds); k += 3 {
		end := k + 3
		if end > len(seeds) {
			end = len(seeds)
		}
		batches = append(batches, seeds[k:end])
	}
	return initial, batches
}

// BenchmarkScratchResweep is the pre-session baseline: every seed
// batch pays a full from-scratch recursive disassembly over the
// cumulative list — the O(binary)-per-iteration cost the Session
// removes.
func BenchmarkScratchResweep(b *testing.B) {
	initial, batches := sessionBenchSeeds(b)
	opts := disasm.Options{ResolveJumpTables: true, NonReturning: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cum := append([]uint64(nil), initial...)
		disasm.Recursive(benchSingle, cum, opts)
		for _, batch := range batches {
			cum = append(cum, batch...)
			disasm.Recursive(benchSingle, cum, opts)
		}
	}
}

// BenchmarkSessionExtend performs the identical growth through one
// Session, reusing every already-decoded instruction; results are
// byte-identical to the scratch variant (see the equivalence suite).
func BenchmarkSessionExtend(b *testing.B) {
	initial, batches := sessionBenchSeeds(b)
	opts := disasm.Options{ResolveJumpTables: true, NonReturning: true}
	b.ResetTimer()
	var st disasm.Stats
	for i := 0; i < b.N; i++ {
		sess := disasm.NewSession(benchSingle, opts)
		sess.Extend(initial)
		for _, batch := range batches {
			sess.Extend(batch)
		}
		st = sess.Stats()
	}
	if total := st.InstsDecoded + st.InstsReused; total > 0 {
		b.ReportMetric(100*float64(st.InstsReused)/float64(total), "reused%")
	}
}

func BenchmarkEhFrameDecode(b *testing.B) {
	corpusForBench(b)
	eh, _ := benchSingle.Section(".eh_frame")
	b.SetBytes(int64(len(eh.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ehframe.Decode(eh.Data, eh.Addr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLinearSweep(b *testing.B) {
	corpusForBench(b)
	text, _ := benchSingle.Section(".text")
	b.SetBytes(int64(len(text.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		disasm.LinearSweep(benchSingle, text.Addr, text.End())
	}
}

// --- Ablations (DESIGN.md) ---

// fetchWithTailcall runs the FETCH front half then Algorithm 1 with
// custom inputs, returning the FP/FN score.
func fetchWithTailcall(b *testing.B, mutate func(*tailcall.Input)) metrics.Eval {
	b.Helper()
	rep, err := core.Analyze(benchSingle, core.Strategy{Recursive: true, Xref: true})
	if err != nil {
		b.Fatal(err)
	}
	in := tailcall.Input{
		Img:   benchSingle,
		Sec:   rep.Sec,
		Res:   rep.Res,
		Funcs: rep.Funcs,
		DataRefCount: func(a uint64) int {
			return xref.DataRefCount(benchSingle, a)
		},
	}
	if mutate != nil {
		mutate(&in)
	}
	out := tailcall.Run(in)
	return metrics.Evaluate(out.Funcs, benchTruth)
}

// BenchmarkAblationStackSource compares Algorithm 1 fed by CFI heights
// (the paper's choice) against static stack analysis (Table IV's
// argument for why not).
func BenchmarkAblationStackSource(b *testing.B) {
	corpusForBench(b)
	b.Run("cfi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := fetchWithTailcall(b, nil)
			b.ReportMetric(float64(e.FP), "fp")
			b.ReportMetric(float64(e.FN), "fn")
		}
	})
	b.Run("static", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := fetchWithTailcall(b, func(in *tailcall.Input) { in.UseStaticHeights = true })
			b.ReportMetric(float64(e.FP), "fp")
			b.ReportMetric(float64(e.FN), "fn")
		}
	})
}

// BenchmarkAblationRefCriterion toggles the "target referenced
// elsewhere" requirement of tail-call detection.
func BenchmarkAblationRefCriterion(b *testing.B) {
	corpusForBench(b)
	b.Run("with-ref-criterion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := fetchWithTailcall(b, nil)
			b.ReportMetric(float64(e.FP), "fp")
		}
	})
	b.Run("without", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := fetchWithTailcall(b, func(in *tailcall.Input) { in.DisableRefCriterion = true })
			b.ReportMetric(float64(e.FP), "fp")
		}
	})
}

// BenchmarkAblationXrefRules disables each §IV-E validation rule in
// turn, measuring the false positives each rule prevents.
func BenchmarkAblationXrefRules(b *testing.B) {
	corpusForBench(b)
	names := []string{"no-strict-walk", "no-mid-inst", "no-range-check", "no-callconv"}
	run := func(b *testing.B, disable int) {
		rep, err := core.Analyze(benchSingle, core.Strategy{Recursive: true})
		if err != nil {
			b.Fatal(err)
		}
		var ranges []disasm.FuncRange
		for _, f := range rep.Sec.FDEs {
			ranges = append(ranges, disasm.FuncRange{Start: f.PCBegin, End: f.End()})
		}
		opts := xref.Options{KnownRanges: ranges}
		if disable >= 0 {
			opts.DisableRule[disable] = true
		}
		newly := xref.Detect(benchSingle, rep.Res, rep.Funcs, opts)
		fp := 0
		for _, a := range newly {
			if !benchTruth.IsStart(a) {
				fp++
			}
		}
		b.ReportMetric(float64(fp), "fp")
		b.ReportMetric(float64(len(newly)), "found")
	}
	b.Run("all-rules", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, -1)
		}
	})
	for d, name := range names {
		d := d
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run(b, d)
			}
		})
	}
}

// BenchmarkAblationAlignmentFunctions measures the ANGR alignment
// observation of §IV-C: preserving alignment-padded entries versus
// splitting them.
func BenchmarkAblationAlignmentFunctions(b *testing.B) {
	c := corpusForBench(b)
	score := func(b *testing.B, split bool) {
		var agg metrics.Aggregate
		for _, bin := range c.Bins {
			d, err := baseline.FDE(bin.Img.Strip())
			if err != nil {
				b.Fatal(err)
			}
			d = baseline.Rec(bin.Img.Strip(), d)
			if split {
				d = baseline.Align(bin.Img.Strip(), d)
			}
			agg.Add(metrics.Evaluate(d.Funcs, bin.Truth))
		}
		b.ReportMetric(float64(agg.FP), "fp")
		b.ReportMetric(float64(agg.FN), "fn")
	}
	b.Run("preserved", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			score(b, false)
		}
	})
	b.Run("split", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			score(b, true)
		}
	})
}

// --- Batch engine ---

// batchBenchInputs builds a fixed set of in-memory sample binaries for
// the batch benchmarks.
func batchBenchInputs(b *testing.B, n int) []Input {
	b.Helper()
	inputs := make([]Input, n)
	for i := range inputs {
		raw, _, err := GenerateSample(SampleConfig{Seed: int64(52000 + i), NumFuncs: 80, Stripped: true})
		if err != nil {
			b.Fatal(err)
		}
		inputs[i] = Input{Name: fmt.Sprintf("bench-%d", i), Data: raw}
	}
	return inputs
}

// BenchmarkAnalyzeBatch measures the worker-pool batch API at one
// worker versus one per CPU over the same inputs. The jobs=1 /
// jobs=NumCPU ratio is the headline parallel speedup; results are
// identical by construction (see TestAnalyzeBatchDeterminism).
func BenchmarkAnalyzeBatch(b *testing.B) {
	inputs := batchBenchInputs(b, 16)
	for _, jobs := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results := AnalyzeBatch(inputs, BatchOptions{Jobs: jobs})
				for _, br := range results {
					if br.Err != nil {
						b.Fatal(br.Err)
					}
				}
			}
			b.ReportMetric(float64(len(inputs))*float64(b.N)/b.Elapsed().Seconds(), "binaries/s")
		})
	}
}

// BenchmarkCorpusParallel measures parallel corpus generation, the
// front half of every evaluation run.
func BenchmarkCorpusParallel(b *testing.B) {
	for _, jobs := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := eval.BuildSelfBuiltJobs(0.01, 31000, jobs)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(c.Bins)), "bins")
			}
		})
	}
}

// BenchmarkFETCHEndToEnd is the headline single-binary number
// (Table V's FETCH row, ~3.3 s on the paper's corpus-sized binaries).
func BenchmarkFETCHEndToEnd(b *testing.B) {
	corpusForBench(b)
	raw, err := elfx.WriteELF(benchSingle)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Large single binary ---

// largeBenchBinary builds the large synthetic shape: one big binary
// (about 1,200 functions), the service's worst case — batch
// parallelism cannot help a single upload.
var (
	largeBenchOnce sync.Once
	largeBenchRaw  []byte
)

func largeBenchBinary(b *testing.B) []byte {
	b.Helper()
	largeBenchOnce.Do(func() {
		cfg := synth.DefaultConfig("bench-large", 91000, synth.O2, synth.GCC, synth.LangC)
		cfg.NumFuncs = 1200
		cfg.IndirectOnlyRate = 0.02
		img, _, err := synth.Generate(cfg)
		if err != nil {
			panic(err)
		}
		raw, err := elfx.WriteELF(img.Strip())
		if err != nil {
			panic(err)
		}
		largeBenchRaw = raw
	})
	return largeBenchRaw
}

// BenchmarkAnalyzeLarge measures the full pipeline on the large shape.
func BenchmarkAnalyzeLarge(b *testing.B) {
	raw := largeBenchBinary(b)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	var funcs int
	for i := 0; i < b.N; i++ {
		res, err := Analyze(raw)
		if err != nil {
			b.Fatal(err)
		}
		funcs = len(res.FunctionStarts)
	}
	b.ReportMetric(float64(funcs), "funcs")
}

// BenchmarkAnalyzeGoReal measures cold AnalyzeFile on real compiler
// output: GOROOT's pack tool, prepared as the real-binary lane prepares
// a Go binary (stripped, with an empty .eh_frame injected, since Go's
// internal linker emits none). Pointer validation dominates it. It
// skips when the toolchain ships no pack binary.
func BenchmarkAnalyzeGoReal(b *testing.B) {
	src := filepath.Join(runtime.GOROOT(), "pkg", "tool", runtime.GOOS+"_"+runtime.GOARCH, "pack")
	if _, err := os.Stat(src); err != nil {
		b.Skipf("no pack tool: %v", err)
	}
	im, err := elfx.LoadELFFile(src)
	if err != nil {
		b.Fatal(err)
	}
	prepared, _ := realbin.PrepareStripped(im)
	raw, err := elfx.WriteELF(prepared)
	im.Close()
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "pack.stripped")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	var funcs int
	for i := 0; i < b.N; i++ {
		res, err := AnalyzeFile(path)
		if err != nil {
			b.Fatal(err)
		}
		funcs = len(res.FunctionStarts)
	}
	b.ReportMetric(float64(funcs), "funcs")
}

// --- Result cache ---

// cacheBenchBinary is the serialized bench binary cache benches share.
func cacheBenchBinary(b *testing.B) []byte {
	b.Helper()
	corpusForBench(b)
	raw, err := elfx.WriteELF(benchSingle)
	if err != nil {
		b.Fatal(err)
	}
	return raw
}

// BenchmarkCacheCold is the baseline the cache is judged against: a
// full pipeline run per iteration, no cache attached.
func BenchmarkCacheCold(b *testing.B) {
	raw := cacheBenchBinary(b)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheHit measures the steady-state serving cost of a warm
// result cache: content hash + LRU lookup + codec decode, no
// disassembly at all. The ratio to BenchmarkCacheCold is the headline
// speedup repeated traffic gets from the cache (≥10× required).
func BenchmarkCacheHit(b *testing.B) {
	raw := cacheBenchBinary(b)
	cache, err := NewCache(CacheConfig{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := Analyze(raw, WithCache(cache)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(raw, WithCache(cache)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := cache.Stats()
	if st.Hits < int64(b.N) {
		b.Fatalf("bench did not hit the cache: %+v", st)
	}
}

// BenchmarkCacheHitDisk serves every iteration from a cold memory LRU
// backed by a warm disk level — the restart-recovery path.
func BenchmarkCacheHitDisk(b *testing.B) {
	raw := cacheBenchBinary(b)
	dir := b.TempDir()
	warm, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := Analyze(raw, WithCache(warm)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cold, err := NewCache(CacheConfig{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := Analyze(raw, WithCache(cold)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaReanalysis measures the function-granular delta tier
// on the recompilation workload it exists for: a ~2000-function binary
// whose next build perturbs 1% of its functions in place. Serving the
// new build by delta replay against the previous build's recorded
// trace must beat a cold analysis by ≥10×, and the served result must
// be codec-byte-identical to the cold one — both asserted inline, so
// the bench doubles as a regression gate.
func BenchmarkDeltaReanalysis(b *testing.B) {
	cfg := synth.DefaultConfig("bench-delta", 32717, synth.O2, synth.GCC, synth.LangC)
	cfg.NumFuncs = 2000
	baseImg, _, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	baseRaw, err := elfx.WriteELF(baseImg.Strip())
	if err != nil {
		b.Fatal(err)
	}
	next := cfg
	next.PerturbK = cfg.NumFuncs / 100
	next.PerturbSeed = 0xBE7C
	nextImg, _, err := synth.Generate(next)
	if err != nil {
		b.Fatal(err)
	}
	nextRaw, err := elfx.WriteELF(nextImg.Strip())
	if err != nil {
		b.Fatal(err)
	}

	// Cold reference: both the baseline time and the equality witness.
	coldRes, err := Analyze(nextRaw)
	if err != nil {
		b.Fatal(err)
	}
	coldEnc, err := EncodeResult(StripSchedule(coldRes))
	if err != nil {
		b.Fatal(err)
	}
	const coldRuns = 3
	t0 := time.Now()
	for i := 0; i < coldRuns; i++ {
		if _, err := Analyze(nextRaw); err != nil {
			b.Fatal(err)
		}
	}
	coldNs := float64(time.Since(t0).Nanoseconds()) / coldRuns

	b.SetBytes(int64(len(nextRaw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each iteration replays against a fresh warm cache: serving
		// from the whole-binary tier (a plain hit on the second call)
		// would measure the wrong path.
		b.StopTimer()
		// The function tier stores one entry per FDE range: the memory
		// LRU must be sized for the binary or the base build's trace is
		// evicted before the next build arrives.
		cache, err := NewCache(CacheConfig{MaxEntries: 3 * cfg.NumFuncs})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Analyze(baseRaw, WithCache(cache)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := Analyze(nextRaw, WithCache(cache))
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Stats.DeltaPath {
			b.Fatalf("next build was not delta-served (reason %q)", res.Stats.DeltaFallbackReason)
		}
		enc, err := EncodeResult(StripSchedule(res))
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(enc, coldEnc) {
			b.Fatal("delta-served result is not byte-identical to cold analysis")
		}
		b.StartTimer()
	}
	b.StopTimer()
	deltaNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	speedup := coldNs / deltaNs
	b.ReportMetric(speedup, "×vs-cold")
	if speedup < 10 {
		b.Fatalf("delta re-analysis only %.1f× faster than cold (need ≥10×)", speedup)
	}
}

// BenchmarkAnalyzeBatchDuplicates measures batch dedup: 16 slots
// holding one distinct binary cost one analysis, not 16.
func BenchmarkAnalyzeBatchDuplicates(b *testing.B) {
	raw := cacheBenchBinary(b)
	inputs := make([]Input, 16)
	for i := range inputs {
		inputs[i] = Input{Name: fmt.Sprintf("dup-%d", i), Data: raw}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, br := range AnalyzeBatch(inputs, BatchOptions{Jobs: runtime.NumCPU()}) {
			if br.Err != nil {
				b.Fatal(br.Err)
			}
		}
	}
	b.ReportMetric(float64(len(inputs))*float64(b.N)/b.Elapsed().Seconds(), "binaries/s")
}
