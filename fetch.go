// Package fetch detects function starts in System-V ELF binaries
// (x86-64 and aarch64) from their exception-handling information,
// implementing the FETCH system from "Towards Optimal Use of Exception
// Handling Information for Function Detection" (DSN 2021).
//
// The pipeline extracts FDE PC Begin values from .eh_frame, runs safe
// recursive disassembly (bounded jump tables, skipped indirect calls,
// no tail-call guessing, fixed-point non-returning analysis including
// the error/error_at_line first-argument slice), validates conservative
// function-pointer candidates, and fixes the errors FDEs themselves
// introduce — merging per-part FDEs of non-contiguous functions via
// tail-call reasoning on CFI-recorded stack heights, and removing
// hand-written FDEs that violate the calling convention.
//
// Basic use:
//
//	res, err := fetch.AnalyzeFile("/bin/something")
//	if err != nil { ... }
//	for _, start := range res.FunctionStarts { ... }
//
// Whole corpora are analyzed with AnalyzeBatch, which fans the items
// out over a bounded worker pool while keeping results in input order
// and capturing errors per item:
//
//	results := fetch.AnalyzeBatch(inputs, fetch.BatchOptions{Jobs: runtime.NumCPU()})
//	for _, r := range results {
//		if r.Err != nil { ... continue }
//		for _, start := range r.Result.FunctionStarts { ... }
//	}
//
// Batch results are byte-identical to analyzing each input
// sequentially: parallelism changes wall-clock time, never output.
package fetch

import (
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"fetch/internal/core"
	"fetch/internal/elfx"
	"fetch/internal/pool"
	"fetch/internal/resultcache"
	"fetch/internal/synth"
)

// Result reports the detected function starts and the pipeline's
// corrections.
type Result struct {
	// FunctionStarts is the final detected set, in address order.
	FunctionStarts []uint64
	// FDEStarts are the raw PC Begin values extracted from .eh_frame.
	FDEStarts []uint64
	// NewFromPointers are starts accepted by §IV-E pointer validation.
	NewFromPointers []uint64
	// NewFromTailCalls are targets added by tail-call detection.
	NewFromTailCalls []uint64
	// MergedParts maps each non-contiguous-part FDE start that was
	// merged away to the function start owning it.
	MergedParts map[uint64]uint64
	// RemovedBogusFDEs are FDE starts removed by the §V-B
	// calling-convention sweep (hand-written CFI errors).
	RemovedBogusFDEs []uint64
	// SkippedIncompleteCFI counts functions Algorithm 1 skipped
	// because their CFI carries no complete rsp-relative heights.
	SkippedIncompleteCFI int
	// Stats reports per-pass wall times and the incremental-analysis
	// counters of the pipeline's shared disassembly session.
	Stats Stats
}

// PassStat is one pipeline pass's wall-clock cost. Wall times are the
// only non-deterministic part of a Result.
type PassStat struct {
	// Name is the pass label: "fde", "recursive", "xref", "tailcall".
	Name string `json:"name"`
	// Wall is the pass's elapsed time, encoded as integer nanoseconds
	// (the _ns suffix is the unit contract).
	Wall time.Duration `json:"wall_ns"`
}

// Stats makes the pipeline's incremental behavior observable: after
// the initial recursive sweep, pointer-detection rounds re-analyze via
// session Extend, §V-B CFI-error recovery via Retract, and candidate
// validation via session Probes — never a cold resweep (ColdStarts
// stays 1). All fields except the pass wall times are deterministic.
// The JSON tags are the wire form EncodeResult emits under "stats".
type Stats struct {
	// Passes lists the executed pipeline passes in order.
	Passes []PassStat `json:"passes"`
	// InstsDecoded and InstsReused count instruction-decode cache
	// misses and hits across the whole analysis, including candidate
	// validation probes.
	InstsDecoded int64 `json:"insts_decoded"`
	InstsReused  int64 `json:"insts_reused"`
	// ColdStarts counts disassembly sessions started with an empty
	// decode cache; the incremental pipeline reports exactly 1.
	ColdStarts int `json:"cold_starts"`
	// Extends, Retracts, and Probes count the session operations the
	// pipeline performed.
	Extends  int `json:"extends"`
	Retracts int `json:"retracts"`
	Probes   int `json:"probes"`
	// XrefIterations counts pointer-detection rounds run;
	// XrefConverged reports whether every round sequence reached its
	// fixed point rather than hitting the iteration safety bound.
	XrefIterations int  `json:"xref_iterations"`
	XrefConverged  bool `json:"xref_converged"`
	// Truncated reports that pointer detection hit its iteration
	// safety bound before converging. The historical hard cap of 3
	// rounds truncated silently; the pipeline now iterates to
	// convergence and records the pathological bound-hit here.
	Truncated bool `json:"truncated"`

	// DeltaPath reports that the result was served by function-granular
	// delta re-analysis: the binary missed the whole-binary cache, but a
	// recorded trace with the same layout residue proved that only
	// analysis-equivalent function ranges changed, so the recorded
	// result was served without re-running the pipeline.
	// DeltaDirtyRanges and DeltaTotalRanges describe the verified reuse:
	// how many roster ranges changed out of how many. On a cold run,
	// DeltaFallbackReason records why a delta attempt gave up ("" when
	// no attempt was made or the attempt succeeded). All four describe
	// how the result was obtained, never what it is — a delta-served
	// result is byte-identical to the cold recomputation after
	// StripSchedule, which zeroes them.
	DeltaPath           bool   `json:"delta_path"`
	DeltaDirtyRanges    int    `json:"delta_dirty_ranges"`
	DeltaTotalRanges    int    `json:"delta_total_ranges"`
	DeltaFallbackReason string `json:"delta_fallback_reason"`

	// PeakImageBytes is the section content the analysis held on the
	// Go heap: the whole binary for buffered images (Analyze), only
	// materialized copies for file-backed ones (AnalyzeFile serves
	// executable sections zero-copy from an mmap). PeakAuxBytes is the
	// high-water accounted estimate of analysis data structures
	// (owner-index chunks, decode cache, data-pointer index) at
	// documented per-entry costs. Both describe how the analysis ran,
	// never what it found — buffered and file-backed runs differ here
	// and nowhere else, so StripSchedule zeroes them.
	PeakImageBytes int64 `json:"peak_image_bytes"`
	PeakAuxBytes   int64 `json:"peak_aux_bytes"`
}

// StripSchedule returns a copy of the result with every field zeroed
// that describes how the analysis ran rather than what it found: wall
// times, decode/probe traffic counters, the delta-serving trace,
// and the peak-memory accounting. What remains — the detected starts,
// the corrections, and the deterministic pipeline counters (extends,
// retracts, xref iterations, convergence, truncation) — is identical
// however the result was obtained (cold, cached, delta-served,
// buffered, or file-backed); the differential checkers compare codec
// encodings of stripped results byte for byte.
func StripSchedule(r *Result) *Result {
	cp := *r
	cp.Stats.Passes = append([]PassStat(nil), r.Stats.Passes...)
	for i := range cp.Stats.Passes {
		cp.Stats.Passes[i].Wall = 0
	}
	cp.Stats.InstsDecoded = 0
	cp.Stats.InstsReused = 0
	cp.Stats.Probes = 0
	cp.Stats.DeltaPath = false
	cp.Stats.DeltaDirtyRanges = 0
	cp.Stats.DeltaTotalRanges = 0
	cp.Stats.DeltaFallbackReason = ""
	cp.Stats.PeakImageBytes = 0
	cp.Stats.PeakAuxBytes = 0
	return &cp
}

// Options is the resolved per-analysis configuration: the pipeline
// strategy plus the optional result cache. Callers never construct it
// directly — they pass Option values to Analyze/AnalyzeFile — but the
// resolved form is what an Option edits.
type Options struct {
	// Strategy selects the pipeline stages; defaults to full FETCH.
	Strategy core.Strategy
	// Cache, when non-nil, short-circuits analysis of byte-identical
	// binaries: a hit returns the stored result without decoding, a
	// miss stores the fresh result for the next caller.
	Cache *Cache
}

// Option adjusts one analysis (strategy selection, caching).
type Option func(*Options)

// buildOptions resolves an option list against the defaults.
func buildOptions(opts []Option) Options {
	o := Options{Strategy: core.FETCH}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// FDEOnly restricts the analysis to raw FDE extraction (the paper's
// "FDE" baseline row).
func FDEOnly() Option {
	return func(o *Options) { o.Strategy = core.Strategy{} }
}

// WithoutXref disables function-pointer detection.
func WithoutXref() Option {
	return func(o *Options) { o.Strategy.Xref = false }
}

// WithoutTailCall disables Algorithm 1 (no FDE-error fixing).
func WithoutTailCall() Option {
	return func(o *Options) { o.Strategy.TailCall = false }
}

// WithCache attaches a result cache to the analysis: a binary whose
// bytes, strategy, and schema version match a stored entry is served
// from the cache instead of being re-analyzed.
func WithCache(c *Cache) Option {
	return func(o *Options) { o.Cache = c }
}

// Analyze runs the FETCH pipeline on an ELF binary given as bytes.
func Analyze(elfData []byte, opts ...Option) (*Result, error) {
	res, _, err := analyzeBytes(elfData, buildOptions(opts))
	return res, err
}

// AnalyzeFile runs the FETCH pipeline on an ELF binary on disk through
// the file-backed image path: the binary is never materialized whole —
// the cache key is a streaming hash, executable sections are read as
// zero-copy windows of an mmap (pread copies where mapping is
// unavailable), and non-executable sections the analysis never touches
// are never read at all. The result is codec-byte-identical to
// Analyze over the same bytes after StripSchedule (only the
// peak-memory accounting differs).
func AnalyzeFile(path string, opts ...Option) (*Result, error) {
	res, _, err := analyzeFile(path, buildOptions(opts))
	return res, err
}

// analyzeBytes runs analyze on an in-memory binary.
func analyzeBytes(data []byte, o Options) (*Result, bool, error) {
	return analyze(o,
		func() ([sha256.Size]byte, error) { return resultcache.HashBytes(data), nil },
		func() (*elfx.Image, error) { return elfx.LoadELF(data) })
}

// analyzeFile runs analyze on an on-disk binary: the cache key comes
// from a streaming hash (the file is never read whole) and a miss
// loads the image file-backed.
func analyzeFile(path string, o Options) (*Result, bool, error) {
	return analyze(o,
		func() ([sha256.Size]byte, error) { return resultcache.HashFile(path) },
		func() (*elfx.Image, error) { return elfx.LoadELFFile(path) })
}

// analyze is the single lookup → delta → cold analysis → store
// sequence behind Analyze, AnalyzeFile, AnalyzeBatch, and the Cache
// methods. hash returns the binary's content hash and is called only
// when a cache is attached; load returns its image, which is closed
// once the pipeline finishes. With a cache, analyze consults it, on a
// whole-binary miss tries function-granular delta re-analysis against
// a recorded trace, and only then runs the cold pipeline — recording a
// fresh trace so the next recompilation of this binary can take the
// delta path. A cached or delta-served result is byte-for-byte the
// codec round trip of the result the cold path produced — the
// oracle's CachedEqualsRecomputed and DeltaEqualsCold checkers hold
// this equal (modulo the scheduling trace, see StripSchedule) to a
// recomputation across every adversarial profile. The bool reports
// whether the result came from a stored entry.
func analyze(o Options, hash func() ([sha256.Size]byte, error), load func() (*elfx.Image, error)) (*Result, bool, error) {
	var key resultcache.Key
	if o.Cache != nil {
		sum, err := hash()
		if err != nil {
			return nil, false, fmt.Errorf("fetch: %w", err)
		}
		key = cacheKey(sum, o.Strategy)
		if res, _, ok := o.Cache.lookup(key); ok {
			return res, true, nil
		}
	}
	img, err := load()
	if err != nil {
		return nil, false, err
	}
	defer img.Close()
	simg := img.Strip()
	if o.Cache == nil {
		rep, err := core.Analyze(simg, o.Strategy)
		if err != nil {
			return nil, false, err
		}
		return reportToResult(rep), false, nil
	}

	eh := core.LoadEHFrame(simg)
	res, blob, outcome, served := o.Cache.tryDelta(simg, eh, o)
	if served {
		// Store the canonical (delta-stat-free) encoding under the new
		// binary's key first, so the next identical request is a plain
		// hit; only the returned copy carries the delta markers. The
		// recorded entry is that encoding already, so it is stored
		// as-is rather than re-encoded.
		o.Cache.rc.Put(key, blob)
		res.Stats.DeltaPath = true
		res.Stats.DeltaDirtyRanges = outcome.DirtyRanges
		res.Stats.DeltaTotalRanges = outcome.TotalRanges
		return res, true, nil
	}

	// Cold run with recording, so a future recompilation of this binary
	// can be served by delta replay. It reuses the decoded .eh_frame
	// and delta key of the attempt above.
	rep, tr, err := core.AnalyzeRecorded(simg, o.Strategy, eh)
	if err != nil {
		return nil, false, err
	}
	cres := reportToResult(rep)
	stored := o.Cache.store(key, cres)
	if tr != nil {
		tr.BinSHA = key.SHA256
		tr.Result, tr.ResultSHA = recordResult(cres, stored)
	}
	o.Cache.storeTrace(tr, simg, o.Strategy)
	// The fallback reason rides only on the returned copy, after the
	// canonical blob is stored.
	cres.Stats.DeltaFallbackReason = outcome.Reason
	return cres, false, nil
}

// reportToResult converts a pipeline report to the public Result.
func reportToResult(rep *core.Report) *Result {
	st := Stats{
		InstsDecoded:   rep.Stats.Disasm.InstsDecoded,
		InstsReused:    rep.Stats.Disasm.InstsReused,
		ColdStarts:     rep.Stats.Disasm.ColdStarts,
		Extends:        rep.Stats.Disasm.Extends,
		Retracts:       rep.Stats.Disasm.Retracts,
		Probes:         rep.Stats.Disasm.Probes,
		XrefIterations: rep.Stats.XrefIterations,
		XrefConverged:  rep.Stats.XrefConverged,
		Truncated:      rep.Stats.Truncated,
		PeakImageBytes: rep.Stats.PeakImageBytes,
		PeakAuxBytes:   rep.Stats.PeakAuxBytes,
	}
	for _, ps := range rep.Stats.Passes {
		st.Passes = append(st.Passes, PassStat{Name: ps.Name, Wall: ps.Wall})
	}
	return &Result{
		FunctionStarts:       rep.SortedFuncs(),
		FDEStarts:            rep.FDEStarts,
		NewFromPointers:      rep.XrefNew,
		NewFromTailCalls:     rep.TailNew,
		MergedParts:          rep.Merged,
		RemovedBogusFDEs:     rep.CFIErrRemoved,
		SkippedIncompleteCFI: rep.SkippedIncomplete,
		Stats:                st,
	}
}

// Input is one binary of a batch. Data takes precedence when set;
// otherwise the binary is read from Path.
type Input struct {
	// Name labels the item in its BatchResult. Defaults to Path.
	Name string
	// Path is the on-disk binary, read when Data is nil.
	Path string
	// Data is the raw ELF image, if already in memory.
	Data []byte
}

// BatchOptions tunes AnalyzeBatch.
type BatchOptions struct {
	// Jobs bounds worker concurrency across binaries; non-positive
	// means one worker per available CPU. Jobs=1 reproduces the
	// sequential path exactly (it also does so for any other value —
	// see AnalyzeBatch).
	Jobs int
	// Context cancels outstanding work; nil means context.Background.
	// After cancellation, unstarted items report the context error as
	// their per-item Err.
	Context context.Context
	// Options apply to every item of the batch.
	Options []Option
	// Cache is the batch-level result cache, equivalent to appending
	// WithCache(Cache) to Options (an explicit WithCache there wins).
	// Batches already dedup identical inputs internally even without a
	// cache; attaching one additionally carries results across batches
	// and processes.
	Cache *Cache
}

// BatchResult is one input's outcome.
type BatchResult struct {
	// Name echoes Input.Name (or Input.Path when Name was empty).
	Name string
	// Result is nil when Err is set.
	Result *Result
	// Err is this item's failure; other items are unaffected.
	Err error
}

// AnalyzeBatch runs the FETCH pipeline over a set of binaries using a
// bounded worker pool. Results come back in input order and are
// identical to calling Analyze/AnalyzeFile on each input sequentially;
// per-item failures (unreadable file, corrupt ELF) are captured in the
// item's BatchResult without affecting the rest of the batch.
//
// Duplicate inputs — the same Path, or byte-identical Data — are
// analyzed once: the batch dedups before the pool and fans the shared
// outcome back out to every duplicate's slot, so a corpus with
// repeated binaries pays one analysis per distinct binary. Duplicates
// therefore share one *Result; treat batch results as read-only.
func AnalyzeBatch(inputs []Input, opts BatchOptions) []BatchResult {
	o := buildOptions(opts.Options)
	if o.Cache == nil {
		o.Cache = opts.Cache
	}

	// Dedup before the pool: map every input to its group key and keep
	// the distinct groups in first-appearance order, so the pool sees
	// each distinct binary exactly once and scheduling stays
	// deterministic.
	groupOf := make([]int, len(inputs))
	var uniq []Input
	seen := make(map[string]int)
	for i, in := range inputs {
		k := inputKey(in)
		g, ok := seen[k]
		if !ok {
			g = len(uniq)
			seen[k] = g
			uniq = append(uniq, in)
		}
		groupOf[i] = g
	}

	rs := pool.Map(opts.Context, opts.Jobs, uniq,
		func(_ context.Context, _ int, in Input) (*Result, error) {
			// Path items go through the file-backed path: a corpus
			// batch never materializes whole binaries.
			if in.Data == nil {
				res, _, err := analyzeFile(in.Path, o)
				return res, err
			}
			res, _, err := analyzeBytes(in.Data, o)
			return res, err
		})

	out := make([]BatchResult, len(inputs))
	for i := range inputs {
		name := inputs[i].Name
		if name == "" {
			name = inputs[i].Path
		}
		r := rs[groupOf[i]]
		out[i] = BatchResult{Name: name, Result: r.Value, Err: r.Err}
	}
	return out
}

// inputKey groups batch inputs that are guaranteed to produce the same
// outcome: byte-identical in-memory data, or the same on-disk path.
func inputKey(in Input) string {
	if in.Data != nil {
		sum := resultcache.HashBytes(in.Data)
		return "data:" + string(sum[:])
	}
	return "path:" + in.Path
}

// SampleConfig parameterizes GenerateSample.
type SampleConfig struct {
	Seed     int64
	NumFuncs int    // default 120
	Opt      string // "O2" (default), "O3", "Os", "Ofast"
	Compiler string // "gcc" (default) or "clang"
	Lang     string // "c" (default) or "c++"
	Arch     string // "x64" (default) or "a64"
	Stripped bool
}

// SampleTruth is the ground truth of a generated sample binary.
type SampleTruth struct {
	// FunctionStarts are the true starts.
	FunctionStarts []uint64
	// PartStarts are non-contiguous part addresses: FDE-carrying
	// locations that are NOT function starts (false-positive bait).
	PartStarts []uint64
	// Names maps addresses to source-level names.
	Names map[uint64]string
}

// GenerateSample synthesizes a small ELF executable with known
// ground truth — real machine code, .eh_frame, jump tables, tail
// calls, and non-contiguous functions — on the requested ISA
// (x86-64 by default, aarch64 with Arch "a64"). Useful for demos,
// tests, and fuzzing harnesses.
func GenerateSample(cfg SampleConfig) ([]byte, *SampleTruth, error) {
	sc := synth.DefaultConfig("sample", cfg.Seed, parseOpt(cfg.Opt),
		parseCompiler(cfg.Compiler), parseLang(cfg.Lang))
	sc.Arch = cfg.Arch
	if cfg.NumFuncs > 0 {
		sc.NumFuncs = cfg.NumFuncs
	}
	img, truth, err := synth.Generate(sc)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Stripped {
		img = img.Strip()
	}
	raw, err := elfx.WriteELF(img)
	if err != nil {
		return nil, nil, err
	}
	st := &SampleTruth{Names: make(map[uint64]string)}
	st.FunctionStarts = truth.SortedStarts()
	for _, fn := range truth.Funcs {
		st.Names[fn.Addr] = fn.Name
	}
	for _, p := range truth.Parts {
		st.PartStarts = append(st.PartStarts, p.Addr)
		st.Names[p.Addr] = p.Name
	}
	return raw, st, nil
}

func parseOpt(s string) synth.Opt {
	switch s {
	case "O3":
		return synth.O3
	case "Os":
		return synth.Os
	case "Ofast":
		return synth.Ofast
	}
	return synth.O2
}

func parseCompiler(s string) synth.Compiler {
	if s == "clang" {
		return synth.Clang
	}
	return synth.GCC
}

func parseLang(s string) synth.Lang {
	if s == "c++" || s == "cpp" {
		return synth.LangCPP
	}
	return synth.LangC
}
