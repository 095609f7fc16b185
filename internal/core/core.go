package core

import (
	"fmt"
	"sort"
	"time"

	"fetch/internal/disasm"
	"fetch/internal/ehframe"
	"fetch/internal/elfx"
	"fetch/internal/tailcall"
	"fetch/internal/xref"
)

// Strategy selects which pipeline stages run. The zero value is the
// paper's "FDE" row: PC Begin extraction only.
type Strategy struct {
	// Recursive runs safe recursive disassembly from FDE starts,
	// adding direct-call targets (the paper's FDE+Rec).
	Recursive bool
	// Xref runs the §IV-E function-pointer detection (FDE+Rec+Xref).
	Xref bool
	// TailCall runs Algorithm 1 (FDE+Rec+Xref+Tcall — full FETCH).
	TailCall bool
}

// FETCH is the full pipeline configuration.
var FETCH = Strategy{Recursive: true, Xref: true, TailCall: true}

// DefaultXrefIterBound is the safety bound on the pointer-detection
// fixed point per invocation. It is a stuck-loop backstop, not a
// tuning knob: the fixed point must converge (a Detect round that
// finds nothing new) well below it on real inputs, and
// Stats.Truncated records the pathological case where it did not.
// (The historical cap of 3 silently truncated convergent iterations —
// chains of pointer-only-reachable functions whose pointers surface
// one committed extension at a time need one round per link.)
const DefaultXrefIterBound = 64

// PassStat is one pipeline pass's wall-clock cost.
type PassStat struct {
	Name string
	Wall time.Duration
}

// Stats makes the pipeline's incremental behavior observable: per-pass
// wall time, the shared session's decode-reuse counters, and the
// pointer-detection iteration outcome (the fixed point is capped, and
// truncation used to be silent).
type Stats struct {
	// Passes lists the executed passes in order with wall times.
	Passes []PassStat
	// Disasm is the shared session's counters, including its
	// candidate-validation probes.
	Disasm disasm.Stats
	// XrefIterations counts xref.Detect rounds actually run, summed
	// over every pointer-detection invocation (the initial fixed point
	// and the post-CFI-recovery re-run).
	XrefIterations int
	// XrefConverged reports whether every pointer-detection invocation
	// reached its fixed point (a Detect round that found nothing new)
	// rather than being truncated by the iteration bound. Vacuously
	// true when the xref stage is disabled.
	XrefConverged bool
	// Truncated reports that some pointer-detection invocation hit the
	// iteration safety bound before converging — the condition the
	// historical hard cap of 3 used to hide. Always the negation of
	// XrefConverged when the xref stage ran; kept separate so the
	// serialized schema states the pathology explicitly.
	Truncated bool
	// PeakImageBytes is the section content the image held on the heap
	// by the end of the run: the whole binary for buffered images, only
	// the materialized (pread/NOBITS) copies for file-backed ones —
	// zero-copy mmap windows are excluded. PeakAuxBytes is the
	// high-water accounted estimate of analysis-side data structures
	// (owner-index chunks, decode cache, data-pointer index). Both
	// describe the execution, not the result, and are zeroed by
	// StripSchedule.
	PeakImageBytes int64
	PeakAuxBytes   int64
}

// Report is the analysis outcome.
type Report struct {
	// Funcs is the final detected function-start set.
	Funcs map[uint64]bool
	// FDEStarts are the raw PC Begin values.
	FDEStarts []uint64
	// XrefNew are starts accepted by pointer validation.
	XrefNew []uint64
	// TailNew are starts added by tail-call detection.
	TailNew []uint64
	// Merged maps removed non-contiguous part starts to their owners.
	Merged map[uint64]uint64
	// CFIErrRemoved are FDE starts removed by the convention sweep.
	CFIErrRemoved []uint64
	// SkippedIncomplete counts FDE functions Algorithm 1 skipped.
	SkippedIncomplete int

	// Stats reports the pipeline's incremental-analysis counters.
	Stats Stats

	// Res is the final disassembly state.
	Res *disasm.Result
	// Sec is the decoded .eh_frame.
	Sec *ehframe.Section
}

// SortedFuncs returns the detected starts in address order.
func (r *Report) SortedFuncs() []uint64 {
	out := make([]uint64, 0, len(r.Funcs))
	for a := range r.Funcs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// safeOpts is the §IV-C conservative disassembly configuration.
func safeOpts() disasm.Options {
	return disasm.Options{ResolveJumpTables: true, NonReturning: true}
}

// pipeline is the shared state the ordered passes operate on.
type pipeline struct {
	img   *elfx.Image
	strat Strategy
	// xrefBound bounds each pointer-detection fixed point.
	xrefBound int
	rep       *Report
	// sess is the one incremental disassembly session every pass
	// reuses; created by the recursive pass.
	sess *disasm.Session
	// banned holds starts Algorithm 1 merged away or removed; later
	// re-analysis must not resurrect them (parts remain seeds for code
	// coverage but are no longer reported as functions).
	banned map[uint64]bool
	// dataIdx memoizes the data-section pointer index; nil until the
	// first query (FDE-only strategies never build it).
	dataIdx *xref.DataIndex
	// rec, when set, records the delta-analysis trace (see trace.go).
	// Recording observes the pipeline without changing any output.
	rec *recorder
	// eh, when set, is the binary's already decoded .eh_frame.
	eh *EHFrame
}

// Pass is one ordered pipeline stage.
type Pass struct {
	// Name labels the pass in Stats.Passes.
	Name string
	// Need reports whether the strategy enables the pass.
	Need func(Strategy) bool
	// Run executes the pass against the shared pipeline state.
	Run func(*pipeline) error
}

// Passes is the FETCH pipeline in execution order. The slice is the
// single source of truth for stage ordering; Analyze walks it,
// skipping passes the strategy disables.
var Passes = []Pass{
	{
		Name: "fde",
		Need: func(Strategy) bool { return true },
		Run:  (*pipeline).runFDE,
	},
	{
		Name: "recursive",
		Need: func(s Strategy) bool { return s.Recursive },
		Run:  (*pipeline).runRecursive,
	},
	{
		Name: "xref",
		Need: func(s Strategy) bool { return s.Recursive && s.Xref },
		Run:  (*pipeline).runXrefPass,
	},
	{
		Name: "tailcall",
		Need: func(s Strategy) bool { return s.Recursive && s.TailCall },
		Run:  (*pipeline).runTailCall,
	},
}

// Analyze runs the selected strategy on a binary image sequentially.
// Symbols are never consulted: the pipeline treats every input as
// stripped.
func Analyze(img *elfx.Image, strat Strategy) (*Report, error) {
	rep, sess, err := analyzeWith(img, strat, DefaultXrefIterBound, nil, nil)
	if sess != nil {
		// The session ends here, and the next analysis takes its table
		// chunks. The Report stays valid: committed results own their
		// owner index, and their instructions live in the decode
		// arena, which Release keeps.
		sess.Release()
	}
	return rep, err
}

// AnalyzeRecorded runs the pipeline like Analyze while recording
// the delta-analysis trace: the verdict environments, per-site
// validation verdicts, and byte extents ReplayDelta later verifies a
// changed binary against. The Report is byte-identical to an
// unrecorded run. The trace is nil when the binary admits no sound
// range decomposition (no usable FDE extents, or overlapping ones).
//
// eh, when non-nil, is LoadEHFrame(img): the run takes the decoded
// .eh_frame and the delta key from it instead of deriving both again.
// A missing or malformed .eh_frame fails the run as in Analyze.
func AnalyzeRecorded(img *elfx.Image, strat Strategy, eh *EHFrame) (*Report, *Trace, error) {
	if eh == nil {
		eh = LoadEHFrame(img)
	}
	rec := newRecorder(img.ISA().MaxInstLen())
	rep, sess, err := analyzeWith(img, strat, DefaultXrefIterBound, rec, eh)
	if err != nil {
		return nil, nil, err
	}
	tr, ok := rec.finish(img, sess, rep, eh)
	if sess != nil {
		// The session ends here. A cache records what it may replay,
		// and the replay sessions of its next delta request take
		// their table chunks from this one.
		sess.Release()
	}
	if !ok {
		return rep, nil, nil
	}
	return rep, tr, nil
}

// analyzeWith is the shared pipeline driver. The Report is a function
// of the binary bytes, the strategy and xrefBound, the bound on each
// pointer-detection fixed point, alone; rec, when non-nil, observes the
// run for delta-trace recording, and eh, when non-nil, supplies the
// decoded .eh_frame.
func analyzeWith(img *elfx.Image, strat Strategy, xrefBound int, rec *recorder, eh *EHFrame) (*Report, *disasm.Session, error) {
	p := &pipeline{
		img:       img,
		strat:     strat,
		xrefBound: xrefBound,
		banned:    map[uint64]bool{},
		rec:       rec,
		eh:        eh,
		rep: &Report{
			Funcs:  make(map[uint64]bool),
			Merged: make(map[uint64]uint64),
			Stats:  Stats{XrefConverged: true},
		},
	}
	for _, pass := range Passes {
		if !pass.Need(strat) {
			continue
		}
		t0 := time.Now()
		if err := pass.Run(p); err != nil {
			return nil, nil, err
		}
		p.rep.Stats.Passes = append(p.rep.Stats.Passes,
			PassStat{Name: pass.Name, Wall: time.Since(t0)})
	}
	if p.sess != nil {
		p.rep.Stats.Disasm = p.sess.Stats()
	}
	p.rep.Stats.PeakImageBytes = img.MemStats().MaterializedBytes
	p.rep.Stats.PeakAuxBytes = p.rep.Stats.Disasm.PeakAuxBytes
	if p.dataIdx != nil {
		p.rep.Stats.PeakAuxBytes += p.dataIdx.AccountedBytes()
	}
	return p.rep, p.sess, nil
}

// runFDE decodes .eh_frame, unless the caller handed it over decoded,
// and seeds the function set with the PC Begin values (the paper's
// "FDE" row).
func (p *pipeline) runFDE() error {
	sec, err := p.ehFrame()
	if err != nil {
		return err
	}
	p.rep.Sec = sec
	for _, f := range sec.FDEs {
		if !p.rep.Funcs[f.PCBegin] {
			p.rep.Funcs[f.PCBegin] = true
			p.rep.FDEStarts = append(p.rep.FDEStarts, f.PCBegin)
		}
	}
	sort.Slice(p.rep.FDEStarts, func(i, j int) bool {
		return p.rep.FDEStarts[i] < p.rep.FDEStarts[j]
	})
	return nil
}

// ehFrame returns the binary's decoded .eh_frame.
func (p *pipeline) ehFrame() (*ehframe.Section, error) {
	if p.eh != nil {
		return p.eh.Sec, nil
	}
	return decodeEHFrame(p.img)
}

// decodeEHFrame decodes img's .eh_frame section.
func decodeEHFrame(img *elfx.Image) (*ehframe.Section, error) {
	eh, ok := img.Section(".eh_frame")
	if !ok {
		return nil, fmt.Errorf("core: binary has no .eh_frame section")
	}
	body, err := eh.BytesErr()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	sec, err := ehframe.Decode(body, eh.Addr)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return sec, nil
}

// runRecursive performs the initial safe sweep from the FDE starts and
// the entry point — the only cold analysis of the pipeline; everything
// after it re-analyzes through the session.
func (p *pipeline) runRecursive() error {
	seeds := append([]uint64(nil), p.rep.FDEStarts...)
	if p.img.IsExec(p.img.Entry) {
		seeds = append(seeds, p.img.Entry)
	}
	p.sess = disasm.NewSession(p.img, safeOpts())
	if p.rec != nil {
		p.sess.SetExecObserver(p.rec)
	}
	res := p.sess.Extend(seeds)
	for f := range res.Funcs {
		p.rep.Funcs[f] = true
	}
	p.rep.Res = res
	return nil
}

// fdeRanges returns the FDE extents minus the excluded starts, for the
// §IV-E jump-into-function rule.
func fdeRanges(sec *ehframe.Section, exclude map[uint64]bool) []disasm.FuncRange {
	out := make([]disasm.FuncRange, 0, len(sec.FDEs))
	for _, f := range sec.FDEs {
		if exclude != nil && exclude[f.PCBegin] {
			continue
		}
		out = append(out, disasm.FuncRange{Start: f.PCBegin, End: f.End()})
	}
	return out
}

// addFuncs merges newly reachable starts, skipping banned ones.
func (p *pipeline) addFuncs(from map[uint64]bool) {
	for f := range from {
		if !p.banned[f] {
			p.rep.Funcs[f] = true
		}
	}
}

// dataIndex lazily builds the data-section pointer index that answers
// DataRefCount and candidate-collection queries in O(1) instead of
// rescanning every data window per query. The index is a pure
// restatement of the data bytes, so using it never changes a result;
// the oracle's DiffReports pins index-backed runs against
// core.ScratchAnalyze, whose xref and tailcall stages use the
// scan-backed path. Like the rest of one analysis, the scan runs on
// the calling goroutine: parallelism is across binaries.
func (p *pipeline) dataIndex() *xref.DataIndex {
	if p.dataIdx == nil {
		p.dataIdx = xref.NewDataIndex(p.img, 1)
	}
	return p.dataIdx
}

// dataRefCount answers Algorithm 1's data-reference queries through
// the index.
func (p *pipeline) dataRefCount(a uint64) int {
	return p.dataIndex().Count(a)
}

// runXref iterates pointer detection to convergence (a round that
// accepts nothing), extending the session with each accepted batch.
// Candidate validation probes the session, so speculative decodes
// land in the shared cache without touching the committed state, and
// each candidate is walked at most once per call: a candidate a round
// rejected after walking is re-validated in later rounds on its kept
// walk (xref.Walks), which lives exactly as long as this call's
// KnownRanges. The iteration count is recorded in Stats; hitting the
// safety bound before the fixed point marks the analysis Truncated —
// loudly, where the historical cap of 3 truncated silently.
func (p *pipeline) runXref(exclude map[uint64]bool) {
	opts := xref.Options{
		KnownRanges: fdeRanges(p.rep.Sec, exclude),
		Session:     p.sess,
		Index:       p.dataIndex(),
		Walks:       xref.NewWalks(),
	}
	if p.rec != nil {
		p.rec.post = exclude != nil
		opts.Observer = p.rec.onXref
	}
	for iter := 0; iter < p.xrefBound; iter++ {
		newly := xref.Detect(p.img, p.sess.Result(), p.rep.Funcs, opts)
		p.rep.Stats.XrefIterations++
		if len(newly) == 0 {
			return
		}
		p.rep.XrefNew = append(p.rep.XrefNew, newly...)
		res := p.sess.Extend(newly)
		p.rep.Res = res
		p.addFuncs(res.Funcs)
	}
	p.rep.Stats.XrefConverged = false
	p.rep.Stats.Truncated = true
}

// runXrefPass is the strategy-gated initial pointer-detection stage.
func (p *pipeline) runXrefPass() error {
	p.runXref(nil)
	return nil
}

// runTailCall applies Algorithm 1, then — when it removed hand-written
// FDE errors — performs the §V-B re-analysis: retracting the removed
// seeds drops their poisoned decode, and a fresh pointer-detection
// round can recover the true entries they shadowed.
func (p *pipeline) runTailCall() error {
	in := tailcall.Input{
		Img:          p.img,
		Sec:          p.rep.Sec,
		Res:          p.sess.Result(),
		Funcs:        p.rep.Funcs,
		DataRefCount: p.dataRefCount,
		Sess:         p.sess,
	}
	if p.rec != nil {
		in.Obs = &tailcall.Observer{
			OnConv: p.rec.onConv,
			OnJump: func(fde uint64, j tailcall.JumpObs) {
				p.rec.onJump(fde, j.Addr, j.Target, j.HOK, j.HZero)
			},
		}
	}
	out := tailcall.Run(in)
	p.rep.Funcs = out.Funcs
	p.rep.TailNew = out.TailNew
	p.rep.Merged = out.Merged
	p.rep.CFIErrRemoved = out.CFIErrRemoved
	p.rep.SkippedIncomplete = out.SkippedIncomplete
	for part := range out.Merged {
		p.banned[part] = true
	}
	for _, a := range out.CFIErrRemoved {
		p.banned[a] = true
	}

	if p.strat.Xref && len(out.CFIErrRemoved) > 0 {
		// Removing a hand-written FDE error can unmask the true entry
		// it shadowed (§V-B): drop the poisoned decode by retracting
		// the removed seeds, then re-run pointer detection without the
		// removed ranges.
		exclude := make(map[uint64]bool, len(out.CFIErrRemoved))
		for _, a := range out.CFIErrRemoved {
			exclude[a] = true
		}
		res := p.sess.Retract(out.CFIErrRemoved)
		p.rep.Res = res
		p.runXref(exclude)
	}
	return nil
}
