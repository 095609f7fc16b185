package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"fetch"
	"fetch/internal/core"
	"fetch/internal/disasm"
	"fetch/internal/ehframe"
	"fetch/internal/elfx"
	"fetch/internal/tailcall"
	"fetch/internal/xref"
)

// counts holds one traced analysis's measurements under their
// per-layer metric names: span durations in ms, and the layers' own
// counters (Session.Stats, the .eh_frame DecodeStats, tailcall.Output,
// an xref observer) read at the same boundaries. "total_ms" is the
// whole replay.
type counts map[string]float64

// replay runs core's pass order through the layers' public calls on
// the binary at path, with a span around each call:
//
//	elfx.LoadELFFile → Strip → ehframe.Decode →
//	disasm.NewSession(img, {ResolveJumpTables, NonReturning}).Extend →
//	xref.NewDataIndex, then xref.Detect + Extend to the fixed point →
//	tailcall.Run → Retract + the xref re-run.
//
// It returns the pipeline's result as a fetch.Result whose
// scheduling-dependent fields are zero, so it compares byte for byte
// with fetch.StripSchedule of the library's result for the same binary.
func replay(path string, tr *tracer, bin int, ac *allocCounter) (*fetch.Result, counts, error) {
	c := counts{}
	root := tr.begin("analyze", 0, bin)
	defer func() { c["total_ms"] = ms(tr.end(root)) }()
	timed := func(name string, parent int, f func()) float64 {
		id := tr.begin(name, parent, bin)
		f()
		return ms(tr.end(id))
	}

	var img *elfx.Image
	var err error
	c["elfx.load_ms"] = timed("elfx.load", root, func() { img, err = elfx.LoadELFFile(path) })
	if err != nil {
		return nil, c, err
	}
	defer img.Close()
	var simg *elfx.Image
	c["elfx.strip_ms"] = timed("elfx.strip", root, func() { simg = img.Strip() })

	var sec *ehframe.Section
	c["ehframe.decode_ms"] = timed("ehframe.decode", root, func() { sec, err = decodeEHFrame(simg) })
	if err != nil {
		return nil, c, err
	}
	c["ehframe.fdes"], c["ehframe.skipped_fdes"] = float64(len(sec.FDEs)), float64(sec.Stats.SkippedFDEs)
	funcs := map[uint64]bool{}
	var fdeStarts []uint64
	for _, f := range sec.FDEs {
		if !funcs[f.PCBegin] {
			funcs[f.PCBegin] = true
			fdeStarts = append(fdeStarts, f.PCBegin)
		}
	}
	sort.Slice(fdeStarts, func(i, j int) bool { return fdeStarts[i] < fdeStarts[j] })

	seeds := append([]uint64(nil), fdeStarts...)
	if simg.IsExec(simg.Entry) {
		seeds = append(seeds, simg.Entry)
	}
	var sess *disasm.Session
	var res *disasm.Result
	a0, _ := ac.read()
	c["disasm.recursive_ms"] = timed("disasm.recursive", root, func() {
		sess = disasm.NewSession(simg, disasm.Options{ResolveJumpTables: true, NonReturning: true})
		res = sess.Extend(seeds)
	})
	a1, _ := ac.read()
	c["disasm.alloc_mb"] = float64(a1-a0) / mib
	for f := range res.Funcs {
		funcs[f] = true
	}

	// The pipeline builds the data index on first use, with the
	// library's default job count.
	var idx *xref.DataIndex
	c["xref.index_ms"] = timed("xref.index", root, func() { idx = xref.NewDataIndex(simg, 0) })
	banned := map[uint64]bool{}
	var xrefNew []uint64
	rounds, converged := 0, true
	runXref := func(parent int, exclude map[uint64]bool) {
		var known []disasm.FuncRange
		for _, f := range sec.FDEs {
			if !exclude[f.PCBegin] {
				known = append(known, disasm.FuncRange{Start: f.PCBegin, End: f.End()})
			}
		}
		opts := xref.Options{KnownRanges: known, Session: sess, Index: idx,
			Observer: func(_ uint64, ok bool, _ *disasm.Result) {
				c["xref.candidates"]++
				if ok {
					c["xref.accepted"]++
				}
			}}
		for iter := 0; iter < core.DefaultXrefIterBound; iter++ {
			var newly []uint64
			p0 := sess.Stats().Probes
			c["xref.detect_ms"] += timed("xref.detect", parent, func() { newly = xref.Detect(simg, sess.Result(), funcs, opts) })
			c["xref.probes"] += float64(sess.Stats().Probes - p0)
			rounds++
			if len(newly) == 0 {
				return
			}
			xrefNew = append(xrefNew, newly...)
			var r *disasm.Result
			c["xref.extend_ms"] += timed("xref.extend", parent, func() { r = sess.Extend(newly) })
			for f := range r.Funcs {
				if !banned[f] {
					funcs[f] = true
				}
			}
		}
		converged = false
	}
	xsp := tr.begin("xref", root, bin)
	runXref(xsp, nil)
	tr.end(xsp)

	var out tailcall.Output
	c["tailcall.run_ms"] = timed("tailcall.run", root, func() {
		out = tailcall.Run(tailcall.Input{Img: simg, Sec: sec, Res: sess.Result(), Funcs: funcs, DataRefCount: idx.Count, Sess: sess})
	})
	funcs = out.Funcs
	for part := range out.Merged {
		banned[part] = true
	}
	exclude := map[uint64]bool{}
	for _, a := range out.CFIErrRemoved {
		banned[a], exclude[a] = true, true
	}
	if len(exclude) > 0 {
		// §V-B: drop the poisoned decode of the removed seeds, then
		// re-run pointer detection without their ranges.
		rsp := tr.begin("tailcall.reanalysis", root, bin)
		timed("disasm.retract", rsp, func() { sess.Retract(out.CFIErrRemoved) })
		runXref(rsp, exclude)
		c["tailcall.reanalysis_ms"] = ms(tr.end(rsp))
	}
	c["tailcall.merged"], c["tailcall.cfi_removed"] = float64(len(out.Merged)), float64(len(out.CFIErrRemoved))
	c["tailcall.skipped_incomplete"] = float64(out.SkippedIncomplete)
	c["xref.rounds"] = float64(rounds)
	st := sess.Stats()
	c["disasm.insts_decoded"], c["disasm.insts_reused"] = float64(st.InstsDecoded), float64(st.InstsReused)
	c["disasm.fixed_point_passes"] = float64(st.FixedPointPasses)
	c["disasm.peak_aux_mb"] = float64(st.PeakAuxBytes) / mib
	mem := simg.MemStats()
	c["elfx.mapped_mb"], c["elfx.materialized_mb"] = float64(mem.MappedBytes)/mib, float64(mem.MaterializedBytes)/mib

	starts := make([]uint64, 0, len(funcs))
	for a := range funcs {
		starts = append(starts, a)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	return &fetch.Result{
		FunctionStarts:       starts,
		FDEStarts:            fdeStarts,
		NewFromPointers:      xrefNew,
		NewFromTailCalls:     out.TailNew,
		MergedParts:          out.Merged,
		RemovedBogusFDEs:     out.CFIErrRemoved,
		SkippedIncompleteCFI: out.SkippedIncomplete,
		Stats: fetch.Stats{
			Passes:         []fetch.PassStat{{Name: "fde"}, {Name: "recursive"}, {Name: "xref"}, {Name: "tailcall"}},
			ColdStarts:     st.ColdStarts,
			Extends:        st.Extends,
			Retracts:       st.Retracts,
			XrefIterations: rounds,
			XrefConverged:  converged,
			Truncated:      !converged,
		},
	}, c, nil
}

func decodeEHFrame(img *elfx.Image) (*ehframe.Section, error) {
	eh, ok := img.Section(".eh_frame")
	if !ok {
		return nil, errors.New("binary has no .eh_frame section")
	}
	body, err := eh.BytesErr()
	if err != nil {
		return nil, err
	}
	return ehframe.Decode(body, eh.Addr)
}

// archSum accumulates linear decodes of executable sections.
type archSum struct {
	bytes, insts, allocs int64
	dur                  time.Duration
}

// archDecode linearly decodes every executable section of the binary
// at path through img.ISA().Decode, resynchronizing by the ISA's
// alignment after an undecodable word. It returns the backend's name.
func archDecode(path string, tr *tracer, bin int, ac *allocCounter) (string, archSum, error) {
	var s archSum
	img, err := elfx.LoadELFFile(path)
	if err != nil {
		return "", s, err
	}
	defer img.Close()
	isa := img.ISA()
	type window struct {
		b    []byte
		addr uint64
	}
	var ws []window
	for _, sec := range img.ExecSections() {
		b, err := sec.BytesErr()
		if err != nil {
			return "", s, err
		}
		ws = append(ws, window{b, sec.Addr})
	}
	_, o0 := ac.read()
	id := tr.begin("arch.decode", 0, bin)
	for _, w := range ws {
		for off := 0; off < len(w.b); {
			in, err := isa.Decode(w.b[off:], w.addr+uint64(off))
			if err != nil || in.Len <= 0 {
				off += isa.InstAlign()
				continue
			}
			s.insts++
			off += in.Len
		}
		s.bytes += int64(len(w.b))
	}
	s.dur = tr.end(id)
	_, o1 := ac.read()
	s.allocs = int64(o1 - o0)
	return isa.Name(), s, nil
}

// traceAgg accumulates the traced analyses of one run.
type traceAgg struct {
	sums              counts
	n                 int
	libMS, tracedMS   []float64
	arch              map[string]*archSum
	encMS, decMS, kbs []float64
}

func newTraceAgg() *traceAgg { return &traceAgg{sums: counts{}, arch: map[string]*archSum{}} }

// traceBinary replays one binary through the layer driver, checks the
// replay against the library's result lib for the same binary (which
// took libMS untraced), and measures the ISA decoder and the codec on it.
func (a *traceAgg) traceBinary(tr *tracer, ac *allocCounter, id int, b *binary, lib *fetch.Result, libMS float64) (counts, error) {
	got, c, err := replay(b.path, tr, id, ac)
	if err != nil {
		return nil, fmt.Errorf("%s: traced replay: %w", b.name, err)
	}
	want, err := fetch.EncodeResult(fetch.StripSchedule(lib))
	if err != nil {
		return nil, err
	}
	have, err := fetch.EncodeResult(got)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(want, have) {
		return nil, fmt.Errorf("%s: the traced replay's starts and corrections differ from the library result", b.name)
	}
	isa, s, err := archDecode(b.path, tr, id, ac)
	if err != nil {
		return nil, err
	}
	t := a.arch[isa]
	if t == nil {
		t = &archSum{}
		a.arch[isa] = t
	}
	t.bytes, t.insts, t.allocs, t.dur = t.bytes+s.bytes, t.insts+s.insts, t.allocs+s.allocs, t.dur+s.dur

	t0 := time.Now()
	blob, err := fetch.EncodeResult(lib)
	a.encMS = append(a.encMS, ms(time.Since(t0)))
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	_, err = fetch.DecodeResult(blob)
	a.decMS = append(a.decMS, ms(time.Since(t0)))
	if err != nil {
		return nil, err
	}
	a.kbs = append(a.kbs, float64(len(blob))/1024)

	for k, v := range c {
		a.sums[k] += v
	}
	a.n++
	a.libMS = append(a.libMS, libMS)
	a.tracedMS = append(a.tracedMS, c["total_ms"])
	return c, nil
}

// fill sets the metrics of the analysis layers, the ISA decoders, the
// codec, and the tracing overhead: means per traced analysis, ratios of
// the summed counts, and medians of the codec timings.
func (a *traceAgg) fill(m map[string]float64) error {
	if a.n == 0 {
		return errors.New("no binary completed a traced analysis")
	}
	for _, d := range perLayer {
		switch layerOf(d.Name) {
		case "elfx", "ehframe", "disasm", "xref", "tailcall":
			m[d.Name] = a.sums[d.Name] / float64(a.n)
		}
	}
	m["disasm.reuse_ratio"] = ratio(a.sums["disasm.insts_reused"], a.sums["disasm.insts_reused"]+a.sums["disasm.insts_decoded"])
	m["xref.accept_ratio"] = ratio(a.sums["xref.accepted"], a.sums["xref.candidates"])
	for _, isa := range []string{"x64", "a64"} {
		s := a.arch[isa]
		if s == nil {
			s = &archSum{}
		}
		m["arch."+isa+".decode_mb_per_s"] = ratio(float64(s.bytes)/mib, s.dur.Seconds())
		m["arch."+isa+".allocs_per_inst"] = ratio(float64(s.allocs), float64(s.insts))
	}
	m["codec.encode_ms"], m["codec.decode_ms"], m["codec.result_kb"] = median(a.encMS), median(a.decMS), median(a.kbs)
	m["trace.overhead_ms"] = median(a.tracedMS) - median(a.libMS)
	return nil
}

// reportOverhead prints the tracing overhead: the traced replay's
// median time minus the untraced library call's, on the same binaries.
func (a *traceAgg) reportOverhead(w io.Writer) {
	t, u := median(a.tracedMS), median(a.libMS)
	fmt.Fprintf(w, "# tracing overhead: traced p50 %.3f ms - untraced p50 %.3f ms = %.3f ms per analysis (%+.1f%%, %d analyses)\n",
		t, u, t-u, 100*ratio(t-u, u), a.n)
}

// runtimeMetrics sets the Go runtime's GC and heap figures of a run.
func runtimeMetrics(m map[string]float64, gc0 gcSnapshot, heapPeakMB float64) {
	gc1 := readGC()
	m["runtime.gc_cycles"] = float64(gc1.cycles - gc0.cycles)
	m["runtime.gc_pause_ms"] = float64(gc1.pauseNS-gc0.pauseNS) / 1e6
	m["runtime.heap_peak_mb"] = heapPeakMB
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
