package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fetch"
	"fetch/internal/metrics"
)

// The synth-corpus and go-real workloads: one client running cold
// fetch.AnalyzeFile calls in a closed loop, over the seeded self-built
// corpus and over one real Go binary.

const (
	// corpusScale is the smallest SelfBuiltCorpus scale: the corpus
	// floor of 8 binaries per project, 176 in all.
	corpusScale = 0.004
	// setupReps is how many times a run repeats its set-up; setup_s is
	// the median.
	setupReps = 5
)

func runSynthCorpus(e *env) (*result, error) {
	dir := filepath.Join(e.tmp, "corpus")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfgs := corpusSpecs(corpusScale, e.opts.seed)
	var bins []*binary
	var setup []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		b, err := genAll(cfgs, dir)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		bins = b
	}
	if err := e.inputsReady(digest(bins)); err != nil {
		return nil, err
	}
	if e.opts.trace {
		return analyzeTraced(e, bins, true)
	}
	return analyzeCold(e, bins, setup)
}

func runGoReal(e *env) (*result, error) {
	var bins []*binary
	var setup []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		b, err := prepareGoReal(packPath(), e.tmp)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		bins = []*binary{b}
	}
	if err := e.inputsReady(digest(bins)); err != nil {
		return nil, err
	}
	if e.opts.trace {
		return analyzeTraced(e, bins, false)
	}
	return analyzeCold(e, bins, setup)
}

// analyzeCold runs whole passes over bins until the run's time is up,
// at least one, timing each cold fetch.AnalyzeFile call. Every later
// pass must reproduce the first pass's results exactly.
func analyzeCold(e *env, bins []*binary, setup []float64) (*result, error) {
	r := newResult(e)
	ac := newAllocCounter()
	var lat []float64
	var text, allocB float64
	first := make([][sha256.Size]byte, len(bins))
	var score metrics.Eval
	passes := 0
	start := time.Now()
	for passes == 0 || time.Since(start) < e.opts.duration() {
		results := make([]*fetch.Result, len(bins))
		// Every pass starts from a collected heap, so the garbage of the
		// last one does not land on the first analyses of this one.
		runtime.GC()
		a0, _ := ac.read()
		for i, b := range bins {
			t0 := time.Now()
			res, err := fetch.AnalyzeFile(b.path)
			d := time.Since(t0)
			r.attempted++
			if err != nil {
				r.fail("%s: %v", b.name, err)
				continue
			}
			lat = append(lat, ms(d))
			text += float64(b.textBytes)
			results[i] = res
		}
		a1, _ := ac.read()
		allocB += float64(a1 - a0)
		for i, res := range results {
			if res == nil {
				continue
			}
			enc, err := fetch.EncodeResult(fetch.StripSchedule(res))
			if err != nil {
				r.fail("%s: %v", bins[i].name, err)
				continue
			}
			h := sha256.Sum256(enc)
			if passes > 0 {
				if h != first[i] {
					r.fail("%s: pass %d differs from the first pass", bins[i].name, passes+1)
				}
				continue
			}
			first[i] = h
			ev := metrics.Evaluate(startSet(res.FunctionStarts), bins[i].truth)
			score.TP, score.FP, score.FN = score.TP+ev.TP, score.FP+ev.FP, score.FN+ev.FN
		}
		passes++
	}

	n, busy := float64(len(lat)), sum(lat)/1e3
	p50 := median(lat)
	p90, ok90 := tail(lat, 0.9)
	p99, ok99 := tail(lat, 0.99)
	mt := r.metrics
	mt["setup_s"] = median(setup)
	mt["analyze_ms_p50"], mt["analyze_ms_p90"] = p50, p90
	mt["text_mb_per_s"] = text / mib / busy
	mt["alloc_mb_per_binary"] = allocB / mib / n
	mt["peak_rss_mb"] = peakRSSMB()
	mt["precision"], mt["recall"] = score.Precision(), score.Recall()
	mt["req_per_s"] = n / busy
	// No cache is attached here: a request for a binary seen in an
	// earlier pass is served by a cold analysis like any other, so every
	// request-kind latency is the analysis median. Their tails would only
	// repeat analyze_ms_p90 with more noise.
	for _, k := range []string{"hit_ms_p50", "hit_ms_p90", "delta_ms_p50", "delta_ms_p90", "miss_ms_p50"} {
		mt[k] = p50
	}
	fmt.Fprintf(e.report, "# %s: %d analyses of %d binaries in %d passes; analyze min %.3f ms, p50 %.3f ms, p90 %.3f ms%s, p99 %.3f ms%s, max %.3f ms\n",
		e.opts.workload, len(lat), len(bins), passes, quantile(lat, 0), p50, p90, medianNote(ok90), p99, medianNote(ok99), quantile(lat, 1))
	fmt.Fprintf(e.report, "# FETCH precision %.4f recall %.4f (TP %d, FP %d, FN %d)\n",
		score.Precision(), score.Recall(), score.TP, score.FP, score.FN)
	return r, nil
}

// medianNote marks a tail percentile that fell back to the median.
func medianNote(ok bool) string {
	if ok {
		return ""
	}
	return " (median: fewer than 10 samples beyond the tail)"
}

// analyzeTraced is the traced run of the analysis workloads: each
// binary goes through the library untraced (timed), then through the
// layer driver traced, whose result must equal the library's. rows
// prints a per-binary row of the first pass.
func analyzeTraced(e *env, bins []*binary, rows bool) (*result, error) {
	r := newResult(e)
	tr, ac, agg := newTracer(), newAllocCounter(), newTraceAgg()
	first := make([]counts, len(bins))
	firstLib := make([]float64, len(bins))
	gc0 := readGC()
	hs := startHeapSampler(10 * time.Millisecond)
	passes := 0
	start := time.Now()
	for passes == 0 || time.Since(start) < e.opts.duration() {
		for i, b := range bins {
			r.attempted++
			t0 := time.Now()
			lib, err := fetch.AnalyzeFile(b.path)
			libMS := ms(time.Since(t0))
			if err != nil {
				r.fail("%s: %v", b.name, err)
				continue
			}
			c, err := agg.traceBinary(tr, ac, i, b, lib, libMS)
			if err != nil {
				r.fail("%v", err)
				continue
			}
			if passes == 0 {
				first[i], firstLib[i] = c, libMS
			}
		}
		passes++
	}
	heapPeak := hs.finish()
	if err := agg.fill(r.metrics); err != nil {
		return nil, err
	}
	runtimeMetrics(r.metrics, gc0, heapPeak)
	// These workloads attach no cache and run no service.
	for _, d := range perLayer {
		if l := layerOf(d.Name); l == "cache" || l == "service" {
			r.metrics[d.Name] = 0
		}
	}
	r.spans = tr.spans
	if rows {
		fmt.Fprintf(e.report, "# per binary, first pass: name isa compiler opt true_funcs untraced_ms traced_ms ehframe_ms recursive_ms xref_ms tailcall_ms\n")
		for i, b := range bins {
			c := first[i]
			if c == nil {
				continue
			}
			fmt.Fprintf(e.report, "#   %-26s %s %-5s %-5s %4d %8.3f %8.3f %7.3f %7.3f %7.3f %7.3f\n",
				b.name, b.isa, b.compiler, b.opt, len(b.truth.Funcs), firstLib[i], c["total_ms"],
				c["ehframe.decode_ms"], c["disasm.recursive_ms"],
				c["xref.index_ms"]+c["xref.detect_ms"]+c["xref.extend_ms"],
				c["tailcall.run_ms"]+c["tailcall.reanalysis_ms"])
		}
	}
	agg.reportOverhead(e.report)
	return r, nil
}

func startSet(starts []uint64) map[uint64]bool {
	s := make(map[uint64]bool, len(starts))
	for _, a := range starts {
		s[a] = true
	}
	return s
}
