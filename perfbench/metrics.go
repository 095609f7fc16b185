package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	rtm "runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// metricDef declares one reported metric. The tables below are the
// program's copy of BENCHMARK.json; the self-tests hold the two equal.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of an untraced run (--trace 0). Every
// workload reports every one of them; on the workloads without a
// result cache the request-kind latencies are the analysis median (see
// analyzeCold).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"analyze_ms_p50", "ms", "lower"},
	{"analyze_ms_p90", "ms", "lower"},
	{"text_mb_per_s", "MB/s", "higher"},
	{"alloc_mb_per_binary", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"precision", "ratio", "higher"},
	{"recall", "ratio", "higher"},
	{"req_per_s", "1/s", "higher"},
	{"hit_ms_p50", "ms", "lower"},
	{"hit_ms_p90", "ms", "lower"},
	{"delta_ms_p50", "ms", "lower"},
	{"delta_ms_p90", "ms", "lower"},
	{"miss_ms_p50", "ms", "lower"},
}

// perLayer are the metrics of a traced run (--trace 1). Times and
// counts are means per analysed binary unless the name says otherwise.
var perLayer = []metricDef{
	{"elfx.load_ms", "ms", "lower"},
	{"elfx.strip_ms", "ms", "lower"},
	{"elfx.mapped_mb", "MB", "lower"},
	{"elfx.materialized_mb", "MB", "lower"},
	{"ehframe.decode_ms", "ms", "lower"},
	{"ehframe.fdes", "count", "higher"},
	{"ehframe.skipped_fdes", "count", "lower"},
	{"arch.x64.decode_mb_per_s", "MB/s", "higher"},
	{"arch.x64.allocs_per_inst", "count", "lower"},
	{"arch.a64.decode_mb_per_s", "MB/s", "higher"},
	{"arch.a64.allocs_per_inst", "count", "lower"},
	{"disasm.recursive_ms", "ms", "lower"},
	{"disasm.insts_decoded", "count", "lower"},
	{"disasm.insts_reused", "count", "higher"},
	{"disasm.reuse_ratio", "ratio", "higher"},
	{"disasm.fixed_point_passes", "count", "lower"},
	{"disasm.peak_aux_mb", "MB", "lower"},
	{"disasm.alloc_mb", "MB", "lower"},
	{"xref.index_ms", "ms", "lower"},
	{"xref.detect_ms", "ms", "lower"},
	{"xref.extend_ms", "ms", "lower"},
	{"xref.rounds", "count", "lower"},
	{"xref.probes", "count", "lower"},
	{"xref.candidates", "count", "lower"},
	{"xref.accepted", "count", "higher"},
	{"xref.accept_ratio", "ratio", "higher"},
	{"tailcall.run_ms", "ms", "lower"},
	{"tailcall.reanalysis_ms", "ms", "lower"},
	{"tailcall.merged", "count", "higher"},
	{"tailcall.cfi_removed", "count", "higher"},
	{"tailcall.skipped_incomplete", "count", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.fn_tier_hit_ratio", "ratio", "higher"},
	{"cache.delta_hits", "count", "higher"},
	{"cache.delta_fallbacks", "count", "lower"},
	{"cache.delta_dirty_ratio", "ratio", "lower"},
	{"cache.puts", "count", "lower"},
	{"cache.evictions", "count", "lower"},
	{"codec.encode_ms", "ms", "lower"},
	{"codec.decode_ms", "ms", "lower"},
	{"codec.result_kb", "KB", "lower"},
	{"service.queue_wait_ms_mean", "ms", "lower"},
	{"service.rejected", "count", "lower"},
	{"service.peak_in_flight", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.heap_peak_mb", "MB", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
}

// minBeyond is how many samples must lie beyond a tail percentile
// before it is reported.
const minBeyond = 10

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the q-quantile of xs when at least minBeyond samples lie
// beyond it, and otherwise the median, which is always reported. The
// bool tells which one it returned.
func tail(xs []float64, q float64) (float64, bool) {
	if beyond := int(math.Floor(float64(len(xs))*(1-q) + 1e-9)); beyond >= minBeyond {
		return quantile(xs, q), true
	}
	return median(xs), false
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const mib = 1 << 20

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
// Where /proc is unavailable it falls back to the runtime's view of
// memory obtained from the OS.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / mib
}

// allocCounter reads the cumulative heap allocation counters without
// stopping the world, so spans can be bracketed cheaply.
type allocCounter struct{ s []rtm.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []rtm.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}}
}

// read returns the bytes and objects allocated since program start.
func (a *allocCounter) read() (bytes, objects uint64) {
	rtm.Read(a.s)
	return a.s[0].Value.Uint64(), a.s[1].Value.Uint64()
}

// gcSnapshot is the runtime GC state at one instant.
type gcSnapshot struct {
	cycles  uint32
	pauseNS uint64
}

func readGC() gcSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSnapshot{cycles: ms.NumGC, pauseNS: ms.PauseTotalNs}
}
