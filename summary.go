package fetch

import (
	"fmt"
	"time"
)

// SummaryLine is one name/value pair of a rendered Result summary.
// Names are the canonical field names of the serialized JSON schema
// (docs/API.md): "function_starts", "stats.insts_decoded",
// "stats.passes.<name>.wall_ns", and so on. Derived convenience lines
// that have no schema field use the reserved "derived." prefix. The
// CLI prints SummaryLines verbatim, so CLI output, the JSON codec, and
// the documentation share one vocabulary by construction (the codec
// test cross-checks every non-derived name against an encoded result).
type SummaryLine struct {
	// Name is the schema path of the summarized field, or a
	// "derived."-prefixed label for values computed from schema fields.
	Name string
	// Value is the rendered value. Durations carry the schema unit
	// (integer nanoseconds) first, with a human-readable rendering in
	// parentheses.
	Value string
}

// Summarize renders a Result as the labeled lines cmd/fetch prints:
// the headline detection counts, and — when verbose — the incremental-
// session statistics and per-pass wall times. It is the single
// formatting path between the analysis types and human-readable
// output; anything it reports uses the JSON schema's field names and
// units.
func Summarize(res *Result, verbose bool) []SummaryLine {
	lines := []SummaryLine{
		{"function_starts", fmt.Sprintf("%d", len(res.FunctionStarts))},
		{"fde_starts", fmt.Sprintf("%d", len(res.FDEStarts))},
		{"new_from_pointers", fmt.Sprintf("%d", len(res.NewFromPointers))},
		{"new_from_tail_calls", fmt.Sprintf("%d", len(res.NewFromTailCalls))},
		{"merged_parts", fmt.Sprintf("%d", len(res.MergedParts))},
		{"removed_bogus_fdes", fmt.Sprintf("%d", len(res.RemovedBogusFDEs))},
		{"skipped_incomplete_cfi", fmt.Sprintf("%d", res.SkippedIncompleteCFI)},
	}
	if !verbose {
		return lines
	}
	st := res.Stats
	lines = append(lines,
		SummaryLine{"stats.insts_decoded", fmt.Sprintf("%d", st.InstsDecoded)},
		SummaryLine{"stats.insts_reused", fmt.Sprintf("%d", st.InstsReused)},
		SummaryLine{"derived.reused_pct", fmt.Sprintf("%.1f%%", reusedPct(st))},
		SummaryLine{"stats.cold_starts", fmt.Sprintf("%d", st.ColdStarts)},
		SummaryLine{"stats.extends", fmt.Sprintf("%d", st.Extends)},
		SummaryLine{"stats.retracts", fmt.Sprintf("%d", st.Retracts)},
		SummaryLine{"stats.probes", fmt.Sprintf("%d", st.Probes)},
		SummaryLine{"stats.xref_iterations", fmt.Sprintf("%d", st.XrefIterations)},
		SummaryLine{"stats.xref_converged", fmt.Sprintf("%v", st.XrefConverged)},
		SummaryLine{"stats.truncated", fmt.Sprintf("%v", st.Truncated)},
		SummaryLine{"stats.peak_image_bytes", fmt.Sprintf("%d", st.PeakImageBytes)},
		SummaryLine{"stats.peak_aux_bytes", fmt.Sprintf("%d", st.PeakAuxBytes)},
	)
	for _, ps := range st.Passes {
		lines = append(lines, SummaryLine{
			Name: fmt.Sprintf("stats.passes.%s.wall_ns", ps.Name),
			Value: fmt.Sprintf("%d (%v)", int64(ps.Wall),
				ps.Wall.Round(time.Microsecond)),
		})
	}
	return lines
}

// reusedPct is the decode-cache hit rate of an analysis, in percent.
func reusedPct(st Stats) float64 {
	total := st.InstsDecoded + st.InstsReused
	if total == 0 {
		return 0
	}
	return 100 * float64(st.InstsReused) / float64(total)
}
