package eval

import (
	"fmt"
	"strings"

	"fetch/internal/core"
)

// SessionStatsResult aggregates the incremental-pipeline counters of a
// full-FETCH analysis over the corpus — the `evaluate -v` view of how
// much work the shared disassembly sessions reused.
type SessionStatsResult struct {
	// Bins is the number of binaries analyzed.
	Bins int
	// Decoded and Reused total the decode-cache misses and hits.
	Decoded int64
	Reused  int64
	// ColdStarts, Extends, Retracts, and Probes total the session
	// operations across the corpus.
	ColdStarts int
	Extends    int
	Retracts   int
	Probes     int
	// XrefIterations totals pointer-detection rounds; Truncated counts
	// binaries whose pointer-detection fixed point hit the iteration
	// cap before converging.
	XrefIterations int
	Truncated      int
}

// SessionStats runs the full pipeline over every corpus binary and
// aggregates the per-binary Stats. The counters are deterministic, so
// parallel runs (Corpus.Jobs) report identical totals.
func SessionStats(c *Corpus) (*SessionStatsResult, error) {
	parts, err := overBins(c.Jobs, c.Bins, func(bin *Binary) (core.Stats, error) {
		rep, err := core.Analyze(bin.Img.Strip(), core.FETCH)
		if err != nil {
			return core.Stats{}, err
		}
		return rep.Stats, nil
	})
	if err != nil {
		return nil, err
	}
	out := &SessionStatsResult{Bins: len(parts)}
	for _, st := range parts {
		out.Decoded += st.Disasm.InstsDecoded
		out.Reused += st.Disasm.InstsReused
		out.ColdStarts += st.Disasm.ColdStarts
		out.Extends += st.Disasm.Extends
		out.Retracts += st.Disasm.Retracts
		out.Probes += st.Disasm.Probes
		out.XrefIterations += st.XrefIterations
		if !st.XrefConverged {
			out.Truncated++
		}
	}
	return out, nil
}

// Format renders the aggregate in the drivers' plain-text style.
func (r *SessionStatsResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "incremental session stats (full FETCH, %d binaries)\n", r.Bins)
	total := r.Decoded + r.Reused
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(r.Reused) / float64(total)
	}
	fmt.Fprintf(&b, "  insts decoded:   %d\n", r.Decoded)
	fmt.Fprintf(&b, "  insts reused:    %d (%.1f%% of lookups)\n", r.Reused, pct)
	fmt.Fprintf(&b, "  cold starts:     %d (one per binary = fully incremental)\n", r.ColdStarts)
	fmt.Fprintf(&b, "  extends:         %d\n", r.Extends)
	fmt.Fprintf(&b, "  retracts:        %d\n", r.Retracts)
	fmt.Fprintf(&b, "  probes:          %d\n", r.Probes)
	fmt.Fprintf(&b, "  xref iterations: %d (truncated on %d binaries)\n", r.XrefIterations, r.Truncated)
	return b.String()
}
