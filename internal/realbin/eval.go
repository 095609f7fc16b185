package realbin

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"fetch/internal/core"
	"fetch/internal/ehframe"
	"fetch/internal/elfx"
	"fetch/internal/metrics"
	"fetch/internal/pool"
)

// StrategyNames labels the paper's cumulative strategy ladder in the
// order core.Lattice returns it.
var StrategyNames = []string{"FDE", "FDE+Rec", "FDE+Rec+Xref", "FETCH"}

// StrategyScore is one strategy's result on one binary.
type StrategyScore struct {
	Strategy  string  `json:"strategy"`
	Funcs     int     `json:"funcs"`
	TP        int     `json:"tp"`
	FP        int     `json:"fp"`
	FN        int     `json:"fn"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
	WallMS    float64 `json:"wall_ms"`
}

// f1 combines precision and recall; zero when both are zero.
func f1(p, r float64) float64 {
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// BinaryReport is the evaluation of one binary. Exactly one of the
// three shapes holds: Scores set (evaluated), Skip set (not evaluable,
// by design), or Err set (the binary should have worked and did not —
// the bug-shaking signal this lane exists for).
type BinaryReport struct {
	Name      string `json:"name"`
	Path      string `json:"path,omitempty"`
	SizeBytes int    `json:"size_bytes"`

	Truth      TruthInfo `json:"truth"`
	TruthFuncs int       `json:"truth_funcs,omitempty"`
	TruthParts int       `json:"truth_parts,omitempty"`

	// SyntheticEHFrame marks binaries analyzed with an injected empty
	// .eh_frame (Go internal linking emits none); detection then rests
	// entirely on the recursive/xref stages.
	SyntheticEHFrame bool `json:"synthetic_eh_frame,omitempty"`
	// EHStats carries the .eh_frame decoder's tolerance counters:
	// nonzero DWARF64 or Skipped values on a binary that still scores
	// well is the graceful-degradation path working as designed.
	EHStats ehframe.DecodeStats `json:"eh_stats"`

	Scores []StrategyScore `json:"scores,omitempty"`
	Skip   string          `json:"skip,omitempty"`
	Err    string          `json:"err,omitempty"`
}

// Score returns the named strategy's score, if present.
func (b *BinaryReport) Score(strategy string) (StrategyScore, bool) {
	for _, s := range b.Scores {
		if s.Strategy == strategy {
			return s, true
		}
	}
	return StrategyScore{}, false
}

// Evaluated reports whether the binary produced scores.
func (b *BinaryReport) Evaluated() bool { return len(b.Scores) > 0 }

// PrepareStripped returns the stripped copy of im that the real-binary
// lane analyzes. Go's internal linker ships no .eh_frame; for such a
// binary it injects an empty table (just the terminator), page-aligned
// past everything mapped so it never shadows real bytes, and reports
// injected: the FDE pass then finds nothing, and the later stages work
// from the entry point and pointers. im itself is left untouched.
func PrepareStripped(im *elfx.Image) (stripped *elfx.Image, injected bool) {
	stripped = im.Strip()
	// Never let appends leak into the unstripped image's backing array.
	stripped.Sections = append([]*elfx.Section(nil), stripped.Sections...)
	if _, ok := stripped.Section(".eh_frame"); ok {
		return stripped, false
	}
	var top uint64
	for _, s := range stripped.Sections {
		top = max(top, s.End())
	}
	stripped.Sections = append(stripped.Sections, &elfx.Section{
		Name:  ".eh_frame",
		Addr:  (top + 0xFFF) &^ 0xFFF,
		Data:  []byte{0, 0, 0, 0},
		Flags: elfx.FlagAlloc,
	})
	return stripped, true
}

// EvalImage evaluates one loaded, unstripped image: derive truth,
// strip a copy, run the strategy ladder on the stripped image, score
// each run. It never panics the caller's run; failures land in the
// report's Err field.
func EvalImage(name string, im *elfx.Image) *BinaryReport {
	rep := &BinaryReport{Name: name}
	truth, info := DeriveTruth(im)
	rep.Truth = info
	if truth == nil {
		rep.Skip = "no ground truth (already stripped?)"
		return rep
	}
	rep.TruthFuncs = len(truth.Funcs)
	rep.TruthParts = len(truth.Parts)

	stripped, injected := PrepareStripped(im)
	rep.SyntheticEHFrame = injected

	for i, strat := range core.Lattice() {
		start := time.Now()
		res, err := core.AnalyzeConfig(stripped, core.Config{Strategy: strat})
		if err != nil {
			rep.Err = fmt.Sprintf("%s: %v", StrategyNames[i], err)
			rep.Scores = nil
			return rep
		}
		e := metrics.Evaluate(res.Funcs, truth)
		p, r := e.Precision(), e.Recall()
		rep.Scores = append(rep.Scores, StrategyScore{
			Strategy:  StrategyNames[i],
			Funcs:     len(res.Funcs),
			TP:        e.TP,
			FP:        e.FP,
			FN:        e.FN,
			Precision: p,
			Recall:    r,
			F1:        f1(p, r),
			WallMS:    float64(time.Since(start).Microseconds()) / 1000,
		})
		if res.Sec != nil {
			rep.EHStats = res.Sec.Stats
		}
	}
	return rep
}

// EvalData evaluates one binary from its raw bytes.
func EvalData(name string, data []byte) *BinaryReport {
	rep := &BinaryReport{Name: name, SizeBytes: len(data)}
	im, err := elfx.LoadELF(data)
	if err != nil {
		rep.Skip = fmt.Sprintf("not loadable: %v", err)
		return rep
	}
	out := EvalImage(name, im)
	out.SizeBytes = len(data)
	return out
}

// EvalFile evaluates one binary from disk through the file-backed
// image path: section bodies stay on disk (zero-copy mmap windows, or
// pread copies where mapping is unavailable) instead of the whole file
// being read onto the heap, so corpus scans over binaries far larger
// than memory budgets work. maxBytes > 0 caps the input size; larger
// files are skipped, not failed.
func EvalFile(path string, maxBytes int64) *BinaryReport {
	fi, err := os.Stat(path)
	if err != nil {
		return &BinaryReport{Name: path, Path: path, Err: err.Error()}
	}
	if maxBytes > 0 && fi.Size() > maxBytes {
		return &BinaryReport{Name: path, Path: path, SizeBytes: int(fi.Size()),
			Skip: fmt.Sprintf("larger than %d bytes", maxBytes)}
	}
	im, err := elfx.LoadELFFile(path)
	if err != nil {
		return &BinaryReport{Name: path, Path: path, SizeBytes: int(fi.Size()),
			Skip: fmt.Sprintf("not loadable: %v", err)}
	}
	defer im.Close()
	rep := EvalImage(path, im)
	rep.Path = path
	rep.SizeBytes = int(fi.Size())
	return rep
}

// AggregateScore is one strategy's micro-aggregate (summed confusion
// counts) over every evaluated binary of a corpus.
type AggregateScore struct {
	Strategy  string  `json:"strategy"`
	TP        int     `json:"tp"`
	FP        int     `json:"fp"`
	FN        int     `json:"fn"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
}

// CorpusReport aggregates a run over many binaries.
type CorpusReport struct {
	Binaries  []*BinaryReport  `json:"binaries"`
	Evaluated int              `json:"evaluated"`
	Skipped   int              `json:"skipped"`
	Failed    int              `json:"failed"`
	Aggregate []AggregateScore `json:"aggregate,omitempty"`
}

// Errs returns the reports that failed hard.
func (c *CorpusReport) Errs() []*BinaryReport {
	var out []*BinaryReport
	for _, b := range c.Binaries {
		if b.Err != "" {
			out = append(out, b)
		}
	}
	return out
}

// aggregate recomputes the corpus counters from the per-binary rows.
func (c *CorpusReport) aggregate() {
	c.Evaluated, c.Skipped, c.Failed = 0, 0, 0
	sums := map[string]*AggregateScore{}
	for _, b := range c.Binaries {
		switch {
		case b.Err != "":
			c.Failed++
		case b.Evaluated():
			c.Evaluated++
			for _, s := range b.Scores {
				agg := sums[s.Strategy]
				if agg == nil {
					agg = &AggregateScore{Strategy: s.Strategy}
					sums[s.Strategy] = agg
				}
				agg.TP += s.TP
				agg.FP += s.FP
				agg.FN += s.FN
			}
		default:
			c.Skipped++
		}
	}
	c.Aggregate = c.Aggregate[:0]
	for _, name := range StrategyNames {
		agg, ok := sums[name]
		if !ok {
			continue
		}
		e := metrics.Eval{TP: agg.TP, FP: agg.FP, FN: agg.FN}
		agg.Precision, agg.Recall = e.Precision(), e.Recall()
		agg.F1 = f1(agg.Precision, agg.Recall)
		c.Aggregate = append(c.Aggregate, *agg)
	}
}

// EvalFiles evaluates many binaries concurrently (jobs ≤ 0 means one
// per CPU) and aggregates. Per-binary failures are recorded, never
// fatal; results keep input order.
func EvalFiles(ctx context.Context, paths []string, jobs int, maxBytes int64) *CorpusReport {
	results := pool.Map(ctx, pool.Jobs(jobs), paths, func(ctx context.Context, i int, p string) (*BinaryReport, error) {
		return EvalFile(p, maxBytes), nil
	})
	rep := &CorpusReport{}
	for i, r := range results {
		if r.Err != nil { // only possible via ctx cancellation
			rep.Binaries = append(rep.Binaries, &BinaryReport{
				Name: paths[i], Path: paths[i], Err: r.Err.Error()})
			continue
		}
		rep.Binaries = append(rep.Binaries, r.Value)
	}
	rep.aggregate()
	return rep
}

// SortBinaries orders the report rows by name for stable output.
func (c *CorpusReport) SortBinaries() {
	sort.Slice(c.Binaries, func(i, j int) bool { return c.Binaries[i].Name < c.Binaries[j].Name })
}
