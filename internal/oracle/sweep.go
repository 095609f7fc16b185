package oracle

import (
	"fmt"
	"reflect"

	"fetch"
	"fetch/internal/core"
	"fetch/internal/elfx"
	"fetch/internal/synth"
)

// CheckBatchDeterminism analyzes copies of one binary through the
// public batch API at different worker counts and diffs the results:
// parallelism must change wall-clock time only, never output. Wall
// times are the single legitimately non-deterministic field and are
// zeroed before comparison.
func CheckBatchDeterminism(shape string, elfBytes []byte, copies, jobs int) []Violation {
	inputs := make([]fetch.Input, copies)
	for i := range inputs {
		inputs[i] = fetch.Input{Name: fmt.Sprintf("%s#%d", shape, i), Data: elfBytes}
	}
	seq := fetch.AnalyzeBatch(inputs, fetch.BatchOptions{Jobs: 1})
	par := fetch.AnalyzeBatch(inputs, fetch.BatchOptions{Jobs: jobs})
	var vs []Violation
	for i := range seq {
		a, b := seq[i], par[i]
		if (a.Err != nil) != (b.Err != nil) {
			vs = append(vs, Violation{shape, core.FETCH, "jobs-determinism",
				fmt.Sprintf("item %d: err %v (jobs=1) vs %v (jobs=%d)", i, a.Err, b.Err, jobs)})
			continue
		}
		if a.Err != nil {
			continue
		}
		ra, rb := fetch.StripSchedule(a.Result), fetch.StripSchedule(b.Result)
		if !reflect.DeepEqual(ra, rb) {
			vs = append(vs, Violation{shape, core.FETCH, "jobs-determinism",
				fmt.Sprintf("item %d: results differ between jobs=1 and jobs=%d", i, jobs)})
		}
	}
	return vs
}

// CheckShape runs every checker against one synthesized shape: the
// full Strategy matrix of session-equivalence, accounting, and metrics
// checks, the lattice walk, and the batch-determinism diff.
func CheckShape(cfg synth.Config) ([]Violation, error) {
	img, truth, err := synth.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("oracle: generating %s: %w", cfg.Name, err)
	}
	stripped := img.Strip()
	var vs []Violation
	for _, strat := range core.AllStrategies() {
		rep, err := core.Analyze(stripped, strat)
		if err != nil {
			vs = append(vs, Violation{cfg.Name, strat, "analyze", err.Error()})
			continue
		}
		ref, err := core.ScratchAnalyze(stripped, strat)
		if err != nil {
			vs = append(vs, Violation{cfg.Name, strat, "session-equivalence", "ScratchAnalyze: " + err.Error()})
			continue
		}
		vs = append(vs, DiffReports(cfg.Name, strat, rep, ref)...)
		vs = append(vs, CheckAccounting(cfg.Name, strat, rep)...)
		vs = append(vs, CheckMetrics(cfg.Name, strat, rep, truth)...)
		vs = append(vs, CheckConvergence(cfg.Name, strat, rep)...)
	}
	vs = append(vs, CheckLattice(cfg.Name, stripped)...)
	raw, err := elfx.WriteELF(stripped)
	if err != nil {
		return nil, fmt.Errorf("oracle: writing %s: %w", cfg.Name, err)
	}
	vs = append(vs, CheckBatchDeterminism(cfg.Name, raw, 4, 8)...)
	vs = append(vs, CheckCachedEqualsRecomputed(cfg.Name, raw)...)
	vs = append(vs, CheckDeltaEqualsCold(cfg)...)
	vs = append(vs, CheckFileBackedEqualsBuffered(cfg.Name, raw)...)
	return vs, nil
}

// Sweep runs CheckShape over a set of shapes and aggregates every
// violation. A nil/empty result means all invariants held everywhere.
func Sweep(cfgs []synth.Config) ([]Violation, error) {
	var vs []Violation
	for _, cfg := range cfgs {
		shapeVs, err := CheckShape(cfg)
		if err != nil {
			return vs, err
		}
		vs = append(vs, shapeVs...)
	}
	return vs, nil
}
