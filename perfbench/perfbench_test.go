package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricDeclarations(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRE)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func decodeStrict(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json to the program:
// the same workloads, and the same metrics in the same order with the
// same units and directions.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	var bf benchmarkFile
	decodeStrict(t, filepath.Join("..", "BENCHMARK.json"), &bf)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsRune(w.Why, '\n') {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range bf.EndToEnd {
		if m.metricDef != endToEnd[i] {
			t.Errorf("end_to_end[%d] is %+v, the program declares %+v", i, m.metricDef, endToEnd[i])
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range bf.PerLayer {
		if d != perLayer[i] {
			t.Errorf("per_layer[%d] is %+v, the program declares %+v", i, d, perLayer[i])
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", bf.RunSeconds)
	}
}

// predictionFile is predictions.json.
type predictionFile struct {
	About  string `json:"about"`
	Layers []struct {
		Layer   string   `json:"layer"`
		Metrics []string `json:"metrics"`
		Moves   []target `json:"moves"`
		Holds   []target `json:"holds"`
		Note    string   `json:"note"`
	} `json:"layers"`
}

type target struct {
	Metric   string `json:"metric"`
	Workload string `json:"workload"`
}

// TestPredictionsCoverEveryLayerMetric checks that every per-layer
// metric has its prediction, and that predictions name only declared
// end-to-end metrics and workloads.
func TestPredictionsCoverEveryLayerMetric(t *testing.T) {
	var pf predictionFile
	decodeStrict(t, "predictions.json", &pf)
	e2e := map[string]bool{}
	for _, d := range endToEnd {
		e2e[d.Name] = true
	}
	covered := map[string]int{}
	for _, g := range pf.Layers {
		for _, name := range g.Metrics {
			covered[name]++
			if layerOf(name) != g.Layer {
				t.Errorf("%s is listed under layer %s", name, g.Layer)
			}
		}
		for _, tg := range append(append([]target(nil), g.Moves...), g.Holds...) {
			if !e2e[tg.Metric] || workloads[tg.Workload] == nil {
				t.Errorf("layer %s predicts %s on %s, which is not a declared metric and workload", g.Layer, tg.Metric, tg.Workload)
			}
		}
	}
	for _, d := range perLayer {
		if covered[d.Name] != 1 {
			t.Errorf("%s appears in %d prediction groups, want 1", d.Name, covered[d.Name])
		}
	}
	if len(covered) != len(perLayer) {
		t.Errorf("predictions list %d metrics, %d are declared", len(covered), len(perLayer))
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		tail bool
	}{{100, 0.9, true}, {99, 0.9, false}, {1000, 0.99, true}, {999, 0.99, false}, {19, 0.5, false}, {20, 0.5, true}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i)
		}
		want := median(xs)
		if tc.tail {
			want = quantile(xs, tc.q)
		}
		if got, ok := tail(xs, tc.q); ok != tc.tail || got != want {
			t.Errorf("tail(%d samples, %v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, want, tc.tail)
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "analyze", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 2, Name: "c", Start: 12, End: 14},
	}
	got := selfTimes(spans)
	want := []time.Duration{60, 18, 30, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestHistogramSumCount(t *testing.T) {
	text := `# TYPE fetchd_queue_wait_seconds histogram
fetchd_queue_wait_seconds_bucket{le="0.001"} 2
fetchd_queue_wait_seconds_bucket{le="+Inf"} 8
fetchd_queue_wait_seconds_sum 0.02
fetchd_queue_wait_seconds_count 8
fetchd_queue_wait_seconds_other_sum 9
`
	s, n, err := histogramSumCount(strings.NewReader(text), "fetchd_queue_wait_seconds")
	if err != nil || math.Abs(s-0.02) > 1e-12 || n != 8 {
		t.Fatalf("sum, count = %v, %v, %v; want 0.02, 8", s, n, err)
	}
	if _, _, err := histogramSumCount(strings.NewReader("fetchd_queue_wait_seconds_count 8\n"), "fetchd_queue_wait_seconds"); err == nil {
		t.Fatal("a family without _sum was accepted")
	}
}

func TestBaselineRefusesOtherInputs(t *testing.T) {
	base := provenance{Workload: "go-real", Seed: 1, InputsSHA256: "aa", PackSHA256: "bb", GoVersion: "go1"}
	line, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.out")
	if err := os.WriteFile(path, []byte("# report\n"+provenancePrefix+string(line)+"\n{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	newEnv := func() *env {
		p := base
		p.InputsSHA256 = ""
		return &env{opts: options{baseline: path}, report: io.Discard, prov: &p}
	}
	if err := newEnv().inputsReady("aa"); err != nil {
		t.Fatalf("same inputs refused: %v", err)
	}
	if err := newEnv().inputsReady("cc"); !errors.Is(err, errIncomparable) {
		t.Fatalf("other inputs: err = %v, want %v", err, errIncomparable)
	}
}

// TestSmokeEveryWorkload runs each workload untraced and traced with a
// tiny time budget (one pass or round) and checks the result line:
// every output check passed, and exactly the declared metrics came out.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once, about a minute")
	}
	root := t.TempDir()
	for _, name := range []string{"synth-corpus", "go-real", "service-mix"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", name, "--seed", "3", "--seconds", "0.001", "--trace", trace, "--root", root}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var out output
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Fatalf("correct %v, failed %d of %d\n%s", out.Correct, out.Failed, out.Attempted, stdout.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(out.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, %d declared", len(out.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := out.Metrics[d.Name]
					if !ok || v.Unit != d.Unit {
						t.Errorf("metric %s: emitted %v with unit %q, declared unit %q", d.Name, ok, v.Unit, d.Unit)
					}
					if trace == "0" && v.Value == 0 {
						t.Errorf("end-to-end metric %s reads 0", d.Name)
					}
				}
			})
		}
	}
}
