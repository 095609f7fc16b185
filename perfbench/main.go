// Command perfbench is the FETCH benchmark. It generates one workload's
// inputs from a seed, runs the workload for a fixed time, checks every
// output, and prints the metrics as one JSON object on the last line of
// standard output. The lines before it, each starting with "#", are the
// report: input provenance, sample counts, and for traced runs the
// per-layer self-time tables.
//
//	perfbench --workload synth-corpus --seed 1 --seconds 30 --trace 0
//
// run.sh builds it from the checkout and runs it. BENCHMARK.json at the
// repository root lists the workloads and the metrics, and
// predictions.json which end-to-end metric each layer should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// root is the checkout; the run writes only under root/.bench_build.
	root string
	// baseline, when set, names the saved output of an earlier run; a
	// run over other inputs is refused.
	baseline string
}

func (o options) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// provenance identifies what a run measured. Runs whose provenance
// differs measured different inputs and are not comparable.
type provenance struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	InputsSHA256 string `json:"inputs_sha256"`
	PackSHA256   string `json:"pack_sha256"`
	GoVersion    string `json:"go_version"`
}

const provenancePrefix = "# provenance "

// errIncomparable marks a run refused because its inputs differ from
// the baseline's.
var errIncomparable = errors.New("incomparable runs")

// env is what a workload runs with.
type env struct {
	opts options
	// tmp holds the generated inputs; it is removed when the run ends.
	tmp    string
	report io.Writer
	prov   *provenance
}

// inputsReady records the digest of the generated inputs, prints the
// provenance, and refuses to go on when the baseline measured other
// inputs.
func (e *env) inputsReady(sum string) error {
	e.prov.InputsSHA256 = sum
	line, err := json.Marshal(e.prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.report, "%s%s\n", provenancePrefix, line)
	if e.opts.baseline == "" {
		return nil
	}
	base, err := readProvenance(e.opts.baseline)
	if err != nil {
		return err
	}
	if base != *e.prov {
		return fmt.Errorf("%w: the baseline measured %+v, this run %+v", errIncomparable, base, *e.prov)
	}
	return nil
}

// readProvenance finds the provenance line in a saved run output.
func readProvenance(path string) (provenance, error) {
	var p provenance
	raw, err := os.ReadFile(path)
	if err != nil {
		return p, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, provenancePrefix); ok {
			if err := json.Unmarshal([]byte(rest), &p); err != nil {
				return p, fmt.Errorf("%s: %w", path, err)
			}
			return p, nil
		}
	}
	return p, fmt.Errorf("%s: no provenance line", path)
}

// result is what a workload measured.
type result struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	spans     []span
	report    io.Writer
}

func newResult(e *env) *result { return &result{metrics: map[string]float64{}, report: e.report} }

// fail counts one failed operation or output check and prints the
// first few.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(r.report, "# FAILED: %s\n", fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*env) (*result, error){
	"synth-corpus": runSynthCorpus,
	"go-real":      runGoReal,
	"service-mix":  runServiceMix,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the arguments, runs the workload, and prints the report
// and the result line. It returns the exit code: 2 for bad arguments,
// 3 for a run refused as incomparable, 1 for any other failure.
func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 30, "how long to measure, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced layer driver and reports the per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "checkout root; the run writes only under <root>/.bench_build")
	fs.StringVar(&o.baseline, "baseline", "", "saved output of an earlier run; refuse to run over other inputs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	work, ok := workloads[o.workload]
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (known: %s)\n", o.workload, strings.Join(names, ", "))
		return 2
	case !(o.seconds > 0):
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	if err := execute(o, work, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		if errors.Is(err, errIncomparable) {
			return 3
		}
		return 1
	}
	return 0
}

// execute runs one workload and prints its result line.
func execute(o options, work func(*env) (*result, error), stdout io.Writer) error {
	out := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(out, "tmp"), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Join(out, "tmp"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	pack, err := fileSHA256(packPath())
	if err != nil {
		return err
	}
	e := &env{opts: o, tmp: tmp, report: stdout, prov: &provenance{
		Workload: o.workload, Seed: o.seed, PackSHA256: pack, GoVersion: runtime.Version(),
	}}
	r, err := work(e)
	if err != nil {
		return err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
		writeSelfTimeReport(stdout, o.workload, r.spans)
		dir := filepath.Join(out, "trace")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := writeSpans(path, r.spans); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# %d spans written to %s\n", len(r.spans), path)
	}
	res := output{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}
