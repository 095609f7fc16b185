// Command benchsnap converts `go test -bench` output into the
// BENCH_N.json perf-trajectory snapshot format committed at the repo
// root. Pipe any benchmark run through it:
//
//	go test -run '^$' -bench '^BenchmarkCache' -benchtime 1x . | benchsnap > BENCH_7.json
//
// The snapshot records every benchmark's ns/op plus all custom
// metrics (×vs-cold, fp, reused%, …), every benchmark run that failed
// with the message it failed with, and the run's goos/goarch/cpu
// header, so speedup claims in docs and PRs can be diffed against a
// measured baseline instead of prose. Output is stable JSON: one
// object per benchmark, sorted by name, environment header separate —
// two snapshots from the same machine diff cleanly. Multi-package runs
// (go test -bench ./pkg1 ./pkg2) qualify each benchmark name with its
// package path, so cross-backend twins like the x64/a64
// DecodeThroughput pair stay distinct.
//
// With -base, benchsnap compares instead: it reads a benchmark run (or
// a snapshot) on stdin and prints, per benchmark, the median of ns/op,
// B/op, allocs/op and every custom metric in the base snapshot and in
// the new run, with the relative change, and the failed runs on each
// side:
//
//	go test -run '^$' -bench . -count 3 . | benchsnap -base BENCH_22.json
//	benchsnap -base BENCH_22.json < BENCH_23.json
//
// Snapshots taken on different hosts do not compare, so nothing gates
// on the result.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Snapshot is the BENCH_N.json document: the machine header of the
// run plus one entry per benchmark line.
type Snapshot struct {
	Schema string `json:"schema"`
	// Goos/Goarch/CPU/Pkg mirror the go test -bench header lines.
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// Failures are the benchmark runs that failed (b.Fatal, a gate):
	// they print no result line, so without them a snapshot would read
	// as if every run had passed.
	Failures []Failure `json:"failures,omitempty"`
}

// Failure is one failed benchmark run: its name and the first line it
// logged before failing.
type Failure struct {
	Name    string `json:"name"`
	Procs   int    `json:"procs"`
	Message string `json:"message"`
}

// Benchmark is one parsed result line. Metrics holds every
// per-iteration value the line reported keyed by its unit — ns/op is
// lifted out as the headline number, the rest (MB/s, ×vs-cold, custom
// b.ReportMetric units) stay in the map.
type Benchmark struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	base := flag.String("base", "", "compare stdin against this `BENCH_N.json` snapshot instead of writing a snapshot")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchsnap: unexpected arguments:", flag.Args())
		os.Exit(2)
	}
	var err error
	if *base != "" {
		err = compareFile(*base, os.Stdin, os.Stdout)
	} else {
		err = run(os.Stdin, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
}

// run parses benchmark output from r and writes the snapshot JSON to
// w. It is separated from main so tests can drive it directly.
func run(r io.Reader, w io.Writer) error {
	snap, err := parse(r)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// parse reads benchmark output into a snapshot.
func parse(r io.Reader) (Snapshot, error) {
	snap := Snapshot{Schema: "fetch-benchsnap-1"}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	// Multi-package runs (go test -bench ./pkg1 ./pkg2) repeat the pkg
	// header; each benchmark remembers the package it ran in so
	// same-named benchmarks from different packages stay distinct.
	var curPkg string
	pkgs := map[string]bool{}
	var pkgOf, failPkgOf []string
	// failing is the failure whose logged lines follow, nil elsewhere.
	var failing *Failure
	for sc.Scan() {
		raw := sc.Text()
		line := strings.TrimSpace(raw)
		if failing != nil && line != "" && (raw[0] == ' ' || raw[0] == '\t') {
			if failing.Message == "" {
				failing.Message = line
			}
			continue
		}
		failing = nil
		switch {
		case strings.HasPrefix(line, "goos:"):
			snap.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			snap.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			curPkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			pkgs[curPkg] = true
			if snap.Pkg == "" {
				snap.Pkg = curPkg
			}
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseLine(line)
			if ok {
				snap.Benchmarks = append(snap.Benchmarks, b)
				pkgOf = append(pkgOf, curPkg)
			}
		case strings.HasPrefix(line, "--- FAIL: Benchmark"):
			name, procs := splitProcs(strings.Fields(strings.TrimPrefix(line, "--- FAIL: "))[0])
			snap.Failures = append(snap.Failures, Failure{Name: name, Procs: procs})
			failPkgOf = append(failPkgOf, curPkg)
			failing = &snap.Failures[len(snap.Failures)-1]
		}
	}
	if err := sc.Err(); err != nil {
		return snap, err
	}
	if len(snap.Benchmarks) == 0 && len(snap.Failures) == 0 {
		return snap, fmt.Errorf("no benchmark lines in input")
	}
	if len(pkgs) > 1 {
		// More than one package: the single Pkg header is dropped and
		// every name is qualified by its package path instead.
		snap.Pkg = ""
		for i := range snap.Benchmarks {
			if pkgOf[i] != "" {
				snap.Benchmarks[i].Name = pkgOf[i] + "." + snap.Benchmarks[i].Name
			}
		}
		for i := range snap.Failures {
			if failPkgOf[i] != "" {
				snap.Failures[i].Name = failPkgOf[i] + "." + snap.Failures[i].Name
			}
		}
	}
	sort.Slice(snap.Benchmarks, func(i, j int) bool {
		return snap.Benchmarks[i].Name < snap.Benchmarks[j].Name
	})
	sort.SliceStable(snap.Failures, func(i, j int) bool {
		return snap.Failures[i].Name < snap.Failures[j].Name
	})
	return snap, nil
}

// compareFile compares the run or snapshot on r with the snapshot at
// basePath (see compare).
func compareFile(basePath string, r io.Reader, w io.Writer) error {
	raw, err := os.ReadFile(basePath)
	if err != nil {
		return err
	}
	var base Snapshot
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("%s: %w", basePath, err)
	}
	in, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	var cur Snapshot
	if t := bytes.TrimSpace(in); len(t) > 0 && t[0] == '{' {
		if err := json.Unmarshal(t, &cur); err != nil {
			return fmt.Errorf("stdin: %w", err)
		}
	} else if cur, err = parse(bytes.NewReader(in)); err != nil {
		return err
	}
	return compare(base, cur, w)
}

// compare writes one table row per benchmark and metric: the metric's
// median over the base's runs and over the new runs, and the relative
// change; then, per benchmark with failed runs on either side, the
// failure counts. A benchmark or metric missing on one side shows "-"
// there. Metrics come in the order ns/op, B/op, allocs/op, then the
// custom ones by name.
func compare(base, cur Snapshot, w io.Writer) error {
	type side struct {
		runs   int
		values map[string][]float64
	}
	collect := func(s Snapshot) map[string]*side {
		out := map[string]*side{}
		for _, b := range s.Benchmarks {
			sd := out[b.Name]
			if sd == nil {
				sd = &side{values: map[string][]float64{}}
				out[b.Name] = sd
			}
			sd.runs++
			sd.values["ns/op"] = append(sd.values["ns/op"], b.NsPerOp)
			for unit, v := range b.Metrics {
				sd.values[unit] = append(sd.values[unit], v)
			}
		}
		return out
	}
	failures := func(s Snapshot) map[string]int {
		out := map[string]int{}
		for _, f := range s.Failures {
			out[f.Name]++
		}
		return out
	}
	bs, cs := collect(base), collect(cur)
	bf, cf := failures(base), failures(cur)
	var names []string
	for _, m := range []map[string]*side{bs, cs} {
		for n := range m {
			names = append(names, n)
		}
	}
	for _, m := range []map[string]int{bf, cf} {
		for n := range m {
			names = append(names, n)
		}
	}
	slices.Sort(names)
	names = slices.Compact(names)

	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tmetric\tbase\tnew\tchange")
	for _, n := range names {
		b, c := bs[n], cs[n]
		if b == nil {
			b = &side{}
		}
		if c == nil {
			c = &side{}
		}
		fmt.Fprintf(tw, "%s\truns\t%d\t%d\t\n", n, b.runs, c.runs)
		for _, unit := range metricOrder(b.values, c.values) {
			bv, bok := median(b.values[unit])
			cv, cok := median(c.values[unit])
			change := ""
			if bok && cok && bv != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(cv-bv)/bv)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", n, unit, number(bv, bok), number(cv, cok), change)
		}
		if bf[n]+cf[n] > 0 {
			fmt.Fprintf(tw, "%s\tfailures\t%d\t%d\t\n", n, bf[n], cf[n])
		}
	}
	return tw.Flush()
}

// metricOrder lists the units either side reported: ns/op, B/op and
// allocs/op first, then the rest by name.
func metricOrder(a, b map[string][]float64) []string {
	var out, rest []string
	for _, u := range []string{"ns/op", "B/op", "allocs/op"} {
		if a[u] != nil || b[u] != nil {
			out = append(out, u)
		}
	}
	for _, m := range []map[string][]float64{a, b} {
		for u := range m {
			if u != "ns/op" && u != "B/op" && u != "allocs/op" {
				rest = append(rest, u)
			}
		}
	}
	slices.Sort(rest)
	return append(out, slices.Compact(rest)...)
}

// median returns the middle value of vs (the mean of the two middle
// ones for an even count), and false for no values.
func median(vs []float64) (float64, bool) {
	if len(vs) == 0 {
		return 0, false
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m], true
	}
	return (s[m-1] + s[m]) / 2, true
}

// number formats a table value: "-" when absent, whole units from
// 1,000 up, else four significant digits.
func number(v float64, ok bool) string {
	switch {
	case !ok:
		return "-"
	case math.Abs(v) >= 1000:
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// parseLine decodes one `BenchmarkName-P  N  V unit  V unit ...`
// result line. Lines that do not parse (e.g. a benchmark that printed
// output) are skipped, not fatal: a snapshot of the lines that did
// parse is still useful.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name, procs := splitProcs(fields[0])
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Procs: procs, Iterations: iters}
	// The rest of the line is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			b.NsPerOp = v
			continue
		}
		if b.Metrics == nil {
			b.Metrics = make(map[string]float64)
		}
		b.Metrics[unit] = v
	}
	if b.NsPerOp == 0 {
		return Benchmark{}, false
	}
	return b, true
}

// splitProcs separates "BenchmarkFoo/sub=1-8" into the benchmark name
// (including sub-benchmark path) and the trailing GOMAXPROCS suffix.
func splitProcs(s string) (string, int) {
	i := strings.LastIndex(s, "-")
	if i < 0 {
		return s, 1
	}
	p, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return s, 1
	}
	return s[:i], p
}
