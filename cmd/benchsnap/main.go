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
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
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
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
}

// run parses benchmark output from r and writes the snapshot JSON to
// w. It is separated from main so tests can drive it directly.
func run(r io.Reader, w io.Writer) error {
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
		return err
	}
	if len(snap.Benchmarks) == 0 && len(snap.Failures) == 0 {
		return fmt.Errorf("no benchmark lines in input")
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
	out, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
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
