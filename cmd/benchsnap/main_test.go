package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: fetch
cpu: AMD EPYC 7B13
BenchmarkCacheCold-8      	       1	331224601 ns/op	  0.88 MB/s
BenchmarkCacheHit-8       	    3966	    293924 ns/op	993.77 MB/s
BenchmarkDeltaReanalysis-8	       1	  20714804 ns/op	  12.41 ×vs-cold	 14.11 MB/s
BenchmarkShardedAnalyze/jobs=4-8	       1	151000000 ns/op	         0 fallbacks	      1213 funcs
PASS
ok  	fetch	12.345s
`

func TestRunParsesBenchOutput(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(sampleOutput), &out); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(out.String()), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Schema != "fetch-benchsnap-1" || snap.Goos != "linux" || snap.CPU != "AMD EPYC 7B13" {
		t.Fatalf("header: %+v", snap)
	}
	if len(snap.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks", len(snap.Benchmarks))
	}
	byName := make(map[string]Benchmark)
	for _, b := range snap.Benchmarks {
		byName[b.Name] = b
	}
	delta := byName["BenchmarkDeltaReanalysis"]
	if delta.NsPerOp != 20714804 || delta.Metrics["×vs-cold"] != 12.41 {
		t.Fatalf("delta entry: %+v", delta)
	}
	sharded := byName["BenchmarkShardedAnalyze/jobs=4"]
	if sharded.Procs != 8 || sharded.Metrics["funcs"] != 1213 {
		t.Fatalf("sharded entry: %+v", sharded)
	}
	// Output is sorted by name for clean diffs.
	for i := 1; i < len(snap.Benchmarks); i++ {
		if snap.Benchmarks[i-1].Name > snap.Benchmarks[i].Name {
			t.Fatal("benchmarks not sorted by name")
		}
	}
}

const multiPkgOutput = `goos: linux
goarch: amd64
pkg: fetch/internal/x64
cpu: AMD EPYC 7B13
BenchmarkDecodeThroughput 	     769	   1597393 ns/op	  41.04 MB/s
PASS
ok  	fetch/internal/x64	1.393s
pkg: fetch/internal/a64
BenchmarkDecodeThroughput 	     967	   1203367 ns/op	  54.50 MB/s
PASS
ok  	fetch/internal/a64	1.299s
`

// TestRunMultiPackage pins the cross-package disambiguation: two
// same-named benchmarks from different packages get package-qualified
// names and the single-package header field is dropped.
func TestRunMultiPackage(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(multiPkgOutput), &out); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(out.String()), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Pkg != "" {
		t.Errorf("Pkg = %q, want empty on a multi-package run", snap.Pkg)
	}
	if len(snap.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(snap.Benchmarks))
	}
	byName := make(map[string]Benchmark)
	for _, b := range snap.Benchmarks {
		byName[b.Name] = b
	}
	if byName["fetch/internal/x64.BenchmarkDecodeThroughput"].Metrics["MB/s"] != 41.04 {
		t.Errorf("x64 entry missing or wrong: %+v", snap.Benchmarks)
	}
	if byName["fetch/internal/a64.BenchmarkDecodeThroughput"].Metrics["MB/s"] != 54.50 {
		t.Errorf("a64 entry missing or wrong: %+v", snap.Benchmarks)
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader("PASS\nok fetch 1s\n"), &out); err == nil {
		t.Fatal("no error for input without benchmark lines")
	}
}

const failedRunOutput = `goos: linux
goarch: amd64
pkg: fetch
cpu: AMD EPYC 7B13
BenchmarkDeltaReanalysis-2   	       5	   6035095 ns/op	        16.20 ×vs-cold
BenchmarkDeltaReanalysis-2   	--- FAIL: BenchmarkDeltaReanalysis
    bench_test.go:805: delta re-analysis only 9.3× faster than cold (need ≥10×)
--- FAIL: BenchmarkDeltaReanalysis-2
    bench_test.go:805: delta re-analysis only 9.3× faster than cold (need ≥10×)
BenchmarkHugeBinary-2        	       5	   1872686 ns/op	         0.005982 peak-bytes/text-byte
FAIL
exit status 1
FAIL	fetch	12.625s
`

// TestRunRecordsFailures pins that a failed benchmark run is kept in
// the snapshot, with the first line it logged, beside the runs that
// passed.
func TestRunRecordsFailures(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(failedRunOutput), &out); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(out.String()), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(snap.Benchmarks))
	}
	want := []Failure{{Name: "BenchmarkDeltaReanalysis", Procs: 2,
		Message: "bench_test.go:805: delta re-analysis only 9.3× faster than cold (need ≥10×)"}}
	if !reflect.DeepEqual(snap.Failures, want) {
		t.Fatalf("failures = %+v, want %+v", snap.Failures, want)
	}
	var clean strings.Builder
	if err := run(strings.NewReader(sampleOutput), &clean); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clean.String(), "failures") {
		t.Fatal("a run without failures writes a failures field")
	}
}

// TestCompareMedians drives the -base mode: the medians of each metric
// over the base snapshot's runs and the new run's, the relative
// change, "-" for a side without the benchmark or metric, and the
// failure counts.
func TestCompareMedians(t *testing.T) {
	base := Snapshot{
		Benchmarks: []Benchmark{
			{Name: "BenchmarkA", NsPerOp: 100, Metrics: map[string]float64{"B/op": 10, "×vs-cold": 12}},
			{Name: "BenchmarkA", NsPerOp: 300, Metrics: map[string]float64{"B/op": 30, "×vs-cold": 14}},
			{Name: "BenchmarkA", NsPerOp: 200, Metrics: map[string]float64{"B/op": 20, "×vs-cold": 16}},
			{Name: "BenchmarkGone", NsPerOp: 50},
		},
		Failures: []Failure{{Name: "BenchmarkA", Message: "gate"}},
	}
	cur := `pkg: fetch
BenchmarkA-2   	 10	  100 ns/op	  5 B/op	  3 allocs/op	  15.5 ×vs-cold
BenchmarkA-2   	 10	  120 ns/op	  7 B/op	  3 allocs/op	  16.5 ×vs-cold
BenchmarkNew-2 	  1	  999 ns/op
`
	var out strings.Builder
	snap, err := parse(strings.NewReader(cur))
	if err != nil {
		t.Fatal(err)
	}
	if err := compare(base, snap, &out); err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		f := strings.Fields(line)
		rows[f[0]+" "+f[1]] = f[2:]
	}
	want := map[string][]string{
		"BenchmarkA runs":      {"3", "2"},
		"BenchmarkA ns/op":     {"200", "110", "-45.0%"},
		"BenchmarkA B/op":      {"20", "6", "-70.0%"},
		"BenchmarkA allocs/op": {"-", "3"},
		"BenchmarkA ×vs-cold":  {"14", "16", "+14.3%"},
		"BenchmarkA failures":  {"1", "0"},
		"BenchmarkGone runs":   {"1", "0"},
		"BenchmarkGone ns/op":  {"50", "-"},
		"BenchmarkNew runs":    {"0", "1"},
		"BenchmarkNew ns/op":   {"-", "999"},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("comparison rows:\n%v\nwant\n%v\noutput:\n%s", rows, want, out.String())
	}
	// The new side may be a snapshot too.
	enc, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/BENCH_0.json"
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var fromSnap strings.Builder
	if err := compareFile(path, bytes.NewReader(enc), &fromSnap); err != nil {
		t.Fatal(err)
	}
	if fromSnap.String() != out.String() {
		t.Fatalf("comparing a snapshot printed\n%s\nwant\n%s", fromSnap.String(), out.String())
	}
}
