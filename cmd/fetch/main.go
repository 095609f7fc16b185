// Command fetch analyzes System-V ELF binaries (x86-64 and aarch64,
// dispatched on the ELF header's e_machine) and prints the detected
// function starts along with the corrections the pipeline applied
// (merged non-contiguous parts, removed bogus FDEs, starts recovered
// from function pointers and tail calls).
//
// Usage:
//
//	fetch [-fde-only] [-no-xref] [-no-tailcall] [-jobs N] [-cache-dir DIR]
//	      [-cache-max-bytes N] [-json] [-v] BINARY...
//	fetch -sample [-seed N] [-arch a64] [-v]   analyze a generated sample
//
// Multiple binaries are analyzed concurrently (-jobs bounds the worker
// count, 0 = one per CPU) and reported in argument order; a failure on
// one binary does not stop the others. Text output labels every value
// with its canonical schema field name (docs/API.md), and -json emits
// the serialized schema itself — the CLI and the fetchd API speak the
// same vocabulary by construction. -cache-dir reuses results across
// runs via the content-addressed cache.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"fetch"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "fetch:", err)
		os.Exit(1)
	}
}

// printResult renders one analysis. Every labeled value goes through
// fetch.Summarize, so the names and units here are exactly the JSON
// schema's — the codec test enforces it, and docs/API.md documents one
// vocabulary for both.
func printResult(w io.Writer, res *fetch.Result, verbose bool) {
	for _, line := range fetch.Summarize(res, verbose) {
		fmt.Fprintf(w, "%-28s %s\n", line.Name, line.Value)
	}
	if verbose {
		for _, a := range res.FunctionStarts {
			fmt.Fprintf(w, "%#x\n", a)
		}
		parts := make([]uint64, 0, len(res.MergedParts))
		for part := range res.MergedParts {
			parts = append(parts, part)
		}
		sort.Slice(parts, func(i, j int) bool { return parts[i] < parts[j] })
		for _, part := range parts {
			fmt.Fprintf(w, "merged %#x -> %#x\n", part, res.MergedParts[part])
		}
	}
}

// printJSON emits the serialized result schema, wrapped with the item
// name so multi-binary runs stay self-describing (one JSON document
// per binary).
func printJSON(w io.Writer, name string, res *fetch.Result) error {
	blob, err := fetch.EncodeResult(res)
	if err != nil {
		return err
	}
	doc, err := json.MarshalIndent(struct {
		Name   string          `json:"name"`
		Result json.RawMessage `json:"result"`
	}{Name: name, Result: blob}, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", doc)
	return err
}

// run executes the command against args, writing results to w and
// per-binary failures plus flag diagnostics to errW. It is separated
// from main so tests can drive every path directly.
func run(args []string, w, errW io.Writer) error {
	fs := flag.NewFlagSet("fetch", flag.ContinueOnError)
	fs.SetOutput(errW)
	fdeOnly := fs.Bool("fde-only", false, "only extract FDE PC Begin values")
	noXref := fs.Bool("no-xref", false, "disable function-pointer detection")
	noTail := fs.Bool("no-tailcall", false, "disable Algorithm 1 error fixing")
	sample := fs.Bool("sample", false, "analyze a generated sample binary instead of a file")
	seed := fs.Int64("seed", 1, "sample generation seed")
	arch := fs.String("arch", "", "sample ISA: x64 (default) or a64; real binaries dispatch on their ELF header")
	jobs := fs.Int("jobs", 0, "max binaries analyzed concurrently (0 = one per CPU)")
	cacheDir := fs.String("cache-dir", "", "persistent result cache directory (reuses results across runs)")
	cacheMaxBytes := fs.Int64("cache-max-bytes", 0, "disk cache byte budget, oldest entries evicted first (0 = unbounded, needs -cache-dir)")
	jsonOut := fs.Bool("json", false, "emit the serialized result schema (docs/API.md) instead of text")
	verbose := fs.Bool("v", false, "list every detected start plus per-pass timing and session statistics")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var opts []fetch.Option
	if *fdeOnly {
		opts = append(opts, fetch.FDEOnly())
	}
	if *noXref {
		opts = append(opts, fetch.WithoutXref())
	}
	if *noTail {
		opts = append(opts, fetch.WithoutTailCall())
	}
	if *cacheMaxBytes != 0 && *cacheDir == "" {
		return fmt.Errorf("-cache-max-bytes requires -cache-dir")
	}
	if *cacheDir != "" {
		cache, err := fetch.NewCache(fetch.CacheConfig{Dir: *cacheDir, MaxDiskBytes: *cacheMaxBytes})
		if err != nil {
			return err
		}
		opts = append(opts, fetch.WithCache(cache))
	}

	emit := func(name string, res *fetch.Result, header bool) error {
		if *jsonOut {
			return printJSON(w, name, res)
		}
		if header {
			fmt.Fprintf(w, "== %s ==\n", name)
		}
		printResult(w, res, *verbose)
		return nil
	}

	switch {
	case *sample:
		raw, _, err := fetch.GenerateSample(fetch.SampleConfig{Seed: *seed, Arch: *arch, Stripped: true})
		if err != nil {
			return err
		}
		res, err := fetch.Analyze(raw, opts...)
		if err != nil {
			return err
		}
		return emit("sample", res, false)
	case fs.NArg() >= 1:
		inputs := make([]fetch.Input, fs.NArg())
		for i, p := range fs.Args() {
			inputs[i] = fetch.Input{Path: p}
		}
		results := fetch.AnalyzeBatch(inputs, fetch.BatchOptions{Jobs: *jobs, Options: opts})
		var firstErr error
		for _, br := range results {
			if br.Err != nil {
				fmt.Fprintf(errW, "fetch: %s: %v\n", br.Name, br.Err)
				if firstErr == nil {
					firstErr = fmt.Errorf("%d of %d binaries failed", failures(results), len(results))
				}
				continue
			}
			if err := emit(br.Name, br.Result, len(results) > 1); err != nil {
				return err
			}
		}
		return firstErr
	default:
		fs.Usage()
		return errors.New("no binaries given (or use -sample)")
	}
}

// failures counts the batch items that reported an error.
func failures(results []fetch.BatchResult) int {
	n := 0
	for _, br := range results {
		if br.Err != nil {
			n++
		}
	}
	return n
}
