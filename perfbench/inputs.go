package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"fetch/internal/elfx"
	"fetch/internal/groundtruth"
	"fetch/internal/realbin"
	"fetch/internal/synth"
)

// binary is one generated or prepared input, written to disk.
type binary struct {
	name  string
	path  string
	data  []byte
	sum   [sha256.Size]byte
	truth *groundtruth.Truth
	// isa, compiler, and opt label the per-binary trace rows.
	isa, compiler, opt string
	// textBytes is the size of the executable sections.
	textBytes int64
}

// textSize sums the sizes of an image's executable sections.
func textSize(img *elfx.Image) int64 {
	var n int64
	for _, s := range img.ExecSections() {
		n += int64(s.Size())
	}
	return n
}

// corpusSpecs is the seeded self-built corpus (Table II: GCC/Clang ×
// O2/O3/Os/Ofast) with every other spec retargeted to aarch64, so both
// ISAs carry exact ground truth.
func corpusSpecs(scale float64, seed int64) []synth.BinarySpec {
	specs := synth.SelfBuiltCorpus(scale, seed)
	for i := 1; i < len(specs); i += 2 {
		specs[i].Config.Arch = "a64"
	}
	return specs
}

// genBinary synthesizes one binary, strips it, and writes it under dir.
func genBinary(cfg synth.Config, dir string) (*binary, error) {
	img, truth, err := synth.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", cfg.Name, err)
	}
	raw, err := elfx.WriteELF(img.Strip())
	if err != nil {
		return nil, fmt.Errorf("writing %s: %w", cfg.Name, err)
	}
	path := filepath.Join(dir, cfg.Name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return nil, err
	}
	isa := cfg.Arch
	if isa == "" {
		isa = "x64"
	}
	return &binary{
		name: cfg.Name, path: path, data: raw, sum: sha256.Sum256(raw), truth: truth,
		isa: isa, compiler: cfg.Compiler.String(), opt: cfg.Opt.String(),
		textBytes: textSize(img),
	}, nil
}

// genAll generates every spec in order.
func genAll(specs []synth.BinarySpec, dir string) ([]*binary, error) {
	out := make([]*binary, 0, len(specs))
	for _, s := range specs {
		b, err := genBinary(s.Config, dir)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// digest hashes the names and contents of a set of inputs, in order.
func digest(bins []*binary) string {
	h := sha256.New()
	for _, b := range bins {
		fmt.Fprintf(h, "%s\x00%x\x00", b.name, b.sum)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// packPath is the GOROOT tool the go-real workload analyses. It ships
// with the toolchain that built the benchmark, so the input is fixed
// for a given Go release.
func packPath() string {
	return filepath.Join(runtime.GOROOT(), "pkg", "tool", runtime.GOOS+"_"+runtime.GOARCH, "pack")
}

// fileSHA256 returns the hex sha256 of a file's contents.
func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// prepareGoReal derives ground truth from the binary at src and writes
// the analysis input under dir: the stripped image with an empty
// .eh_frame injected past everything mapped, exactly as
// realbin.EvalImage prepares a Go binary (Go's internal linker emits
// no .eh_frame).
func prepareGoReal(src, dir string) (*binary, error) {
	im, err := elfx.LoadELFFile(src)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", src, err)
	}
	defer im.Close()
	truth, info := realbin.DeriveTruth(im)
	if truth == nil {
		return nil, fmt.Errorf("%s: no ground truth (source %s)", src, info.Source)
	}
	stripped := im.Strip()
	stripped.Sections = append([]*elfx.Section(nil), stripped.Sections...)
	if _, ok := stripped.Section(".eh_frame"); !ok {
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
	}
	raw, err := elfx.WriteELF(stripped)
	if err != nil {
		return nil, fmt.Errorf("writing prepared %s: %w", src, err)
	}
	path := filepath.Join(dir, filepath.Base(src)+".stripped")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return nil, err
	}
	return &binary{
		name: filepath.Base(src), path: path, data: raw, sum: sha256.Sum256(raw), truth: truth,
		isa: "x64", compiler: "gc", opt: "default", textBytes: textSize(stripped),
	}, nil
}
