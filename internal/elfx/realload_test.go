package elfx

import (
	"bytes"
	"debug/elf"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// sectionAtLinear is the reference first-match scan SectionAt replaced;
// the index must be indistinguishable from it on every image.
func sectionAtLinear(im *Image, addr uint64) (*Section, bool) {
	for _, s := range im.Sections {
		if s.Contains(addr) {
			return s, true
		}
	}
	return nil, false
}

// probeAddrs returns the interesting addresses of an image: every
// section boundary and its neighbors, plus mid-section and far-out
// points.
func probeAddrs(im *Image) []uint64 {
	out := []uint64{0, 1, ^uint64(0), 0xDEAD0000}
	for _, s := range im.Sections {
		out = append(out, s.Addr-1, s.Addr, s.Addr+uint64(len(s.Data))/2, s.End()-1, s.End(), s.End()+1)
	}
	return out
}

// checkIndexMatchesLinear asserts SectionAt ≡ the linear reference on
// every probe address of the image.
func checkIndexMatchesLinear(t *testing.T, im *Image, label string) {
	t.Helper()
	for _, a := range probeAddrs(im) {
		want, wantOK := sectionAtLinear(im, a)
		got, gotOK := im.SectionAt(a)
		if got != want || gotOK != wantOK {
			t.Errorf("%s: SectionAt(%#x) = %v, %v; linear reference gives %v, %v",
				label, a, got, gotOK, want, wantOK)
		}
	}
}

// loadSelf loads the running test binary through LoadELF, skipping on
// platforms without /proc/self/exe.
func loadSelf(t testing.TB) *Image {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("needs /proc/self/exe")
	}
	data, err := os.ReadFile("/proc/self/exe")
	if err != nil {
		t.Skipf("reading /proc/self/exe: %v", err)
	}
	im, err := LoadELF(data)
	if err != nil {
		t.Fatalf("LoadELF(self): %v", err)
	}
	return im
}

// TestSectionIndexMatchesLinear pins the byte-identity contract of the
// sorted-range index against the linear reference on three shapes: a
// synthetic handful of sections, a real 25+-section host binary, and
// an overlapping layout that must take the fallback path.
func TestSectionIndexMatchesLinear(t *testing.T) {
	synthIm := &Image{Sections: []*Section{
		{Name: ".text", Addr: 0x401000, Data: make([]byte, 0x300), Flags: FlagAlloc | FlagExec},
		{Name: ".rodata", Addr: 0x402000, Data: make([]byte, 0x80), Flags: FlagAlloc},
		{Name: ".empty", Addr: 0x402080, Data: nil, Flags: FlagAlloc},
		{Name: ".data", Addr: 0x403000, Data: make([]byte, 0x40), Flags: FlagAlloc | FlagWrite},
	}}
	checkIndexMatchesLinear(t, synthIm, "synth")

	overlapIm := &Image{Sections: []*Section{
		{Name: "a", Addr: 0x1000, Data: make([]byte, 0x100), Flags: FlagAlloc},
		{Name: "b", Addr: 0x1080, Data: make([]byte, 0x100), Flags: FlagAlloc | FlagExec},
	}}
	checkIndexMatchesLinear(t, overlapIm, "overlap")
	// First-match semantics on the overlapped range must hold exactly.
	if s, ok := overlapIm.SectionAt(0x10C0); !ok || s.Name != "a" {
		t.Errorf("overlap: SectionAt(0x10c0) = %v, %v; want first-in-slice section a", s, ok)
	}

	checkIndexMatchesLinear(t, loadSelf(t), "real")
}

// TestSectionIndexInvalidatedOnAppend pins the staleness contract:
// growing or replacing the Sections slice must drop the cached index.
func TestSectionIndexInvalidatedOnAppend(t *testing.T) {
	im := &Image{Sections: []*Section{
		{Name: ".text", Addr: 0x1000, Data: make([]byte, 0x100), Flags: FlagAlloc | FlagExec},
	}}
	if im.IsExec(0x2000) {
		t.Fatal("address exec before its section exists")
	}
	im.Sections = append(im.Sections,
		&Section{Name: ".late", Addr: 0x2000, Data: make([]byte, 0x100), Flags: FlagAlloc | FlagExec})
	if !im.IsExec(0x2000) {
		t.Fatal("index not invalidated by append: new section invisible")
	}
	checkIndexMatchesLinear(t, im, "post-append")

	// A shallow image copy (Strip) must not share future rebuilds with
	// the original when their Sections diverge.
	st := im.Strip()
	st.Sections = st.Sections[:1]
	if st.IsExec(0x2000) {
		t.Error("truncated copy still sees the original's section")
	}
	if !im.IsExec(0x2000) {
		t.Error("original lost its section after copy diverged")
	}
}

// TestSectionIndexConcurrentReaders drives the lazy build from many
// goroutines under -race: the data-index scan shares one image across
// workers, so the cache must be safe for concurrent address queries.
func TestSectionIndexConcurrentReaders(t *testing.T) {
	im := loadSelf(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, a := range probeAddrs(im) {
				want, _ := sectionAtLinear(im, a)
				if got, _ := im.SectionAt(a); got != want {
					t.Errorf("concurrent SectionAt(%#x) = %v, want %v", a, got, want)
				}
			}
		}()
	}
	wg.Wait()
}

// TestLoadELFSelf sanity-checks loading the running test binary: an
// executable .text containing the entry point, function symbols from
// .symtab, and a PIE flag agreeing with the ELF type.
func TestLoadELFSelf(t *testing.T) {
	im := loadSelf(t)
	txt, ok := im.Section(".text")
	if !ok || txt.Flags&FlagExec == 0 || len(txt.Data) == 0 {
		t.Fatalf(".text missing or not executable: %v, %v", txt, ok)
	}
	if !im.IsExec(im.Entry) {
		t.Errorf("entry %#x not in executable section", im.Entry)
	}
	// `go test` links its ephemeral test binaries without .symtab, so
	// symbol assertions use the toolchain's own go binary instead.
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if data, err := os.ReadFile(goBin); err == nil {
		gim, err := LoadELF(data)
		if err != nil {
			t.Fatalf("LoadELF(%s): %v", goBin, err)
		}
		funcs := gim.FuncSymbols()
		if len(funcs) == 0 {
			t.Errorf("no function symbols in unstripped %s", goBin)
		}
		for _, s := range funcs {
			if !gim.IsExec(s.Addr) {
				t.Errorf("function symbol %s at %#x not executable", s.Name, s.Addr)
				break
			}
		}
	}
	f, err := elf.NewFile(bytes.NewReader(mustRead(t, "/proc/self/exe")))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if im.PIE != (f.Type == elf.ET_DYN) {
		t.Errorf("PIE = %v, ELF type = %v", im.PIE, f.Type)
	}
}

// TestLoadELFHostBinary loads a known system ELF: sections must be
// sane and — on the stripped PIE binaries distros ship — any truth
// left must come from .dynsym, flagged as such.
func TestLoadELFHostBinary(t *testing.T) {
	var im *Image
	var path string
	for _, p := range []string{"/usr/bin/env", "/bin/ls", "/bin/sh", "/usr/bin/true"} {
		data, err := os.ReadFile(p)
		if err != nil || len(data) < 4 || string(data[:4]) != "\x7fELF" {
			continue
		}
		if m, err := LoadELF(data); err == nil {
			im, path = m, p
			break
		}
	}
	if im == nil {
		t.Skip("no loadable x64 host binary found")
	}
	if len(im.Sections) < 5 {
		t.Errorf("%s: only %d sections", path, len(im.Sections))
	}
	if _, ok := im.Section(".text"); !ok {
		t.Errorf("%s: no .text", path)
	}
	for _, s := range im.Symbols {
		if !s.Dyn {
			continue
		}
		if s.Addr != 0 && !im.IsMapped(s.Addr) {
			t.Errorf("%s: dynsym %s at unmapped %#x", path, s.Name, s.Addr)
		}
	}
	checkIndexMatchesLinear(t, im, path)
}

// TestWriteELFReloadEquivalence pins WriteELF(LoadELF(x)) reload
// equivalence for images within the writer's supported shape — both a
// hand-built symbol-carrying image and the real running test binary.
func TestWriteELFReloadEquivalence(t *testing.T) {
	hand := &Image{
		Entry: 0x401010,
		Sections: []*Section{
			{Name: ".text", Addr: 0x401000, Data: bytes.Repeat([]byte{0x90}, 64), Flags: FlagAlloc | FlagExec},
			{Name: ".rodata", Addr: 0x402000, Data: []byte{1, 2, 3, 4}, Flags: FlagAlloc},
		},
		Symbols: []Symbol{
			{Name: "main", Addr: 0x401010, Size: 16, Func: true},
			{Name: "data_obj", Addr: 0x402000, Size: 4},
		},
	}
	checkReload(t, hand, "hand-built")

	self := loadSelf(t)
	checkReload(t, self, "self")
}

// checkReload writes an image and asserts the reloaded form is
// equivalent: same sections, entry, PIE, and symbols (modulo the Dyn
// flag — the writer serializes everything into .symtab).
func checkReload(t *testing.T, im *Image, label string) {
	t.Helper()
	blob, err := WriteELF(im)
	if err != nil {
		t.Fatalf("%s: WriteELF: %v", label, err)
	}
	got, err := LoadELF(blob)
	if err != nil {
		t.Fatalf("%s: reload: %v", label, err)
	}
	if got.Entry != im.Entry || got.PIE != im.PIE {
		t.Errorf("%s: entry/PIE = %#x/%v, want %#x/%v", label, got.Entry, got.PIE, im.Entry, im.PIE)
	}
	if len(got.Sections) != len(im.Sections) {
		t.Fatalf("%s: %d sections after reload, want %d", label, len(got.Sections), len(im.Sections))
	}
	bySec := make(map[string]*Section, len(im.Sections))
	for _, s := range im.Sections {
		bySec[s.Name] = s
	}
	for _, g := range got.Sections {
		w, ok := bySec[g.Name]
		if !ok {
			t.Errorf("%s: unexpected section %q after reload", label, g.Name)
			continue
		}
		if g.Addr != w.Addr || g.Flags != w.Flags || !bytes.Equal(g.Data, w.Data) {
			t.Errorf("%s: section %q diverged after reload", label, g.Name)
		}
	}
	want := append([]Symbol(nil), im.Symbols...)
	for i := range want {
		want[i].Dyn = false
	}
	if !reflect.DeepEqual(got.Symbols, want) {
		t.Errorf("%s: symbols diverged after reload (%d vs %d)", label, len(got.Symbols), len(want))
	}
}

// mustRead reads a file or fails the test.
func mustRead(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLoadELFCorruptSymtabErrors is the regression test for the
// swallowed-symbol-error bug: a binary whose .symtab is present but
// unparseable must fail loudly, not load as if it were stripped.
func TestLoadELFCorruptSymtabErrors(t *testing.T) {
	im := &Image{
		Entry: 0x401000,
		Sections: []*Section{
			{Name: ".text", Addr: 0x401000, Data: bytes.Repeat([]byte{0x90}, 32), Flags: FlagAlloc | FlagExec},
		},
		Symbols: []Symbol{{Name: "f", Addr: 0x401000, Size: 32, Func: true}},
	}
	blob, err := WriteELF(im)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the .symtab section header: grow sh_size by one byte so
	// the table is no longer a whole number of Sym64 entries.
	shoff := binary.LittleEndian.Uint64(blob[40:])
	nShdr := int(binary.LittleEndian.Uint16(blob[60:]))
	symShdr := shoff + uint64((nShdr-3)*shdrSize)
	szOff := symShdr + 32
	binary.LittleEndian.PutUint64(blob[szOff:], binary.LittleEndian.Uint64(blob[szOff:])+1)

	if _, err := LoadELF(blob); err == nil {
		t.Fatal("LoadELF accepted a corrupt .symtab as if stripped")
	} else if want := ".symtab"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("error %q does not mention %s", err, want)
	}

	// Sanity: a genuinely stripped binary still loads without error.
	st, err := WriteELF(im.Strip())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadELF(st); err != nil {
		t.Errorf("stripped binary failed to load: %v", err)
	}
}

// benchSelf caches the loaded self image for the benchmarks.
var benchSelf struct {
	once sync.Once
	im   *Image
}

// loadBenchSelf loads a real host binary once for benchmarking,
// preferring a many-section system ELF over the test binary itself.
func loadBenchSelf(b *testing.B) *Image {
	benchSelf.once.Do(func() {
		for _, p := range []string{"/bin/bash", "/usr/bin/bash", "/bin/ls", "/proc/self/exe"} {
			data, err := os.ReadFile(p)
			if err != nil {
				continue
			}
			if im, err := LoadELF(data); err == nil {
				benchSelf.im = im
				return
			}
		}
	})
	if benchSelf.im == nil {
		b.Skip("no loadable host binary")
	}
	return benchSelf.im
}

// benchProbes builds a deterministic address mix over the image
// mimicking the xref pass's IsExec traffic over candidate pointer
// words: hits spread across all sections, plus an equal share of
// misses (inter-section gaps and out-of-image addresses), since most
// data words are not valid code pointers.
func benchProbes(im *Image) []uint64 {
	var probes []uint64
	for i, s := range im.Sections {
		step := uint64(len(s.Data))/7 + 1
		for a := s.Addr; a < s.End(); a += step {
			probes = append(probes, a, s.End()+uint64(i)*8+7)
		}
	}
	return probes
}

// BenchmarkSectionAtIndexed measures the sorted-range index on the
// real 25+-section self binary; compare with
// BenchmarkSectionAtLinear, the scan it replaced.
func BenchmarkSectionAtIndexed(b *testing.B) {
	im := loadBenchSelf(b)
	probes := benchProbes(im)
	im.index() // build outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range probes {
			im.SectionAt(a)
		}
	}
	b.ReportMetric(float64(len(probes)), "probes/op")
}

// BenchmarkSectionAtLinear is the pre-index reference on the same
// probe mix, kept as the baseline the index is measured against.
func BenchmarkSectionAtLinear(b *testing.B) {
	im := loadBenchSelf(b)
	probes := benchProbes(im)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range probes {
			sectionAtLinear(im, a)
		}
	}
	b.ReportMetric(float64(len(probes)), "probes/op")
}
