package fetch

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"fetch/internal/core"
	"fetch/internal/ehframe"
	"fetch/internal/elfx"
	"fetch/internal/resultcache"
	"fetch/internal/synth"
)

// deltaPair builds a base binary and its "next build": the same
// program with two functions perturbed in place, the recompilation
// shape the delta tier serves. Results are cached per test binary
// name via sync.Once holders below — generation is the expensive part
// of every test here.
var (
	deltaPairOnce sync.Once
	deltaBaseRaw  []byte
	deltaNextRaw  []byte
	deltaColdEnc  []byte
	deltaNumFuncs int
)

func deltaPair(t *testing.T) (baseRaw, nextRaw, coldEnc []byte) {
	t.Helper()
	deltaPairOnce.Do(func() {
		cfg := synth.DefaultConfig("delta-cache", 32718, synth.O2, synth.GCC, synth.LangC)
		cfg.NumFuncs = 200
		deltaNumFuncs = cfg.NumFuncs
		baseImg, _, err := synth.Generate(cfg)
		if err != nil {
			panic(err)
		}
		if deltaBaseRaw, err = elfx.WriteELF(baseImg.Strip()); err != nil {
			panic(err)
		}
		next := cfg
		next.PerturbK = 2
		next.PerturbSeed = 0xC0DE
		nextImg, _, err := synth.Generate(next)
		if err != nil {
			panic(err)
		}
		if deltaNextRaw, err = elfx.WriteELF(nextImg.Strip()); err != nil {
			panic(err)
		}
		cold, err := Analyze(deltaNextRaw)
		if err != nil {
			panic(err)
		}
		if deltaColdEnc, err = EncodeResult(StripSchedule(cold)); err != nil {
			panic(err)
		}
	})
	return deltaBaseRaw, deltaNextRaw, deltaColdEnc
}

// deltaDiskCache returns a disk-backed cache sized for the pair's
// function tier (one entry per FDE range; an undersized LRU evicts the
// base build's trace before the next build arrives).
func deltaDiskCache(t *testing.T, dir string) *Cache {
	t.Helper()
	cache, err := NewCache(CacheConfig{MaxEntries: 3 * deltaNumFuncs, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return cache
}

// deltaTierFiles globs the on-disk entries of one delta-tier family:
// "fn" for function ranges, "mf" for manifests.
func deltaTierFiles(t *testing.T, dir, family string) []string {
	t.Helper()
	all, err := filepath.Glob(filepath.Join(dir, "*.rc"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range all {
		base := filepath.Base(e)
		switch family {
		case "fn":
			if strings.Contains(base, "-fn-") {
				out = append(out, e)
			}
		case "mf":
			if strings.Contains(base, "-mf.") {
				out = append(out, e)
			}
		}
	}
	if len(out) == 0 {
		t.Fatalf("no %q entries in %s", family, dir)
	}
	return out
}

// TestDeltaUnmappedCallNeverReturns pins delta replay's non-return
// verdicts to the committed inference's: a call to a non-executable
// address does not return. G (entry point, FDE) runs `call F; call H;
// ret`, and H (`ret`) has no FDE, so only G's fall-through past F finds
// it. In the base build F (FDE) runs `call 0x300000; ret` with the
// target unmapped, so F never returns and H stays undetected; the
// recompile makes F `nop×5; ret`, which returns and brings H in. A
// verdict walk that let the unmapped call return would judge F
// returning in both builds and serve the base result, without H.
func TestDeltaUnmappedCallNeverReturns(t *testing.T) {
	const g, f, h, ehAddr = 0x401000, 0x401100, 0x401200, 0x402000
	call := func(at, target uint64) []byte {
		b := []byte{0xE8, 0, 0, 0, 0}
		binary.LittleEndian.PutUint32(b[1:], uint32(int32(int64(target)-int64(at+5))))
		return b
	}
	build := func(fBody []byte) []byte {
		t.Helper()
		gBody := append(append(call(g, f), call(g+5, h)...), 0xC3)
		text := bytes.Repeat([]byte{0xCC}, h+1-g)
		copy(text, gBody)
		copy(text[f-g:], fBody)
		text[h-g] = 0xC3
		cie := ehframe.NewDefaultCIE()
		eh, err := (&ehframe.Section{Addr: ehAddr, FDEs: []*ehframe.FDE{
			{CIE: cie, PCBegin: g, PCRange: uint64(len(gBody))},
			{CIE: cie, PCBegin: f, PCRange: uint64(len(fBody))},
		}}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := elfx.WriteELF(&elfx.Image{Entry: g, Sections: []*elfx.Section{
			{Name: ".text", Addr: g, Data: text, Flags: elfx.FlagAlloc | elfx.FlagExec},
			{Name: ".eh_frame", Addr: ehAddr, Data: eh, Flags: elfx.FlagAlloc},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	baseRaw := build(append(call(f, 0x300000), 0xC3))
	nextRaw := build([]byte{0x90, 0x90, 0x90, 0x90, 0x90, 0xC3})

	cold, err := Analyze(nextRaw)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(cold.FunctionStarts, h) {
		t.Fatalf("cold analysis of the recompile misses H: %#x", cold.FunctionStarts)
	}
	coldEnc, err := EncodeResult(StripSchedule(cold))
	if err != nil {
		t.Fatal(err)
	}

	cache, err := NewCache(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(baseRaw, WithCache(cache)); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.DeltaPuts == 0 {
		t.Fatalf("base analysis recorded no delta trace: %+v", st)
	}
	res, err := Analyze(nextRaw, WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeResult(StripSchedule(res))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, coldEnc) {
		t.Fatalf("served result differs from cold analysis (delta path %v): starts %#x, cold %#x",
			res.Stats.DeltaPath, res.FunctionStarts, cold.FunctionStarts)
	}
}

// TestDeltaOverlapFallsBack pins that a recompile whose walk decodes
// overlapping instructions is never delta-served. D (FDE) dispatches
// through a two-entry jump table to t and s = t+1; the walk takes s
// (`or eax, eax; ret`) first, then t. In the base build t is `ret`; the
// recompile changes that one byte so t becomes `ud2`, whose second byte
// is s's first: the committed walk then leaves s's byte to t, and a
// pointer candidate c (`jmp D`, reachable only from .data) that walks
// through s lands mid-instruction under rule (ii), so a cold run of the
// recompile rejects c. D's facts are otherwise unchanged, and coverage
// rebuilt from the instruction skeleton in address order gives s's byte
// back to s, so a replay that took the overlapping walk as faithful
// would accept c and serve the base result with it.
func TestDeltaOverlapFallsBack(t *testing.T) {
	const f, d, c, tbl, data, ehAddr = 0x401000, 0x401100, 0x401200, 0x402000, 0x403000, 0x404000
	build := func(tByte byte) []byte {
		t.Helper()
		text := bytes.Repeat([]byte{0xCC}, c+5-f)
		for i := 0; i < 63; i++ {
			text[i] = 0x90 // F: nop×63; ret
		}
		text[63] = 0xC3
		body := []byte{
			0x48, 0x83, 0xFF, 0x01, // cmp rdi, 1
			0x77, 0xFA, // ja d
			0xFF, 0x24, 0xFD, 0, 0, 0, 0, // jmp [rdi*8 + tbl]
			tByte,      // t
			0x0B, 0xC0, // s: or eax, eax
			0xC3, // ret
		}
		binary.LittleEndian.PutUint32(body[9:], tbl)
		copy(text[d-f:], body)
		var rel int32 = d - (c + 5)
		text[c-f] = 0xE9 // c: jmp d
		binary.LittleEndian.PutUint32(text[c-f+1:], uint32(rel))
		table := make([]byte, 16)
		binary.LittleEndian.PutUint64(table, d+13)
		binary.LittleEndian.PutUint64(table[8:], d+14)
		ptr := make([]byte, 8)
		binary.LittleEndian.PutUint64(ptr, c)
		cie := ehframe.NewDefaultCIE()
		eh, err := (&ehframe.Section{Addr: ehAddr, FDEs: []*ehframe.FDE{
			{CIE: cie, PCBegin: f, PCRange: 64},
			{CIE: cie, PCBegin: d, PCRange: uint64(len(body))},
		}}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := elfx.WriteELF(&elfx.Image{Entry: f, Sections: []*elfx.Section{
			{Name: ".text", Addr: f, Data: text, Flags: elfx.FlagAlloc | elfx.FlagExec},
			{Name: ".rodata", Addr: tbl, Data: table, Flags: elfx.FlagAlloc},
			{Name: ".data", Addr: data, Data: ptr, Flags: elfx.FlagAlloc | elfx.FlagWrite},
			{Name: ".eh_frame", Addr: ehAddr, Data: eh, Flags: elfx.FlagAlloc},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	baseRaw, nextRaw := build(0xC3), build(0x0F)

	base, err := Analyze(baseRaw)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Analyze(nextRaw)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(base.NewFromPointers, c) || slices.Contains(cold.FunctionStarts, c) {
		t.Fatalf("pointer-found starts: base %#x, recompile %#x; want c only in the base build",
			base.NewFromPointers, cold.NewFromPointers)
	}
	coldEnc, err := EncodeResult(StripSchedule(cold))
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewCache(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(baseRaw, WithCache(cache)); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.DeltaPuts == 0 {
		t.Fatalf("base analysis recorded no delta trace: %+v", st)
	}
	res, err := Analyze(nextRaw, WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeResult(StripSchedule(res))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, coldEnc) {
		t.Fatalf("served result differs from cold analysis (delta path %v): starts %#x, cold %#x",
			res.Stats.DeltaPath, res.FunctionStarts, cold.FunctionStarts)
	}
	if res.Stats.DeltaPath || res.Stats.DeltaFallbackReason == "" {
		t.Fatalf("delta path %v, fallback %q; want a fallback", res.Stats.DeltaPath, res.Stats.DeltaFallbackReason)
	}
}

// TestDeltaFnTierCorruption mirrors the whole-binary corruption test
// for the function tier: after the base build's trace is on disk, each
// subtest damages the delta-tier entries a different way and analyzes
// the next build through a fresh cache over the same directory. The
// contract is "miss, never wrong hit": a damaged tier may cost the
// delta path (fallback to the cold pipeline) but the served result
// must stay byte-identical to a cold analysis in every case.
func TestDeltaFnTierCorruption(t *testing.T) {
	baseRaw, nextRaw, coldEnc := deltaPair(t)

	corruptions := []struct {
		name    string
		family  string
		corrupt func(t *testing.T, path string)
		// wantDelta: the damage must NOT cost the delta path (control).
		wantDelta bool
	}{
		{name: "intact-control", family: "fn",
			corrupt: func(t *testing.T, path string) {}, wantDelta: true},
		{name: "fn-truncated", family: "fn",
			corrupt: func(t *testing.T, path string) {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "fn-flipped-byte", family: "fn",
			corrupt: func(t *testing.T, path string) {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				raw[len(raw)-1] ^= 0xFF
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "fn-partial-write", family: "fn",
			corrupt: func(t *testing.T, path string) {
				// An interrupted non-atomic writer: the header begins but
				// the payload never lands.
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				n := 16
				if n > len(raw) {
					n = len(raw)
				}
				if err := os.WriteFile(path, raw[:n], 0o644); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "mf-truncated", family: "mf",
			corrupt: func(t *testing.T, path string) {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "mf-flipped-byte", family: "mf",
			corrupt: func(t *testing.T, path string) {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				raw[len(raw)/2] ^= 0x01
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}},
	}

	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c1 := deltaDiskCache(t, dir)
			if _, err := Analyze(baseRaw, WithCache(c1)); err != nil {
				t.Fatal(err)
			}
			for _, f := range deltaTierFiles(t, dir, tc.family) {
				tc.corrupt(t, f)
			}

			// A fresh cache over the same directory: cold memory level,
			// so every delta-tier read goes through the damaged files.
			c2 := deltaDiskCache(t, dir)
			res, err := Analyze(nextRaw, WithCache(c2))
			if err != nil {
				t.Fatal(err)
			}
			enc, err := EncodeResult(StripSchedule(res))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, coldEnc) {
				t.Fatal("served result differs from cold analysis")
			}
			st := c2.Stats()
			if tc.wantDelta {
				if !res.Stats.DeltaPath {
					t.Fatalf("control run not delta-served (reason %q)",
						res.Stats.DeltaFallbackReason)
				}
				if st.DeltaHits != 1 {
					t.Fatalf("control counters: %+v", st)
				}
				return
			}
			if res.Stats.DeltaPath {
				t.Fatal("delta path survived corrupted tier entries")
			}
			// Disk-level integrity catches every mode here; the damaged
			// entries must be dropped, never decoded.
			if st.CorruptDrops == 0 {
				t.Fatalf("no corrupt drops recorded: %+v", st)
			}
			if st.DeltaHits != 0 {
				t.Fatalf("delta hit off corrupted entries: %+v", st)
			}
		})
	}
}

// TestDeltaTraceImpossibleInstLen stores a well-formed manifest whose
// trace claims an instruction length the owner index cannot hold. The
// trace must fail to load — counted as a manifest miss — and the next
// build must run cold, never replay against the planted coverage.
func TestDeltaTraceImpossibleInstLen(t *testing.T) {
	requirePlantedTraceMisses(t, func(tr *core.Trace) []byte {
		// Read the skeleton's (step, length) pairs, then pack them
		// again with the middle fact's length set to 256.
		var facts [][2]uint64
		for b := tr.GlobalInsts; len(b) > 0; {
			step, n := binary.Uvarint(b)
			l, m := binary.Uvarint(b[n:])
			if n <= 0 || m <= 0 {
				t.Fatal("recorded skeleton is malformed")
			}
			facts = append(facts, [2]uint64{step, l})
			b = b[n+m:]
		}
		if len(facts) == 0 {
			t.Fatal("trace has no instruction facts")
		}
		facts[len(facts)/2][1] = 256
		tr.GlobalInsts = nil
		for _, f := range facts {
			tr.GlobalInsts = binary.AppendUvarint(binary.AppendUvarint(tr.GlobalInsts, f[0]), f[1])
		}
		return marshalTrace(t, tr)
	})
}

// TestDeltaTraceTruncatedRoster stores a manifest whose packed roster
// is cut short by one byte — the last byte of its last range's hash —
// with every other field intact. The trace must fail to decode, so it
// counts as a manifest miss and the next build runs cold.
func TestDeltaTraceTruncatedRoster(t *testing.T) {
	requirePlantedTraceMisses(t, func(tr *core.Trace) []byte {
		blob := marshalTrace(t, tr)
		last := tr.Roster[len(tr.Roster)-1].Hash
		at := bytes.Index(blob, last[:])
		if at < 0 || bytes.Index(blob[at+1:], last[:]) >= 0 {
			t.Fatal("the last roster hash is not in the manifest exactly once")
		}
		end := at + len(last)
		return append(blob[:end-1:end-1], blob[end:]...)
	})
}

// requirePlantedTraceMisses records the base build's trace, replaces
// the manifest the next build will look up with plant's encoding of a
// damaged copy, and requires that the next build counts one manifest
// miss, takes no delta path, and still equals a cold analysis.
func requirePlantedTraceMisses(t *testing.T, plant func(*core.Trace) []byte) {
	t.Helper()
	baseRaw, nextRaw, coldEnc := deltaPair(t)
	img, err := elfx.LoadELF(nextRaw)
	if err != nil {
		t.Fatal(err)
	}
	eh := core.LoadEHFrame(img.Strip())
	if eh == nil || eh.Roster == nil {
		t.Fatal("no delta key")
	}
	key := manifestKey(eh.Residue, core.FETCH)

	cache, err := NewCache(CacheConfig{MaxEntries: 3 * deltaNumFuncs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(baseRaw, WithCache(cache)); err != nil {
		t.Fatal(err)
	}
	blob, ok := cache.rc.Get(key)
	if !ok {
		t.Fatal("base analysis stored no manifest under the next build's residue key")
	}
	var tr core.Trace
	if err := tr.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	cache.rc.Put(key, plant(&tr))

	before := cache.Stats()
	res, err := Analyze(nextRaw, WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeResult(StripSchedule(res))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, coldEnc) {
		t.Fatal("served result differs from cold analysis")
	}
	if res.Stats.DeltaPath {
		t.Fatal("delta path replayed a damaged trace")
	}
	after := cache.Stats()
	if got := after.ManifestMisses - before.ManifestMisses; got != 1 {
		t.Fatalf("manifest misses +%d, want +1", got)
	}
	if after.ManifestHits != before.ManifestHits || after.DeltaHits != before.DeltaHits {
		t.Fatalf("corrupt manifest counted as a hit: before %+v, after %+v", before, after)
	}
}

// TestDeltaFnTierMemoryCorruption damages a function-tier payload
// after it has been served into the memory level, where the disk
// header check cannot help — fnRangeBytes's own payload↔key binding is
// the only defense. The next build must fall back, never replay
// against wrong bytes.
func TestDeltaFnTierMemoryCorruption(t *testing.T) {
	baseRaw, nextRaw, coldEnc := deltaPair(t)
	dir := t.TempDir()
	c1 := deltaDiskCache(t, dir)
	if _, err := Analyze(baseRaw, WithCache(c1)); err != nil {
		t.Fatal(err)
	}
	// Rewrite every fn file as a VALID disk entry whose payload no
	// longer matches the key in its name: rotate the file contents, so
	// each file passes any self-contained header check yet carries a
	// neighboring key's payload. Rotating ALL entries guarantees every
	// range the replay reads is mismatched.
	files := deltaTierFiles(t, dir, "fn")
	if len(files) < 2 {
		t.Skip("need two fn entries to rotate")
	}
	contents := make([][]byte, len(files))
	for i, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		contents[i] = raw
	}
	for i, f := range files {
		if err := os.WriteFile(f, contents[(i+1)%len(files)], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	c2 := deltaDiskCache(t, dir)
	res, err := Analyze(nextRaw, WithCache(c2))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeResult(StripSchedule(res))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, coldEnc) {
		t.Fatal("served result differs from cold analysis after key/payload rotation")
	}
	if res.Stats.DeltaPath {
		t.Fatal("delta path survived a fully mismatched function tier")
	}
	st := c2.Stats()
	if st.DeltaHits != 0 {
		t.Fatalf("delta hit off mismatched entries: %+v", st)
	}
	// Every consumed payload must have been rejected at some layer —
	// either the disk store's key check or fnRangeBytes's binding check.
	if st.FnTierMisses == 0 && st.CorruptDrops == 0 {
		t.Fatalf("mismatched payloads never rejected: %+v", st)
	}
}

// TestDeltaConcurrentAnalyses drives base and next builds through one
// shared cache from many goroutines (run under -race): concurrent
// trace recording, delta replay, and whole-binary hits must neither
// race nor ever serve a result differing from cold analysis.
func TestDeltaConcurrentAnalyses(t *testing.T) {
	baseRaw, nextRaw, coldEnc := deltaPair(t)
	baseCold, err := Analyze(baseRaw)
	if err != nil {
		t.Fatal(err)
	}
	baseEnc, err := EncodeResult(StripSchedule(baseCold))
	if err != nil {
		t.Fatal(err)
	}

	cache, err := NewCache(CacheConfig{MaxEntries: 3 * deltaNumFuncs, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Half the workers race base-build recording against the
			// other half's next-build delta attempts.
			raw, want := baseRaw, baseEnc
			if w%2 == 1 {
				raw, want = nextRaw, coldEnc
			}
			for i := 0; i < 3; i++ {
				res, err := Analyze(raw, WithCache(cache))
				if err != nil {
					errs <- err
					return
				}
				enc, err := EncodeResult(StripSchedule(res))
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(enc, want) {
					errs <- errResultMismatch
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errResultMismatch = errorString("concurrent analysis differs from cold result")

type errorString string

func (e errorString) Error() string { return string(e) }

// TestMissReusesEHFrame pins the cache-miss path's reuse of the
// .eh_frame decode and delta key its delta attempt derived: a recorded
// run handed LoadEHFrame's result reports what an unrecorded run that
// decodes the section itself does, and records what a recorded run
// handed nothing does; a missing or malformed .eh_frame fails a cached
// analysis with the same error as an uncached one.
func TestMissReusesEHFrame(t *testing.T) {
	baseRaw, _, _ := deltaPair(t)
	img, err := elfx.LoadELF(baseRaw)
	if err != nil {
		t.Fatal(err)
	}
	simg := img.Strip()
	eh := core.LoadEHFrame(simg)
	if eh == nil || eh.Roster == nil {
		t.Fatal("no delta key")
	}
	encodeRep := func(rep *core.Report) []byte {
		res, err := EncodeResult(StripSchedule(reportToResult(rep)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	encodeRun := func(eh *core.EHFrame) ([]byte, []byte) {
		rep, tr, err := core.AnalyzeRecorded(simg, core.FETCH, eh)
		if err != nil {
			t.Fatal(err)
		}
		return encodeRep(rep), marshalTrace(t, tr)
	}
	gotRes, gotTrace := encodeRun(eh)
	_, wantTrace := encodeRun(nil)
	plain, err := core.Analyze(simg, core.FETCH)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotRes, encodeRep(plain)) {
		t.Fatal("a recorded run handed the decoded .eh_frame reports differently from an unrecorded run")
	}
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Fatal("a recorded run handed the decoded .eh_frame records differently from one handed nothing")
	}

	withEHFrame := func(body []byte) []byte {
		cp := *simg
		cp.Sections = nil
		for _, s := range simg.Sections {
			if s.Name != ".eh_frame" {
				cp.Sections = append(cp.Sections, s)
			} else if body != nil {
				cp.Sections = append(cp.Sections, &elfx.Section{Name: s.Name, Addr: s.Addr, Data: body, Flags: s.Flags})
			}
		}
		raw, err := elfx.WriteELF(&cp)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for name, raw := range map[string][]byte{
		"missing": withEHFrame(nil),
		// A first entry whose length runs past the section.
		"malformed": withEHFrame([]byte{0xF0, 0xFF, 0xFF, 0x0F, 0, 0, 0, 0}),
	} {
		_, want := Analyze(raw)
		if want == nil {
			t.Fatalf("%s .eh_frame: uncached analysis succeeded", name)
		}
		cache, err := NewCache(CacheConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if _, got := Analyze(raw, WithCache(cache)); got == nil || got.Error() != want.Error() {
			t.Fatalf("%s .eh_frame: cached analysis error %v, uncached %v", name, got, want)
		}
	}
}

// TestDeltaServesRecordedResult pins where a delta hit's result comes
// from: the manifest's copy of the recorded result while the recorded
// JSON is the one the copy was recorded with, field for field what
// decoding that JSON gives (pass wall times included), and the JSON
// once the binary's entry was stored again since.
func TestDeltaServesRecordedResult(t *testing.T) {
	baseRaw, nextRaw, coldEnc := deltaPair(t)
	img, err := elfx.LoadELF(nextRaw)
	if err != nil {
		t.Fatal(err)
	}
	eh := core.LoadEHFrame(img.Strip())
	if eh == nil || eh.Roster == nil {
		t.Fatal("no delta key")
	}
	mfKey := manifestKey(eh.Residue, core.FETCH)
	baseKey := cacheKey(HashBinary(baseRaw), core.FETCH)
	// serve records the base build into a fresh cache, lets edit
	// change its stored entries, and returns the next build's delta
	// result without its delta markers, and the base build's stored
	// JSON at that point.
	serve := func(edit func(c *Cache, tr *core.Trace)) (*Result, []byte) {
		t.Helper()
		cache, err := NewCache(CacheConfig{MaxEntries: 3 * deltaNumFuncs})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Analyze(baseRaw, WithCache(cache)); err != nil {
			t.Fatal(err)
		}
		tr, ok := cache.loadTrace(eh.Residue, core.FETCH)
		if !ok || tr.Result == nil {
			t.Fatal("the base build's manifest carries no recorded result")
		}
		edit(cache, tr)
		blob, _ := cache.rc.Get(baseKey)
		res, err := Analyze(nextRaw, WithCache(cache))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.DeltaPath {
			t.Fatalf("next build was not delta-served (reason %q)", res.Stats.DeltaFallbackReason)
		}
		enc, err := EncodeResult(StripSchedule(res))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, coldEnc) {
			t.Fatal("delta-served result differs from cold analysis")
		}
		res.Stats.DeltaPath, res.Stats.DeltaDirtyRanges, res.Stats.DeltaTotalRanges = false, 0, 0
		return res, blob
	}
	decoded := func(blob []byte) *Result {
		t.Helper()
		want, err := DecodeResult(blob)
		if err != nil {
			t.Fatal(err)
		}
		return want
	}

	got, blob := serve(func(*Cache, *core.Trace) {})
	if want := decoded(blob); !reflect.DeepEqual(got, want) {
		t.Fatalf("served %+v, the recorded JSON decodes to %+v", got, want)
	}

	// A copy whose JSON is still the one it was recorded with is what
	// the hit serves: a planted copy shows through.
	got, blob = serve(func(c *Cache, tr *core.Trace) {
		var rr recordedResult
		if err := gob.NewDecoder(bytes.NewReader(tr.Result)).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		rr.Result.Stats.Passes[0].Wall++
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&rr); err != nil {
			t.Fatal(err)
		}
		tr.Result = buf.Bytes()
		putTrace(t, c, mfKey, tr)
	})
	if want := decoded(blob).Stats.Passes[0].Wall + 1; got.Stats.Passes[0].Wall != want {
		t.Fatalf("served pass wall %v; the manifest's copy holds %v", got.Stats.Passes[0].Wall, want)
	}

	// The base build's JSON stored again, as a later run of the same
	// binary would: the hit serves the JSON, not the stale copy.
	got, blob = serve(func(c *Cache, _ *core.Trace) {
		stored, _ := c.rc.Get(baseKey)
		res := decoded(stored)
		res.Stats.Passes[0].Wall += 7
		c.store(baseKey, res)
	})
	if want := decoded(blob); !reflect.DeepEqual(got, want) {
		t.Fatalf("served %+v after the entry was stored again; it decodes to %+v", got, want)
	}
}

// putTrace stores tr's packed form under the manifest key k.
func putTrace(t *testing.T, c *Cache, k resultcache.Key, tr *core.Trace) {
	t.Helper()
	c.rc.Put(k, marshalTrace(t, tr))
}

func marshalTrace(t *testing.T, tr *core.Trace) []byte {
	t.Helper()
	b, err := tr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRecordedResultKeepsEmpties pins that a recorded result carried in
// a trace comes back as the JSON decodes: lists and maps that were
// empty stay empty rather than nil, and nil ones stay nil.
func TestRecordedResultKeepsEmpties(t *testing.T) {
	for name, res := range map[string]*Result{
		"nil": {},
		"empty": {
			FunctionStarts: []uint64{}, FDEStarts: []uint64{}, NewFromPointers: []uint64{},
			NewFromTailCalls: []uint64{}, RemovedBogusFDEs: []uint64{},
			MergedParts: map[uint64]uint64{}, Stats: Stats{Passes: []PassStat{}},
		},
		"full": {
			FunctionStarts: []uint64{0x401000, 0x401040}, FDEStarts: []uint64{0x401000},
			NewFromPointers: []uint64{0x401040}, NewFromTailCalls: []uint64{0x401080},
			RemovedBogusFDEs: []uint64{0x4010c0}, MergedParts: map[uint64]uint64{0x401100: 0x401000},
			SkippedIncompleteCFI: 2,
			Stats: Stats{Passes: []PassStat{{Name: "fde", Wall: 123}}, Probes: 4, XrefConverged: true,
				DeltaFallbackReason: "residue: hash mismatch", PeakAuxBytes: 5},
		},
	} {
		blob, err := EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecodeResult(blob)
		if err != nil {
			t.Fatal(err)
		}
		var tr core.Trace
		tr.Result, tr.ResultSHA = recordResult(res, blob)
		got, ok := servedResult(&tr, blob)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: served %#v, the JSON decodes to %#v", name, got, want)
		}
		if again, err := EncodeResult(got); err != nil || !bytes.Equal(again, blob) {
			t.Errorf("%s: the served result encodes differently from the stored JSON", name)
		}
	}
}
