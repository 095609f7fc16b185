package callconv_test

import (
	"path/filepath"
	"testing"

	"fetch/internal/a64"
	"fetch/internal/callconv"
	"fetch/internal/disasm"
	"fetch/internal/ehframe"
	"fetch/internal/elfx"
	"fetch/internal/synth"
	"fetch/internal/tailcall"
	"fetch/internal/xref"
)

// safeOpts is the pipeline's committed-walk configuration.
var safeOpts = disasm.Options{ResolveJumpTables: true, NonReturning: true}

// cachedInputs are the images the session-backed check is compared on:
// every adversarial synth profile on both ISAs, and the committed real
// binaries, stripped as the pipeline strips them.
func cachedInputs(t *testing.T) map[string]*elfx.Image {
	t.Helper()
	out := map[string]*elfx.Image{}
	for _, isa := range []string{"x64", "a64"} {
		for _, cfg := range synth.AdversarialCorpusArch(1, isa) {
			img, _, err := synth.Generate(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", cfg.Name, isa, err)
			}
			out[cfg.Name+"/"+isa] = img
		}
	}
	bins, err := filepath.Glob("../../testdata/realbin/*.bin")
	if err != nil || len(bins) == 0 {
		t.Fatalf("no committed real binaries: %v", err)
	}
	for _, p := range bins {
		img, err := elfx.LoadELFFile(p)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { img.Close() })
		out[filepath.Base(p)] = img.Strip()
	}
	return out
}

// probeAddrs collects the addresses the comparison checks on img, and
// the pipeline's seeds (the FDE starts and the entry point): every
// FDE start, every instruction a committed walk from them decodes and
// the byte after its start, every byte of the gaps between walked
// instructions, every convention check and tail-call target Algorithm
// 1 considers, a spread of data-section addresses, and the addresses
// within the longest instruction of every section's end, the end
// itself included.
func probeAddrs(t *testing.T, img *elfx.Image) (addrs, seeds []uint64) {
	t.Helper()
	var sec *ehframe.Section
	if eh, ok := img.Section(".eh_frame"); ok {
		if s, err := ehframe.Decode(eh.Bytes(), eh.Addr); err == nil {
			sec = s
			for _, f := range s.FDEs {
				seeds = append(seeds, f.PCBegin)
			}
		}
	}
	if img.IsExec(img.Entry) {
		seeds = append(seeds, img.Entry)
	}
	addrs = append(addrs, seeds...)
	res := disasm.NewSession(img, safeOpts).Extend(seeds)
	for _, in := range res.Insts {
		addrs = append(addrs, in.Addr, in.Addr+1)
	}
	for _, g := range disasm.Gaps(img, res) {
		for a := g.Start; a < g.End && a < g.Start+256; a++ {
			addrs = append(addrs, a)
		}
	}
	if sec != nil {
		sess := disasm.NewSession(img, safeOpts)
		tailcall.Run(tailcall.Input{
			Img: img, Sec: sec, Res: sess.Extend(seeds), Funcs: res.Funcs, Sess: sess,
			DataRefCount: func(a uint64) int { return xref.DataRefCount(img, a) },
			Obs: &tailcall.Observer{
				OnConv: func(a, _ uint64, _ bool) { addrs = append(addrs, a) },
				OnJump: func(_ uint64, j tailcall.JumpObs) { addrs = append(addrs, j.Target) },
			},
		})
	}
	maxLen := uint64(img.ISA().MaxInstLen())
	for _, s := range img.Sections {
		if s.Size() == 0 {
			continue
		}
		if !img.IsExec(s.Addr) {
			for k := uint64(0); k < 8; k++ {
				addrs = append(addrs, s.Addr+k*s.Size()/8)
			}
		}
		for k := uint64(0); k <= maxLen && k <= s.Size(); k++ {
			addrs = append(addrs, s.End()-k)
		}
	}
	return append(addrs, 0, 0x10, ^uint64(0)), seeds
}

// TestSessionCheckMatchesImageCheck pins the convention check's two
// instruction sources to each other: at every probed address the
// session-backed check returns the (ok, end) the image-backed one does,
// on a session that has not walked yet (its lookups decode), on the
// same session after it walked from the pipeline's seeds, and on a
// session that walked first, as the pipeline's has.
func TestSessionCheckMatchesImageCheck(t *testing.T) {
	for name, img := range cachedInputs(t) {
		addrs, seeds := probeAddrs(t, img)
		want := make([]verdict, len(addrs))
		rejected := 0
		for i, a := range addrs {
			ok, end := callconv.ValidateExtent(img, nil, a)
			want[i] = verdict{ok, end}
			if !ok {
				rejected++
			}
		}
		if rejected == 0 || rejected == len(addrs) {
			t.Fatalf("%s: %d of %d addresses rejected; the comparison covers one outcome only", name, rejected, len(addrs))
		}
		check := func(when string, sess *disasm.Session) {
			for i, a := range addrs {
				ok, end := callconv.ValidateExtent(img, sess, a)
				if got := (verdict{ok, end}); got != want[i] {
					t.Fatalf("%s %s %#x: session check = %+v; image check = %+v", name, when, a, got, want[i])
				}
			}
		}
		cold := disasm.NewSession(img, safeOpts)
		check("before the walk", cold)
		cold.Extend(seeds)
		check("after the walk", cold)
		warm := disasm.NewSession(img, safeOpts)
		warm.Extend(seeds)
		check("on a walked session", warm)
	}
}

// verdict is one convention check's outcome and extent.
type verdict struct {
	ok  bool
	end uint64
}

// FuzzConventionCached fuzzes the same equivalence on arbitrary code:
// the blob is one executable section of either ISA, and a handful of
// offsets derived from off, plus the section's last byte and its end,
// are checked on a fresh session, then again after the session walked
// from them.
func FuzzConventionCached(f *testing.F) {
	f.Add([]byte{0x55, 0x48, 0x89, 0xE5, 0x48, 0x89, 0xF8, 0x5D, 0xC3}, uint16(0), false)
	f.Add([]byte{0x48, 0x89, 0xD8, 0xC3, 0xFE, 0xD1, 0x0F, 0x0B}, uint16(1), false)
	f.Add([]byte{0xFD, 0x7B, 0xBF, 0xA9, 0xFD, 0x03, 0x00, 0x91, 0xC0, 0x03, 0x5F, 0xD6}, uint16(4), true)
	f.Fuzz(func(t *testing.T, code []byte, off uint16, onA64 bool) {
		if len(code) == 0 || len(code) > 1<<12 {
			return
		}
		const base = 0x401000
		img := &elfx.Image{Sections: []*elfx.Section{{
			Name: ".text", Addr: base, Data: code,
			Flags: elfx.FlagAlloc | elfx.FlagExec,
		}}}
		if onA64 {
			img.Machine = a64.EMachine
		}
		n := uint64(len(code))
		addrs := []uint64{base + n - 1, base + n}
		for i := uint64(0); i < 8; i++ {
			addrs = append(addrs, base+(uint64(off)+i*97)%n)
		}
		sess := disasm.NewSession(img, safeOpts)
		for _, when := range []string{"before the walk", "after the walk"} {
			for _, a := range addrs {
				ok, end := callconv.ValidateExtent(img, nil, a)
				if ok2, end2 := callconv.ValidateExtent(img, sess, a); ok2 != ok || end2 != end {
					t.Fatalf("%s %#x: session check = %v, %#x; image check = %v, %#x", when, a, ok2, end2, ok, end)
				}
			}
			sess.Extend(addrs)
		}
	})
}
