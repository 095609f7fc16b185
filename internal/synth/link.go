package synth

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"fetch/internal/a64"
	"fetch/internal/arch"
	"fetch/internal/ehframe"
	"fetch/internal/elfx"
	"fetch/internal/groundtruth"
	"fetch/internal/x64"
)

// Section base addresses for synthesized binaries.
const (
	textBase    = 0x401000
	pieTextBase = 0x1000
	pageSize    = 0x1000
)

// secBuf accumulates one executable section during layout.
type secBuf struct {
	name string
	base uint64
	data []byte
}

// addr returns the virtual address of the next byte to be appended
// (equivalently: the first address past the section so far).
func (sb *secBuf) addr() uint64 { return sb.base + uint64(len(sb.data)) }

// Generate synthesizes one binary: machine code, data, .eh_frame,
// symbols, and the matching ground truth.
func Generate(cfg Config) (*elfx.Image, *groundtruth.Truth, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	isA64 := cfg.isA64()
	specs, err := buildSpecs(&cfg, rng)
	if err != nil {
		return nil, nil, err
	}

	// Emit code chunks. The per-ISA generators draw from the same rng
	// in the same spec order, but never share a stream across ISAs: the
	// x64 byte stream is pinned by golden-hash tests and must not move.
	emit := emitFunc
	if isA64 {
		emit = emitFuncA64
	}
	var hot, cold []*chunk
	for _, s := range specs {
		h, c, err := emit(s, rng)
		if err != nil {
			return nil, nil, err
		}
		hot = append(hot, h)
		if c != nil {
			cold = append(cold, c)
		}
	}

	// Data islands: prologue-looking byte blobs inside .text.
	var islands []*chunk
	for k := 0; k < cfg.DataIslandCount; k++ {
		island := makeIsland(rng)
		if isA64 {
			island = makeIslandA64(rng)
		}
		islands = append(islands, &chunk{
			name:   fmt.Sprintf(".island%d", k),
			code:   island,
			isData: true,
			align:  16,
		})
	}
	// Code islands: .text data that decodes as complete, convention-
	// respecting code. They sit 16-misaligned so strictly aligned
	// matchers (GHIDRA Fsig) skip them while looser hybrids bite.
	for k := 0; k < cfg.CodeIslandCount; k++ {
		var body []byte
		if isA64 {
			body, err = makeCodeIslandA64(rng)
		} else {
			body, err = makeCodeIsland(rng)
		}
		if err != nil {
			return nil, nil, err
		}
		islands = append(islands, &chunk{
			name:   fmt.Sprintf(".cisland%d", k),
			code:   body,
			isData: true,
			align:  8,
			mis16:  true,
		})
	}
	for _, island := range islands {
		// Insert at a random position among the hot chunks (after
		// the first three runtime functions).
		pos := 3 + rng.Intn(len(hot)-3)
		hot = append(hot[:pos], append([]*chunk{island}, hot[pos:]...)...)
	}

	// --- Layout executable sections ---
	// Hot chunks go to .text; cold parts follow in the same section or,
	// with SplitText, in .text.unlikely one page past it. In-text jump
	// tables land after the cold parts, wherever those live.
	base := uint64(textBase)
	if cfg.PIE {
		base = pieTextBase
	}
	hotSec := &secBuf{name: ".text", base: base}
	fill := byte(0x90)
	if cfg.ZeroPadGaps {
		fill = 0x00
	}
	pad := func(sb *secBuf, align int) {
		if isA64 {
			// A64 gaps are whole words: nop or brk #0 filler, or the
			// all-zero udf word under ZeroPadGaps (the shape that traps
			// linear sweeps into the permanently-undefined space).
			for sb.addr()%uint64(align) != 0 {
				if cfg.ZeroPadGaps {
					sb.data = append(sb.data, 0x00, 0x00, 0x00, 0x00)
				} else if rng.Intn(10) < 7 {
					sb.data = append(sb.data, 0x1F, 0x20, 0x03, 0xD5) // nop
				} else {
					sb.data = append(sb.data, 0x00, 0x00, 0x20, 0xD4) // brk #0
				}
			}
			return
		}
		for sb.addr()%uint64(align) != 0 {
			if cfg.ZeroPadGaps {
				sb.data = append(sb.data, 0x00)
			} else if rng.Intn(10) < 7 {
				sb.data = append(sb.data, 0x90) // nop
			} else {
				sb.data = append(sb.data, 0xCC) // int3
			}
		}
	}
	place := func(sb *secBuf, ch *chunk) {
		align := ch.align
		if align == 0 {
			align = 16
		}
		pad(sb, align)
		if ch.mis16 && sb.addr()%16 == 0 {
			if isA64 {
				// Two deterministic filler words keep the misalignment
				// offset (8) identical across ISAs.
				if cfg.ZeroPadGaps {
					sb.data = append(sb.data, 0, 0, 0, 0, 0, 0, 0, 0)
				} else {
					sb.data = append(sb.data,
						0x1F, 0x20, 0x03, 0xD5, 0x1F, 0x20, 0x03, 0xD5)
				}
			} else {
				for k := 0; k < 8; k++ {
					sb.data = append(sb.data, fill)
				}
			}
		}
		ch.addr = sb.addr()
		ch.sec = sb
		ch.off = len(sb.data)
		sb.data = append(sb.data, ch.code...)
	}
	var textTables []*chunk
	layout := append(append([]*chunk(nil), hot...), cold...)
	coldSec := hotSec
	if cfg.SplitText {
		for _, ch := range hot {
			place(hotSec, ch)
		}
		pad(hotSec, 16)
		coldSec = &secBuf{name: ".text.unlikely", base: alignUp(hotSec.addr(), pageSize)}
		for _, ch := range cold {
			place(coldSec, ch)
		}
		pad(coldSec, 16)
	} else {
		for _, ch := range layout {
			place(hotSec, ch)
		}
		pad(hotSec, 16)
	}

	// --- Symbol resolution table ---
	symAddr := make(map[string]uint64)
	for _, ch := range layout {
		symAddr[ch.name] = ch.addr + uint64(ch.symOff)
		for name, off := range ch.exports {
			symAddr[name] = ch.addr + uint64(off)
		}
	}

	// --- .rodata: jump tables + misc constants ---
	// Jump tables: most live in .rodata; a fraction is placed inside
	// .text (the inline data that desynchronizes linear sweeps).
	type tableRef struct {
		sym   string
		off   int
		cases []string
		pic   bool
	}
	var tables []tableRef // .rodata tables, patched below
	var rodata []byte
	for _, s := range specs {
		if s.jumpTable == 0 {
			continue
		}
		var cases []string
		for k := 0; k < s.jumpTable; k++ {
			cases = append(cases, fmt.Sprintf("%s.c%d", s.name, k))
		}
		if s.picTable {
			// PIC tables always live in .rodata with int32 entries.
			for len(rodata)%4 != 0 {
				rodata = append(rodata, 0)
			}
			tables = append(tables, tableRef{sym: s.name + ".tbl", off: len(rodata), cases: cases, pic: true})
			rodata = append(rodata, make([]byte, 4*s.jumpTable)...)
			continue
		}
		if rng.Float64() < cfg.TextJumpTableRate {
			tbl := &chunk{
				name:   s.name + ".tbl",
				code:   make([]byte, 8*s.jumpTable),
				isData: true,
				align:  8,
			}
			for k, cs := range cases {
				tbl.fixups = append(tbl.fixups, x64.Fixup{
					Kind: x64.FixAbs64, Off: 8 * k, Sym: cs,
				})
			}
			place(coldSec, tbl)
			symAddr[tbl.name] = tbl.addr
			textTables = append(textTables, tbl)
			layout = append(layout, tbl)
			continue
		}
		for len(rodata)%8 != 0 {
			rodata = append(rodata, 0)
		}
		tables = append(tables, tableRef{sym: s.name + ".tbl", off: len(rodata), cases: cases})
		rodata = append(rodata, make([]byte, 8*s.jumpTable)...)
	}
	roBase := alignUp(coldSec.addr(), pageSize)
	for _, t := range tables {
		symAddr[t.sym] = roBase + uint64(t.off)
	}
	// Misc rodata: strings, integers, and a few mid-function addresses
	// that look like pointers but must be rejected by §IV-E validation.
	rodata = append(rodata, []byte("synthetic corpus \x00version 1\x00")...)
	for len(rodata)%8 != 0 {
		rodata = append(rodata, 0)
	}
	var midPtrOffs []int
	for k := 0; k < 4; k++ {
		midPtrOffs = append(midPtrOffs, len(rodata))
		rodata = append(rodata, make([]byte, 8)...)
	}
	for k := 0; k < 8; k++ {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], uint64(rng.Intn(1<<30)))
		rodata = append(rodata, tmp[:]...)
	}

	// --- .data: function-pointer slots ---
	dataBase := alignUp(roBase+uint64(len(rodata)), pageSize)
	var data []byte
	type slotRef struct {
		off int
		sym string
	}
	var slots []slotRef
	for _, s := range specs {
		if s.dataPtrSlot {
			slots = append(slots, slotRef{off: len(data), sym: s.name})
			data = append(data, make([]byte, 8)...)
		}
	}
	// Some pointer-looking noise.
	for k := 0; k < 6; k++ {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], uint64(rng.Int63n(1<<40)))
		data = append(data, tmp[:]...)
	}
	if len(data) == 0 {
		data = make([]byte, 16)
	}

	// --- Patch fixups ---
	// Patching happens only after every chunk is placed: placement
	// appends to the section buffers, so slices taken earlier would go
	// stale; ch.sec/ch.off index the final buffers instead.
	patch := func(ch *chunk) error {
		for _, f := range ch.fixups {
			target, ok := symAddr[f.Sym]
			if !ok {
				return fmt.Errorf("synth: undefined symbol %q in %s", f.Sym, ch.name)
			}
			target += uint64(f.Addend)
			at := ch.off + f.Off
			// The aarch64 kinds patch bit fields of the little-endian
			// instruction word at the fixup site; site-relative deltas
			// are measured from the instruction address itself (A64 has
			// no end-of-instruction bias).
			site := ch.addr + uint64(f.Off)
			switch f.Kind {
			case x64.FixRel32:
				rel := int64(target) - int64(ch.addr+uint64(f.End))
				binary.LittleEndian.PutUint32(ch.sec.data[at:], uint32(int32(rel)))
			case x64.FixAbs32:
				binary.LittleEndian.PutUint32(ch.sec.data[at:], uint32(target))
			case x64.FixAbs64:
				binary.LittleEndian.PutUint64(ch.sec.data[at:], target)
			case arch.FixA64Branch26, arch.FixA64Cond19:
				delta := int64(target) - int64(site)
				if delta%4 != 0 {
					return fmt.Errorf("synth: %s: misaligned branch to %q", ch.name, f.Sym)
				}
				rel := delta / 4
				w := binary.LittleEndian.Uint32(ch.sec.data[at:])
				if f.Kind == arch.FixA64Branch26 {
					if rel < -(1<<25) || rel >= 1<<25 {
						return fmt.Errorf("synth: %s: %q out of branch26 range", ch.name, f.Sym)
					}
					w |= uint32(rel) & 0x03FFFFFF
				} else {
					if rel < -(1<<18) || rel >= 1<<18 {
						return fmt.Errorf("synth: %s: %q out of cond19 range", ch.name, f.Sym)
					}
					w |= (uint32(rel) & 0x7FFFF) << 5
				}
				binary.LittleEndian.PutUint32(ch.sec.data[at:], w)
			case arch.FixA64Page21:
				pages := (int64(target)&^0xFFF - int64(site)&^0xFFF) >> 12
				if pages < -(1<<20) || pages >= 1<<20 {
					return fmt.Errorf("synth: %s: %q out of adrp range", ch.name, f.Sym)
				}
				w := binary.LittleEndian.Uint32(ch.sec.data[at:])
				w |= (uint32(pages) & 0x3) << 29
				w |= (uint32(pages>>2) & 0x7FFFF) << 5
				binary.LittleEndian.PutUint32(ch.sec.data[at:], w)
			case arch.FixA64Lo12:
				w := binary.LittleEndian.Uint32(ch.sec.data[at:])
				w |= (uint32(target) & 0xFFF) << 10
				binary.LittleEndian.PutUint32(ch.sec.data[at:], w)
			case arch.FixA64Adr21:
				delta := int64(target) - int64(site)
				if delta < -(1<<20) || delta >= 1<<20 {
					return fmt.Errorf("synth: %s: %q out of adr range", ch.name, f.Sym)
				}
				w := binary.LittleEndian.Uint32(ch.sec.data[at:])
				w |= (uint32(delta) & 0x3) << 29
				w |= (uint32(delta>>2) & 0x7FFFF) << 5
				binary.LittleEndian.PutUint32(ch.sec.data[at:], w)
			}
		}
		return nil
	}
	for _, ch := range layout {
		if err := patch(ch); err != nil {
			return nil, nil, err
		}
	}
	for _, t := range tables {
		tblAddr := symAddr[t.sym]
		for k, caseSym := range t.cases {
			addr, ok := symAddr[caseSym]
			if !ok {
				return nil, nil, fmt.Errorf("synth: undefined case label %q", caseSym)
			}
			if t.pic {
				binary.LittleEndian.PutUint32(rodata[t.off+4*k:], uint32(int32(int64(addr)-int64(tblAddr))))
			} else {
				binary.LittleEndian.PutUint64(rodata[t.off+8*k:], addr)
			}
		}
	}
	for k, off := range midPtrOffs {
		// Point into the middle of some function body.
		ch := hot[(k*7+5)%len(hot)]
		if ch.isData {
			ch = hot[0]
		}
		binary.LittleEndian.PutUint64(rodata[off:], ch.addr+uint64(len(ch.code))/2)
	}
	for _, s := range slots {
		addr, ok := symAddr[s.sym]
		if !ok {
			return nil, nil, fmt.Errorf("synth: undefined pointer target %q", s.sym)
		}
		binary.LittleEndian.PutUint64(data[s.off:], addr)
	}

	// --- .eh_frame ---
	ehBase := alignUp(dataBase+uint64(len(data)), pageSize)
	sec := &ehframe.Section{Addr: ehBase}
	// Group FDEs under a handful of CIEs, mimicking per-object CIEs.
	var cies []*ehframe.CIE
	cieFor := func(i int) *ehframe.CIE {
		want := i / 24
		for len(cies) <= want {
			c := ehframe.NewDefaultCIE()
			if isA64 {
				c = ehframe.NewDefaultCIEA64()
			}
			if cfg.AbsPtrFDEs {
				c.FDEEnc = ehframe.PEAbsptr
			}
			cies = append(cies, c)
		}
		return cies[want]
	}
	fdeIdx := 0
	var overlapAddrs []uint64
	for _, ch := range layout {
		if !ch.hasFDE || ch.isData {
			continue
		}
		pcRange := uint64(len(ch.code))
		if ch.spec != nil && ch.spec.truncFDE && !ch.isPart {
			// Truncated CFI coverage: the range stops halfway through
			// the body; PC Begin stays exact.
			if half := pcRange / 2; half > 0 {
				pcRange = half
			}
		}
		fde, err := ehframe.NewFDE(cieFor(fdeIdx), ch.addr, pcRange, convertCFI(ch.cfi))
		if err != nil {
			return nil, nil, err
		}
		sec.FDEs = append(sec.FDEs, fde)
		fdeIdx++
	}
	// Overlapping bogus FDEs: an extra program-less FDE starting at the
	// host's .mid offset, covering the tail the host's own FDE already
	// covers. Its PC Begin is a real instruction boundary but not a
	// true function start.
	for _, ch := range layout {
		if ch.spec == nil || !ch.spec.overlapFDE || ch.isPart || ch.isData {
			continue
		}
		mid, ok := ch.exports[ch.spec.name+".mid"]
		if !ok || mid >= len(ch.code) {
			continue
		}
		sec.FDEs = append(sec.FDEs, &ehframe.FDE{
			CIE:     cieFor(fdeIdx),
			PCBegin: ch.addr + uint64(mid),
			PCRange: uint64(len(ch.code) - mid),
		})
		fdeIdx++
		overlapAddrs = append(overlapAddrs, ch.addr+uint64(mid))
	}
	sort.Slice(sec.FDEs, func(i, j int) bool { return sec.FDEs[i].PCBegin < sec.FDEs[j].PCBegin })
	ehBytes, err := sec.Encode()
	if err != nil {
		return nil, nil, err
	}

	// --- Image assembly ---
	im := &elfx.Image{
		Name:  cfg.Name,
		Entry: symAddr["main"],
		PIE:   cfg.PIE,
	}
	if isA64 {
		im.Machine = a64.EMachine
	}
	im.Sections = append(im.Sections,
		&elfx.Section{Name: hotSec.name, Addr: hotSec.base, Data: hotSec.data, Flags: elfx.FlagAlloc | elfx.FlagExec})
	if coldSec != hotSec && len(coldSec.data) > 0 {
		im.Sections = append(im.Sections,
			&elfx.Section{Name: coldSec.name, Addr: coldSec.base, Data: coldSec.data, Flags: elfx.FlagAlloc | elfx.FlagExec})
	}
	im.Sections = append(im.Sections,
		&elfx.Section{Name: ".rodata", Addr: roBase, Data: rodata, Flags: elfx.FlagAlloc},
		&elfx.Section{Name: ".data", Addr: dataBase, Data: data, Flags: elfx.FlagAlloc | elfx.FlagWrite},
		&elfx.Section{Name: ".eh_frame", Addr: ehBase, Data: ehBytes, Flags: elfx.FlagAlloc},
	)
	for _, ch := range layout {
		if !ch.hasSym || ch.isData {
			continue
		}
		im.Symbols = append(im.Symbols, elfx.Symbol{
			Name: ch.name,
			Addr: ch.addr + uint64(ch.symOff),
			Size: uint64(len(ch.code) - ch.symOff),
			Func: true,
		})
	}

	// --- Ground truth ---
	truth := &groundtruth.Truth{}
	chunkByName := make(map[string]*chunk, len(layout))
	for _, ch := range layout {
		chunkByName[ch.name] = ch
	}
	for _, s := range specs {
		ch := chunkByName[s.name]
		gt := groundtruth.Func{
			Name:   s.name,
			Addr:   ch.addr + uint64(ch.symOff),
			Size:   uint64(len(ch.code) - ch.symOff),
			Class:  gtClass(s.class),
			Reach:  s.reach,
			HasFDE: s.hasFDE,
			NonRet: s.nonRet,
		}
		if s.tailCall != "" {
			gt.TailTargets = append(gt.TailTargets, symAddr[s.tailCall])
		}
		truth.Funcs = append(truth.Funcs, gt)
		if s.class == clsCFIErr {
			truth.CFIErrorAddrs = append(truth.CFIErrorAddrs, ch.addr)
		}
	}
	truth.OverlapFDEAddrs = overlapAddrs
	for _, ch := range layout {
		if !ch.isPart {
			continue
		}
		parent := chunkByName[ch.parent]
		truth.Parts = append(truth.Parts, groundtruth.Part{
			Name:          ch.name,
			Addr:          ch.addr,
			Size:          uint64(len(ch.code)),
			Parent:        parent.addr + uint64(parent.symOff),
			IncompleteCFI: ch.spec.frame == frameRBP,
		})
	}
	if err := perturb(im, truth, &cfg); err != nil {
		return nil, nil, err
	}
	return im, truth, nil
}

// gtClass maps generator classes onto ground-truth classes.
func gtClass(c funcClass) groundtruth.Class {
	switch c {
	case clsAsm, clsTailAsm, clsIndirAsm, clsUnreach:
		return groundtruth.ClassAsm
	case clsClangTerm:
		return groundtruth.ClassClangTerminate
	}
	return groundtruth.ClassNormal
}

// convertCFI turns offset-tagged CFI events into an FDE program with
// advance_loc instructions between state changes.
func convertCFI(events []cfiAt) []ehframe.CFI {
	var prog []ehframe.CFI
	prev := 0
	for _, e := range events {
		if e.off > prev {
			prog = append(prog, ehframe.CFI{
				Op:    ehframe.CFAAdvanceLoc,
				Delta: uint64(e.off - prev),
			})
			prev = e.off
		}
		prog = append(prog, e.in)
	}
	return prog
}

// makeIsland produces a data blob that begins like a canonical GCC
// prologue and continues with pointer-free noise — the bait for
// signature matchers and linear scans.
func makeIsland(rng *rand.Rand) []byte {
	out := []byte{0x55, 0x48, 0x89, 0xE5} // push rbp; mov rbp,rsp
	n := 16 + rng.Intn(32)
	for k := 0; k < n; k++ {
		out = append(out, byte(rng.Intn(256)))
	}
	return out
}

// makeCodeIsland produces .text data that decodes as a complete,
// convention-respecting function body — indistinguishable from code to
// any pattern matcher, yet never referenced and absent from the ground
// truth (a stale literal copy, in effect).
func makeCodeIsland(rng *rand.Rand) ([]byte, error) {
	var a x64.Asm
	a.PushReg(x64.RBP)
	a.MovRegReg(x64.RBP, x64.RSP)
	a.SubRSP(16 + int32(rng.Intn(3))*16)
	a.MovRegReg(x64.RAX, x64.RDI)
	for k := 0; k < 2+rng.Intn(3); k++ {
		a.AddRegImm(x64.RAX, int32(rng.Intn(64)+1))
	}
	a.MovRegReg(x64.RSP, x64.RBP)
	a.PopReg(x64.RBP)
	a.Ret()
	code, fixups, err := a.Finish()
	if err != nil || len(fixups) != 0 {
		return nil, fmt.Errorf("synth: code island: %v", err)
	}
	return code, nil
}

func alignUp(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }
