package baseline

import (
	"sort"

	"fetch/internal/arch"
	"fetch/internal/callconv"
	"fetch/internal/disasm"
	"fetch/internal/elfx"
)

// Tool identifies a Table III comparator.
type Tool uint8

// The tools compared in Table III, paper column order.
const (
	ToolDyninst Tool = iota + 1
	ToolBAP
	ToolRadare2
	ToolNucleus
	ToolIDA
	ToolNinja
	ToolGhidra
	ToolAngr
	ToolFETCH
)

// String names the tool as in the paper.
func (t Tool) String() string {
	switch t {
	case ToolDyninst:
		return "DYNINST"
	case ToolBAP:
		return "BAP"
	case ToolRadare2:
		return "RADARE2"
	case ToolNucleus:
		return "NUCLEUS"
	case ToolIDA:
		return "IDA PRO"
	case ToolNinja:
		return "BINARY NINJA"
	case ToolGhidra:
		return "GHIDRA"
	case ToolAngr:
		return "ANGR"
	case ToolFETCH:
		return "FETCH"
	}
	return "?"
}

// AllTools lists the Table III comparators in paper order.
var AllTools = []Tool{
	ToolDyninst, ToolBAP, ToolRadare2, ToolNucleus,
	ToolIDA, ToolNinja, ToolGhidra, ToolAngr, ToolFETCH,
}

// Run executes the tool's detection pipeline on a (stripped) image and
// returns its detected function-start set.
func Run(tool Tool, img *elfx.Image) (map[uint64]bool, error) {
	switch tool {
	case ToolDyninst:
		return hybridTool(img, hybridProfile{
			broadPrologues: true,
			validateDecode: false,
			validateConv:   false,
			noEndbr:        true,
		}), nil
	case ToolBAP:
		return byteweightTool(img), nil
	case ToolRadare2:
		return hybridTool(img, hybridProfile{
			broadPrologues: false,
			validateDecode: true,
			validateConv:   false,
			noTables:       true,
		}), nil
	case ToolNucleus:
		return nucleusTool(img), nil
	case ToolIDA:
		return hybridTool(img, hybridProfile{
			broadPrologues: true,
			validateDecode: true,
			validateConv:   true,
		}), nil
	case ToolNinja:
		return ninjaTool(img), nil
	case ToolGhidra:
		d, err := FDE(img)
		if err != nil {
			return nil, err
		}
		d = Rec(img, d)
		d = CFR(img, d)
		d = Thunk(img, d)
		d = Fsig(img, d, sigGhidraStrict)
		return d.Funcs, nil
	case ToolAngr:
		d, err := FDE(img)
		if err != nil {
			return nil, err
		}
		d = Rec(img, d)
		d = Fmerg(img, d)
		d = Align(img, d)
		d = Fsig(img, d, sigAngrLoose)
		return d.Funcs, nil
	case ToolFETCH:
		d, err := FDE(img)
		if err != nil {
			return nil, err
		}
		d = Rec(img, d)
		d = Xref(img, d)
		d = SafeTailCall(img, d)
		return d.Funcs, nil
	}
	return nil, nil
}

// hybridProfile tunes the conventional hybrid pipeline (§II-B): entry
// recursion, prologue matching over gaps, recursion from matches.
type hybridProfile struct {
	// broadPrologues also accepts push-of-callee-saved, enter, and
	// sub-rsp openings; otherwise only the canonical push rbp; mov
	// rbp, rsp (with optional endbr64) matches.
	broadPrologues bool
	// validateDecode requires a clean forward decode from a match.
	validateDecode bool
	// validateConv additionally requires the §IV-E convention check.
	validateConv bool
	// noTables disables jump-table resolution during recursion (the
	// tools without a bounded-table analysis miss case-block-only
	// call sites).
	noTables bool
	// noEndbr drops endbr64 from the pattern set (pre-CET tooling).
	noEndbr bool
}

// hybridTool implements the DYNINST/RADARE2/IDA-style pipeline without
// exception-handling information.
func hybridTool(img *elfx.Image, p hybridProfile) map[uint64]bool {
	funcs := map[uint64]bool{}
	seeds := []uint64{}
	if img.IsExec(img.Entry) {
		seeds = append(seeds, img.Entry)
		funcs[img.Entry] = true
	}
	opts := safeOpts()
	if p.noTables {
		opts.ResolveJumpTables = false
	}
	// One session across the match-recurse rounds: each round extends
	// with the newly matched starts instead of resweeping.
	sess := disasm.NewSession(img, opts)
	var res *disasm.Result
	newSeeds := seeds
	for iter := 0; iter < 8; iter++ {
		res = sess.Extend(newSeeds)
		for f := range res.Funcs {
			funcs[f] = true
		}
		var found []uint64
		for _, gap := range disasm.Gaps(img, res) {
			// Probe 8-byte-aligned offsets across the gap; the first
			// accepted match wins (the hybrids' scan granularity).
			for addr := (gap.Start + 7) &^ 7; addr < gap.End; addr += 8 {
				if funcs[addr] {
					continue
				}
				if !matchHybridPrologue(img, addr, p.broadPrologues, p.noEndbr) {
					continue
				}
				if p.validateDecode && !validateBySweep(img, addr, 8) {
					continue
				}
				if p.validateConv && !callconv.Validate(img, sess, addr) {
					continue
				}
				found = append(found, addr)
				break
			}
		}
		if len(found) == 0 {
			break
		}
		for _, a := range found {
			funcs[a] = true
		}
		newSeeds = found
	}
	return funcs
}

// matchHybridPrologue is the non-FDE tools' pattern set.
func matchHybridPrologue(img *elfx.Image, addr uint64, broad, noEndbr bool) bool {
	b, err := img.Bytes(addr, 8)
	if err != nil {
		return false
	}
	if !noEndbr && b[0] == 0xF3 && b[1] == 0x0F && b[2] == 0x1E && b[3] == 0xFA {
		return true // endbr64 is a strong entry marker
	}
	if b[0] == 0x55 && b[1] == 0x48 && b[2] == 0x89 && b[3] == 0xE5 {
		return true
	}
	if !broad {
		return false
	}
	if b[0]&0xF8 == 0x50 && b[0] != 0x54 { // push r64 (not rsp)
		return true
	}
	if b[0] == 0x41 && b[1]&0xF8 == 0x50 { // push r8-r15
		return true
	}
	if b[0] == 0x48 && b[1] == 0x83 && b[2] == 0xEC { // sub rsp, imm8
		return true
	}
	if b[0] == 0xC8 { // enter
		return true
	}
	return false
}

// byteweightTool approximates BAP/BYTEWEIGHT: learned byte signatures
// matched at every offset of the executable sections, with recursion
// from matches — the scan-everything behaviour behind its six-digit
// false-positive counts.
func byteweightTool(img *elfx.Image) map[uint64]bool {
	funcs := map[uint64]bool{}
	var seeds []uint64
	if img.IsExec(img.Entry) {
		seeds = append(seeds, img.Entry)
	}
	for _, sec := range img.ExecSections() {
		for addr := sec.Addr; addr+8 < sec.End(); addr++ {
			b, err := img.Bytes(addr, 4)
			if err != nil {
				continue
			}
			hit := false
			switch {
			case b[0] == 0x55 && b[1] == 0x48: // push rbp; REX...
				hit = true
			case b[0] == 0xF3 && b[1] == 0x0F && b[2] == 0x1E && b[3] == 0xFA:
				hit = true
			case b[0] == 0x48 && b[1] == 0x83 && b[2] == 0xEC:
				hit = true
			case b[0] == 0x41 && b[1] >= 0x54 && b[1] <= 0x57: // push r12-r15
				hit = true
			}
			if hit {
				seeds = append(seeds, addr)
			}
		}
	}
	res := disasm.Recursive(img, seeds, disasm.Options{ResolveJumpTables: true})
	for f := range res.Funcs {
		funcs[f] = true
	}
	for _, s := range seeds {
		funcs[s] = true
	}
	return funcs
}

// nucleusTool approximates NUCLEUS: linear sweep, intra-procedural
// grouping, function starts at call targets and group leaders. Its
// characteristic failure modes are preserved: inline data in .text
// desynchronizes the sweep and fall-through chains swallow functions
// after non-terminated regions; .rodata-resident jump tables are
// resolved but in-text tables are not, leaving their case blocks as
// spurious leaders.
func nucleusTool(img *elfx.Image) map[uint64]bool {
	funcs := map[uint64]bool{}
	if img.IsExec(img.Entry) {
		funcs[img.Entry] = true
	}
	for _, sec := range img.ExecSections() {
		insts := disasm.LinearSweep(img, sec.Addr, sec.End())
		incoming := map[uint64]bool{}
		callTargets := map[uint64]bool{}
		addrs := make([]uint64, 0, len(insts))
		for a := range insts {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			in := insts[a]
			if in.HasTarget {
				if in.Op == arch.OpCall {
					if img.IsExec(in.Target) {
						callTargets[in.Target] = true
					}
				} else if img.IsExec(in.Target) {
					incoming[in.Target] = true
				}
			}
			if m, ok := in.IndirectMem(); ok && in.Op == arch.OpJmpInd &&
				m.Base == arch.RegNone && m.Scale == 8 && m.Disp > 0 {
				// Table-resolution only looks at data sections; inline
				// tables in .text stay opaque.
				if s, ok2 := img.SectionAt(uint64(m.Disp)); ok2 && s.Flags&elfx.FlagExec == 0 {
					for k := 0; k < 64; k++ {
						entry, err := img.ReadU64(uint64(m.Disp) + uint64(8*k))
						if err != nil || !img.IsExec(entry) {
							break
						}
						incoming[entry] = true
					}
				}
			}
		}
		for t := range callTargets {
			funcs[t] = true
		}
		// Group leaders: instructions not reached by any intra edge
		// with no live fall-through chain arriving from above. NOP
		// padding decodes as code and is grouped with what follows, so
		// the reported start of a padded group is the padding start —
		// the off-by-padding error behind NUCLEUS's paired FP/FN
		// counts. Call targets split groups (they are known starts),
		// so functions reached by direct calls stay exact.
		alive := false
		var padStart uint64
		havePad := false
		for _, a := range addrs {
			in := insts[a]
			if in.Op == arch.OpNop {
				if !alive && !havePad {
					padStart = a
					havePad = true
				}
				continue
			}
			if in.Op == arch.OpInt3 {
				alive = false
				havePad = false
				continue
			}
			if callTargets[a] {
				havePad = false
			}
			if !alive && !incoming[a] && !callTargets[a] {
				if havePad {
					funcs[padStart] = true // off by the padding run
				} else {
					funcs[a] = true
				}
			}
			havePad = false
			alive = !in.Terminates()
		}
	}
	return funcs
}

// ninjaTool approximates BINARY NINJA: an aggressive hybrid — broad
// prologue matching without validation plus a linear scan that
// promotes prologue-looking gap pieces, iterated with recursion until
// the detection stabilizes. It has no bounded jump-table analysis, so
// case-block-only call sites stay invisible.
func ninjaTool(img *elfx.Image) map[uint64]bool {
	funcs := hybridTool(img, hybridProfile{broadPrologues: true, noTables: true})
	opts := safeOpts()
	opts.ResolveJumpTables = false
	// The seed list is rebuilt (sorted) each round, so Rerun rather
	// than Extend keeps the historical order with cached decoding.
	sess := disasm.NewSession(img, opts)
	for iter := 0; iter < 6; iter++ {
		seeds := make([]uint64, 0, len(funcs))
		for f := range funcs {
			seeds = append(seeds, f)
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		res := sess.Rerun(seeds)
		for f := range res.Funcs {
			funcs[f] = true
		}
		added := 0
		for _, gap := range disasm.Gaps(img, res) {
			if gap.Len() < 16 {
				continue
			}
			if disasm.IsPaddingRun(img, gap.Start, gap.End) {
				continue
			}
			// Skip leading padding, then promote the piece start when
			// it looks like an entry and decodes cleanly.
			addr := gap.Start
			for addr < gap.End {
				w, ok := img.BytesToSectionEnd(addr)
				if !ok {
					break
				}
				in, err := img.ISA().Decode(w, addr)
				if err != nil || !in.IsPadding() {
					break
				}
				addr = in.Next()
			}
			if addr < gap.End && !funcs[addr] &&
				matchHybridPrologue(img, addr, true, false) &&
				validateBySweep(img, addr, 4) {
				funcs[addr] = true
				added++
			}
		}
		if added == 0 {
			break
		}
	}
	return funcs
}
