package ehframe

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Pointer encodings (DW_EH_PE_*) supported by the codec; GCC and Clang
// emit pcrel|sdata4 for FDE pointers in x64 executables.
const (
	PEAbsptr      = 0x00
	PESData4      = 0x0B
	PEPCRel       = 0x10
	PEPCRelSData4 = PEPCRel | PESData4 // 0x1B
	PEOmit        = 0xFF
)

// CIE is a Common Information Entry: shared prologue state for a group
// of FDEs, typically one per object file.
type CIE struct {
	CodeAlign  uint64
	DataAlign  int64
	RetAddrReg uint64
	FDEEnc     byte  // pointer encoding for PC Begin in owned FDEs
	Initial    []CFI // initial instructions (usually def_cfa rsp,8; offset ra,8)
}

// NewDefaultCIE returns the CIE GCC emits for x64: code align 1, data
// align -8, RA register 16, pcrel|sdata4 FDE pointers, and the standard
// initial program defining CFA = rsp+8 with the return address at CFA-8.
func NewDefaultCIE() *CIE {
	return &CIE{
		CodeAlign:  1,
		DataAlign:  -8,
		RetAddrReg: DwRA,
		FDEEnc:     PEPCRelSData4,
		Initial: []CFI{
			{Op: CFADefCFA, Reg: DwRSP, Offset: 8},
			{Op: CFAOffset, Reg: DwRA, Offset: 8},
		},
	}
}

// NewDefaultCIEA64 returns the CIE GCC emits for aarch64: code align
// 4 (there is no shorter instruction), data align -8, RA column 30
// (the link register), pcrel|sdata4 FDE pointers, and the standard
// initial program defining CFA = sp+0 — nothing is pushed by a call,
// so the entry height bias is zero.
func NewDefaultCIEA64() *CIE {
	return &CIE{
		CodeAlign:  4,
		DataAlign:  -8,
		RetAddrReg: DwA64RA,
		FDEEnc:     PEPCRelSData4,
		Initial: []CFI{
			{Op: CFADefCFA, Reg: DwA64SP, Offset: 0},
		},
	}
}

// FDE is a Frame Description Entry covering one contiguous code range.
// Its CFI program is kept encoded, as the section holds it: Decode
// validates each program and keeps its bytes, and NewFDE encodes the
// program it is given. Read a program through CFIs.
type FDE struct {
	CIE     *CIE
	PCBegin uint64
	PCRange uint64
	// program is the encoded CFI program, under CIE's alignment
	// factors.
	program []byte
}

// NewFDE returns the FDE over [pcBegin, pcBegin+pcRange) described by
// cie and the CFI program prog, which it encodes under cie's alignment
// factors.
func NewFDE(cie *CIE, pcBegin, pcRange uint64, prog []CFI) (*FDE, error) {
	b, err := encodeCFIs(prog, cie.CodeAlign, cie.DataAlign)
	if err != nil {
		return nil, err
	}
	return &FDE{CIE: cie, PCBegin: pcBegin, PCRange: pcRange, program: b}, nil
}

// CFIs decodes the FDE's CFI program.
func (f *FDE) CFIs() []CFI {
	prog, _ := decodeCFIs(f.program, f.CIE.CodeAlign, f.CIE.DataAlign) // Decode validated it, or NewFDE encoded it
	return prog
}

// eachCFI passes the FDE's CFI program to fn in order, decoding it as
// it goes rather than materializing it.
func (f *FDE) eachCFI(fn func(CFI)) {
	_ = walkCFIs(f.program, f.CIE.CodeAlign, f.CIE.DataAlign, fn) // Decode validated it, or NewFDE encoded it
}

// End returns the first address past the FDE's range.
func (f *FDE) End() uint64 { return f.PCBegin + f.PCRange }

// Covers reports whether addr falls inside the FDE's range.
func (f *FDE) Covers(addr uint64) bool { return addr >= f.PCBegin && addr < f.End() }

// DecodeStats counts what Decode saw beyond the entries it returned.
// Real toolchains emit encodings the synthetic lane never produces —
// 64-bit DWARF initial lengths, vendor CFI opcodes, exotic pointer
// encodings — and an analysis over real binaries needs to know how
// much of the section it actually understood.
type DecodeStats struct {
	// Entries counts every non-terminator entry encountered (CIEs and
	// FDEs, decoded or skipped).
	Entries int
	// DWARF64 counts entries framed with the 64-bit DWARF initial
	// length (0xffffffff escape + 8-byte length). They are parsed like
	// 32-bit entries; the counter records that the path was exercised.
	DWARF64 int
	// SkippedCIEs counts CIEs dropped because they use a feature the
	// codec does not support (unknown CFI opcode, unsupported
	// version). Structurally malformed entries are still hard errors.
	SkippedCIEs int
	// SkippedFDEs counts FDEs dropped for the same reason, including
	// FDEs whose owning CIE was itself skipped.
	SkippedFDEs int
}

// Skipped reports whether any entry was dropped as unsupported.
func (d DecodeStats) Skipped() bool { return d.SkippedCIEs+d.SkippedFDEs > 0 }

// Section is a decoded (or to-be-encoded) .eh_frame section.
type Section struct {
	// Addr is the virtual address where the section is (or will be)
	// mapped; pcrel pointer encodings are computed against it.
	Addr uint64
	CIEs []*CIE
	FDEs []*FDE
	// Stats describes what Decode understood; zero for sections built
	// programmatically.
	Stats DecodeStats
}

// FunctionStarts returns the sorted-by-position list of PC Begin values,
// the raw material of FDE-based function start detection. No
// deduplication or correction is applied here.
func (s *Section) FunctionStarts() []uint64 {
	out := make([]uint64, 0, len(s.FDEs))
	for _, f := range s.FDEs {
		out = append(out, f.PCBegin)
	}
	return out
}

// FDEAt returns the FDE whose range covers addr, if any.
func (s *Section) FDEAt(addr uint64) (*FDE, bool) {
	for _, f := range s.FDEs {
		if f.Covers(addr) {
			return f, true
		}
	}
	return nil, false
}

// FDEStartingAt returns the FDE whose PCBegin equals addr, if any.
func (s *Section) FDEStartingAt(addr uint64) (*FDE, bool) {
	for _, f := range s.FDEs {
		if f.PCBegin == addr {
			return f, true
		}
	}
	return nil, false
}

// Encode serializes the section. Each distinct CIE is emitted once,
// immediately before its first FDE; the section ends with a zero
// terminator as in real binaries.
func (s *Section) Encode() ([]byte, error) {
	var out []byte
	ciePos := make(map[*CIE]int)

	emitU32 := func(v uint32) {
		var tmp [4]byte
		binary.LittleEndian.PutUint32(tmp[:], v)
		out = append(out, tmp[:]...)
	}

	encodeCIE := func(c *CIE) error {
		start := len(out)
		ciePos[c] = start
		emitU32(0)           // length placeholder
		emitU32(0)           // CIE id
		out = append(out, 1) // version
		out = append(out, 'z', 'R', 0)
		out = appendULEB(out, c.CodeAlign)
		out = appendSLEB(out, c.DataAlign)
		out = append(out, byte(c.RetAddrReg)) // version-1 ubyte form
		out = appendULEB(out, 1)              // augmentation data length
		out = append(out, c.FDEEnc)
		prog, err := encodeCFIs(c.Initial, c.CodeAlign, c.DataAlign)
		if err != nil {
			return err
		}
		out = append(out, prog...)
		for (len(out)-start)%8 != 0 { // pad with nops to 8 alignment
			out = append(out, rawNop)
		}
		binary.LittleEndian.PutUint32(out[start:], uint32(len(out)-start-4))
		return nil
	}

	for _, f := range s.FDEs {
		if f.CIE == nil {
			return nil, fmt.Errorf("ehframe: FDE at %#x has no CIE", f.PCBegin)
		}
		if _, seen := ciePos[f.CIE]; !seen {
			if err := encodeCIE(f.CIE); err != nil {
				return nil, err
			}
		}
		start := len(out)
		emitU32(0)                                 // length placeholder
		emitU32(uint32(start + 4 - ciePos[f.CIE])) // CIE pointer: back-distance
		switch f.CIE.FDEEnc {
		case PEPCRelSData4:
			fieldAddr := s.Addr + uint64(len(out))
			emitU32(uint32(int32(int64(f.PCBegin) - int64(fieldAddr))))
			emitU32(uint32(f.PCRange))
		case PEAbsptr:
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], f.PCBegin)
			out = append(out, tmp[:]...)
			binary.LittleEndian.PutUint64(tmp[:], f.PCRange)
			out = append(out, tmp[:]...)
		default:
			return nil, fmt.Errorf("ehframe: unsupported FDE encoding %#x", f.CIE.FDEEnc)
		}
		out = appendULEB(out, 0) // augmentation data length
		out = append(out, f.program...)
		for (len(out)-start)%8 != 0 {
			out = append(out, rawNop)
		}
		binary.LittleEndian.PutUint32(out[start:], uint32(len(out)-start-4))
	}
	emitU32(0) // terminator
	return out, nil
}

// Decode parses a .eh_frame section mapped at addr.
//
// Structural damage — lengths that overrun the section, truncated
// bodies, FDEs pointing at byte offsets where no CIE starts — is a
// hard error: the framing itself cannot be trusted past it. An entry
// that is well-framed but uses a feature the codec does not support
// (an unknown CFI opcode, an exotic pointer encoding, an unsupported
// CIE version) is skipped instead, with the drop recorded in
// Section.Stats, so one vendor extension in one object file no longer
// aborts the analysis of a whole real binary.
func Decode(data []byte, addr uint64) (*Section, error) {
	// The FDEs keep their programs as bytes of this copy: the caller's
	// buffer may be a window of a file that closes with its image.
	data = bytes.Clone(data)
	s := &Section{Addr: addr}
	// cies maps entry offset to the decoded CIE; a nil value marks a
	// CIE that was skipped as unsupported, so its FDEs skip too rather
	// than failing as orphans.
	cies := make(map[int]*CIE)
	i := 0
	for i+4 <= len(data) {
		length := uint64(binary.LittleEndian.Uint32(data[i:]))
		if length == 0 {
			break // terminator
		}
		start := i
		i += 4
		idSize := 4 // bytes of the CIE-id/pointer field
		dwarf64 := false
		if length == 0xFFFFFFFF {
			// 64-bit DWARF initial length: the real length follows as
			// a uint64, and the id field widens to 8 bytes.
			if i+8 > len(data) {
				return nil, fmt.Errorf("ehframe: entry at %#x: 64-bit length field: %w", start, ErrTruncated)
			}
			length = binary.LittleEndian.Uint64(data[i:])
			i += 8
			idSize = 8
			dwarf64 = true
		}
		if length < uint64(idSize) {
			// The body must at least hold the CIE-id/pointer field.
			return nil, fmt.Errorf("ehframe: entry at %#x has length %d: %w", start, length, ErrTruncated)
		}
		if length > uint64(len(data)-i) {
			return nil, ErrTruncated
		}
		body := data[i : i+int(length)]
		i += int(length)
		s.Stats.Entries++
		if dwarf64 {
			s.Stats.DWARF64++
		}

		var id uint64
		if idSize == 8 {
			id = binary.LittleEndian.Uint64(body)
		} else {
			id = uint64(binary.LittleEndian.Uint32(body))
		}
		if id == 0 {
			cie, err := decodeCIE(body[idSize:])
			switch {
			case errors.Is(err, ErrUnsupported):
				cies[start] = nil
				s.Stats.SkippedCIEs++
				continue
			case err != nil:
				return nil, fmt.Errorf("ehframe: CIE at %#x: %w", start, err)
			}
			cies[start] = cie
			s.CIEs = append(s.CIEs, cie)
			continue
		}
		// FDE: id is the back-distance from the id field to the CIE.
		ciePtr := start + (i - start - len(body)) - int(id)
		cie, ok := cies[ciePtr]
		if !ok {
			return nil, fmt.Errorf("ehframe: FDE at %#x references unknown CIE %#x", start, ciePtr)
		}
		if cie == nil {
			// The owning CIE was skipped as unsupported; the FDE's
			// pointer encoding and program are uninterpretable.
			s.Stats.SkippedFDEs++
			continue
		}
		pcFieldAddr := addr + uint64(i-len(body)) + uint64(idSize)
		fde, err := decodeFDE(body[idSize:], cie, pcFieldAddr)
		switch {
		case errors.Is(err, ErrUnsupported):
			s.Stats.SkippedFDEs++
			continue
		case err != nil:
			return nil, fmt.Errorf("ehframe: FDE at %#x: %w", start, err)
		}
		s.FDEs = append(s.FDEs, fde)
	}
	return s, nil
}

func decodeCIE(b []byte) (*CIE, error) {
	if len(b) < 1 {
		return nil, ErrTruncated
	}
	version := b[0]
	if version != 1 && version != 3 {
		return nil, fmt.Errorf("%w: CIE version %d", ErrUnsupported, version)
	}
	i := 1
	augStart := i
	for i < len(b) && b[i] != 0 {
		i++
	}
	if i >= len(b) {
		return nil, ErrTruncated
	}
	aug := string(b[augStart:i])
	i++
	c := &CIE{FDEEnc: PEAbsptr}
	var n int
	var err error
	c.CodeAlign, n, err = readULEB(b[i:])
	if err != nil {
		return nil, err
	}
	i += n
	c.DataAlign, n, err = readSLEB(b[i:])
	if err != nil {
		return nil, err
	}
	i += n
	if version == 1 {
		if i >= len(b) {
			return nil, ErrTruncated
		}
		c.RetAddrReg = uint64(b[i])
		i++
	} else {
		c.RetAddrReg, n, err = readULEB(b[i:])
		if err != nil {
			return nil, err
		}
		i += n
	}
	if len(aug) > 0 && aug[0] == 'z' {
		augLen, n, err := readULEB(b[i:])
		if err != nil {
			return nil, err
		}
		i += n
		if augLen > uint64(len(b)-i) {
			return nil, ErrTruncated
		}
		augData := b[i : i+int(augLen)]
		i += int(augLen)
		k := 0
		for _, ch := range aug[1:] {
			switch ch {
			case 'R':
				if k < len(augData) {
					c.FDEEnc = augData[k]
					k++
				}
			case 'P': // personality: encoding byte + pointer (skip)
				if k < len(augData) {
					enc := augData[k]
					k++
					k += pointerSize(enc)
				}
			case 'L':
				k++
			}
		}
	}
	c.Initial, err = decodeCFIs(b[i:], c.CodeAlign, c.DataAlign)
	if err != nil {
		return nil, err
	}
	return c, nil
}

func pointerSize(enc byte) int {
	switch enc & 0x0F {
	case 0x00: // absptr
		return 8
	case 0x02, 0x0A: // udata2/sdata2
		return 2
	case 0x03, 0x0B:
		return 4
	case 0x04, 0x0C:
		return 8
	}
	return 8
}

// peFormatSize returns the byte width of a fixed-size DW_EH_PE format
// nibble, or 0 when the format is variable-length or unknown.
func peFormatSize(enc byte) int {
	switch enc & 0x0F {
	case 0x00, 0x04, 0x0C: // absptr, udata8, sdata8
		return 8
	case 0x02, 0x0A: // udata2, sdata2
		return 2
	case 0x03, 0x0B: // udata4, sdata4
		return 4
	}
	return 0
}

// peSigned reports whether the format nibble is sign-extended.
func peSigned(enc byte) bool {
	switch enc & 0x0F {
	case 0x09, 0x0A, 0x0B, 0x0C: // sleb128, sdata2, sdata4, sdata8
		return true
	}
	return false
}

// readEncodedPC reads one DW_EH_PE-encoded code pointer. fieldAddr is
// the virtual address of the field, for pcrel application. Indirect,
// datarel, and aligned applications are not resolvable from the
// section alone and come back ErrUnsupported.
func readEncodedPC(b []byte, enc byte, fieldAddr uint64) (uint64, int, error) {
	if enc&0x80 != 0 { // DW_EH_PE_indirect
		return 0, 0, fmt.Errorf("%w: indirect pointer encoding %#x", ErrUnsupported, enc)
	}
	size := peFormatSize(enc)
	if size == 0 {
		return 0, 0, fmt.Errorf("%w: pointer encoding %#x", ErrUnsupported, enc)
	}
	if len(b) < size {
		return 0, 0, ErrTruncated
	}
	var v uint64
	switch size {
	case 2:
		v = uint64(binary.LittleEndian.Uint16(b))
		if peSigned(enc) {
			v = uint64(int64(int16(v)))
		}
	case 4:
		v = uint64(binary.LittleEndian.Uint32(b))
		if peSigned(enc) {
			v = uint64(int64(int32(v)))
		}
	case 8:
		v = binary.LittleEndian.Uint64(b)
	}
	switch enc & 0x70 {
	case 0x00: // absolute
	case PEPCRel:
		v = fieldAddr + v // two's complement: signed add ≡ unsigned add
	default:
		return 0, 0, fmt.Errorf("%w: pointer application %#x", ErrUnsupported, enc)
	}
	return v, size, nil
}

// decodeFDE parses an FDE body; pcFieldAddr is the virtual address of
// the PC Begin field (needed for pcrel encodings). The program is
// validated, and kept as bytes for CFIs and the height evaluation to
// decode on request: a section's programs are never all materialized
// at once, and a hostile program makes the decoder reserve nothing in
// proportion to its length.
func decodeFDE(b []byte, cie *CIE, pcFieldAddr uint64) (*FDE, error) {
	f := &FDE{CIE: cie}
	begin, n, err := readEncodedPC(b, cie.FDEEnc, pcFieldAddr)
	if err != nil {
		return nil, err
	}
	f.PCBegin = begin
	i := n
	// The range field reuses the format nibble but is always an
	// unsigned extent, never pcrel-adjusted.
	size := peFormatSize(cie.FDEEnc)
	if len(b) < i+size {
		return nil, ErrTruncated
	}
	switch size {
	case 2:
		f.PCRange = uint64(binary.LittleEndian.Uint16(b[i:]))
	case 4:
		f.PCRange = uint64(binary.LittleEndian.Uint32(b[i:]))
	case 8:
		f.PCRange = binary.LittleEndian.Uint64(b[i:])
	}
	i += size
	augLen, n, err := readULEB(b[i:])
	if err != nil {
		return nil, err
	}
	i += n
	// Bound before converting: a huge ULEB cast to int could wrap
	// negative and slip past the range check below.
	if augLen > uint64(len(b)-i) {
		return nil, ErrTruncated
	}
	i += int(augLen)
	body := b[i:]
	if err := walkCFIs(body, cie.CodeAlign, cie.DataAlign, func(CFI) {}); err != nil {
		return nil, err
	}
	if len(body) > 0 {
		f.program = body
	}
	return f, nil
}
