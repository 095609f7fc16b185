// Package elfx provides the in-memory binary image abstraction shared
// by the synthetic compiler and the analyses, plus an ELF64 writer and
// a loader (built on debug/elf) so the same analyses run on real
// System-V x64 binaries.
package elfx

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"
	"unsafe"

	"fetch/internal/arch"
)

// SectionFlags describe mapping permissions of a section.
type SectionFlags uint8

// Section flag bits.
const (
	FlagAlloc SectionFlags = 1 << iota
	FlagExec
	FlagWrite
)

// Section is one named, contiguous address range of the image.
//
// In-memory sections (synth, LoadELF) carry their content in Data.
// File-backed sections (LoadELFFile) leave Data nil and materialize
// content on first access through Bytes — zero-copy out of the backing
// mmap when possible. Code that reads content or length must go
// through Bytes/Size; Data remains the construction-time field for
// in-memory images and mutation-based tests.
type Section struct {
	Name  string
	Addr  uint64
	Data  []byte
	Flags SectionFlags

	// lz, when non-nil, marks the section file-backed and lazy. It is
	// a plain pointer (not embedded state) so the shallow struct
	// copies around the codebase (Image.Strip, delta patching) stay
	// copy-safe under go vet.
	lz *lazySection
}

// Size returns the section length in bytes without materializing
// file-backed content.
func (s *Section) Size() uint64 {
	if s.lz != nil {
		return s.lz.size
	}
	return uint64(len(s.Data))
}

// Bytes returns the section content, materializing file-backed
// sections on first access (a zero-copy window of the backing mapping
// when available, a pread copy otherwise). It returns nil when the
// backing has failed or been closed; use BytesErr where the cause
// matters.
func (s *Section) Bytes() []byte {
	b, _ := s.BytesErr()
	return b
}

// BytesErr is Bytes with the materialization error: file-backed
// sections whose backing file was closed, truncated underneath, or
// otherwise unreadable report why instead of faulting.
func (s *Section) BytesErr() ([]byte, error) {
	if s.lz == nil {
		return s.Data, nil
	}
	if p := s.lz.data.Load(); p != nil {
		return *p, nil
	}
	return s.lz.materialize(s.Name)
}

// End returns the first address past the section.
func (s *Section) End() uint64 { return s.Addr + s.Size() }

// Contains reports whether addr falls inside the section.
func (s *Section) Contains(addr uint64) bool { return addr >= s.Addr && addr < s.End() }

// Symbol is a (typically function) symbol.
type Symbol struct {
	Name string
	Addr uint64
	Size uint64
	Func bool
	// Dyn marks symbols ingested from .dynsym rather than .symtab.
	// Stripped system binaries keep their dynamic symbols, so these
	// provide partial ground truth when .symtab is gone; WriteELF
	// serializes every symbol into .symtab regardless.
	Dyn bool
}

// Image is a loaded or synthesized binary.
type Image struct {
	Name     string
	Entry    uint64
	Sections []*Section
	// Symbols is empty for stripped binaries.
	Symbols []Symbol
	// PIE marks position-independent executables (ET_DYN). Section
	// addresses are the link-time ones either way; the flag only
	// selects the ELF type on write.
	PIE bool
	// Machine is the ELF e_machine of the image's code. Loaders set it
	// from the header; the synthetic compiler sets it from its target
	// config. Zero means "never declared" and resolves to the default
	// backend (x86-64), so historical hand-built images keep working.
	Machine uint16

	// secIdx caches the sorted-range section index behind the address
	// queries (SectionAt, IsExec, IsMapped, Bytes). It is accessed
	// with sync/atomic so concurrent readers (the data-index scan
	// workers) may share one image, and it revalidates against the identity of
	// the Sections slice, so appending or replacing Sections
	// invalidates it automatically. Replacing an element of the slice
	// in place does not; no builder in this codebase does that.
	secIdx unsafe.Pointer // *sectionIndex

	// bk, when non-nil, is the shared file backing of the image's lazy
	// sections (LoadELFFile). Shallow copies (Strip) share it; Close
	// releases it.
	bk *fileBacking
}

// ISA returns the instruction-set backend for the image's machine.
// Loaders reject machines without a registered backend, so this never
// returns nil for a loaded or synthesized image.
func (im *Image) ISA() arch.ISA { return arch.ForMachine(im.Machine) }

// Section returns the section with the given name, if present.
func (im *Image) Section(name string) (*Section, bool) {
	for _, s := range im.Sections {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// sectionIndex is a binary-searchable snapshot of the image's
// non-empty sections, sorted by address. Synthetic images have a
// handful of sections, but real binaries carry 25+ and the address
// queries run once per decoded instruction — the linear scans they
// replaced dominated decode profiles on real inputs.
type sectionIndex struct {
	// from is the exact Sections slice the index was built over; the
	// index is valid only while the image still holds that slice
	// (same length and same backing array).
	from []*Section
	// linear marks images with overlapping sections, where a sorted
	// lookup could disagree with first-match-in-slice-order semantics;
	// queries fall back to the reference linear scan.
	linear bool
	starts []uint64
	secs   []*Section
}

// valid reports whether the index still describes secs.
func (ix *sectionIndex) valid(secs []*Section) bool {
	if len(ix.from) != len(secs) {
		return false
	}
	return len(secs) == 0 || &ix.from[0] == &secs[0]
}

// buildSectionIndex sorts the non-empty sections by address. Zero-length
// sections can never contain an address, so they are dropped; any
// overlap among the rest (including two non-empty sections at one
// address) forces the linear fallback.
func buildSectionIndex(secs []*Section) *sectionIndex {
	ix := &sectionIndex{from: secs}
	for _, s := range secs {
		if s.Size() > 0 {
			ix.secs = append(ix.secs, s)
		}
	}
	sort.SliceStable(ix.secs, func(i, j int) bool { return ix.secs[i].Addr < ix.secs[j].Addr })
	for i, s := range ix.secs {
		if i > 0 && ix.secs[i-1].End() > s.Addr {
			ix.linear = true
			ix.secs, ix.starts = nil, nil
			return ix
		}
		ix.starts = append(ix.starts, s.Addr)
	}
	return ix
}

// index returns the current section index, rebuilding it when the
// Sections slice changed. Concurrent callers may race on the rebuild;
// the build is deterministic, so whichever snapshot lands last is
// equivalent.
func (im *Image) index() *sectionIndex {
	if p := (*sectionIndex)(atomic.LoadPointer(&im.secIdx)); p != nil && p.valid(im.Sections) {
		return p
	}
	return im.rebuildIndex()
}

// rebuildIndex is the slow path of index, kept out of line so the
// validity check inlines into the address queries.
func (im *Image) rebuildIndex() *sectionIndex {
	p := buildSectionIndex(im.Sections)
	atomic.StorePointer(&im.secIdx, unsafe.Pointer(p))
	return p
}

// SectionAt returns the section containing addr, if any. The binary
// search is open-coded in the one function body: this runs per decoded
// instruction and per candidate pointer word, where the call overhead
// of a sort.Search-style helper chain is larger than the lookup.
func (im *Image) SectionAt(addr uint64) (*Section, bool) {
	ix := (*sectionIndex)(atomic.LoadPointer(&im.secIdx))
	if ix == nil || !ix.valid(im.Sections) {
		ix = im.rebuildIndex()
	}
	if ix.linear {
		for _, s := range im.Sections {
			if s.Contains(addr) {
				return s, true
			}
		}
		return nil, false
	}
	// The only candidate is the last section starting at or before addr.
	starts := ix.starts
	lo, hi := 0, len(starts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if starts[mid] <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil, false
	}
	if s := ix.secs[lo-1]; s.Contains(addr) {
		return s, true
	}
	return nil, false
}

// SectionsOverlap reports whether two non-empty sections of the image
// overlap. Address queries then answer by the first containing section
// in Sections order; otherwise an address lies in at most one section,
// so it is executable exactly when it lies in one of ExecSections.
func (im *Image) SectionsOverlap() bool { return im.index().linear }

// IsExec reports whether addr lies in an executable section.
func (im *Image) IsExec(addr uint64) bool {
	s, ok := im.SectionAt(addr)
	return ok && s.Flags&FlagExec != 0
}

// IsMapped reports whether addr lies in any allocated section.
func (im *Image) IsMapped(addr uint64) bool {
	s, ok := im.SectionAt(addr)
	return ok && s.Flags&FlagAlloc != 0
}

// Bytes returns n bytes starting at addr, or an error when the range
// leaves its section.
func (im *Image) Bytes(addr uint64, n int) ([]byte, error) {
	s, ok := im.SectionAt(addr)
	if !ok {
		return nil, fmt.Errorf("elfx: address %#x not mapped", addr)
	}
	off := addr - s.Addr
	if off+uint64(n) > s.Size() {
		return nil, fmt.Errorf("elfx: range [%#x,+%d) leaves section %s", addr, n, s.Name)
	}
	body, err := s.BytesErr()
	if err != nil {
		return nil, err
	}
	return body[off : off+uint64(n)], nil
}

// BytesToSectionEnd returns the bytes from addr to the end of its
// section (a decode window for the disassembler).
func (im *Image) BytesToSectionEnd(addr uint64) ([]byte, bool) {
	s, ok := im.SectionAt(addr)
	if !ok {
		return nil, false
	}
	body := s.Bytes()
	if body == nil {
		return nil, false
	}
	return body[addr-s.Addr:], true
}

// ReadU64 reads a little-endian 64-bit word at addr.
func (im *Image) ReadU64(addr uint64) (uint64, error) {
	b, err := im.Bytes(addr, 8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// ReadU32 reads a little-endian 32-bit word at addr.
func (im *Image) ReadU32(addr uint64) (uint32, error) {
	b, err := im.Bytes(addr, 4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// ExecSections returns all executable sections in address order.
func (im *Image) ExecSections() []*Section {
	var out []*Section
	for _, s := range im.Sections {
		if s.Flags&FlagExec != 0 {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// DataSections returns allocated, non-executable sections in address
// order — where §IV-E scans for function pointers.
func (im *Image) DataSections() []*Section {
	var out []*Section
	for _, s := range im.Sections {
		if s.Flags&FlagAlloc != 0 && s.Flags&FlagExec == 0 {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// FuncSymbols returns the function symbols sorted by address.
func (im *Image) FuncSymbols() []Symbol {
	var out []Symbol
	for _, s := range im.Symbols {
		if s.Func {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// SymbolNamed returns the first symbol with the given name.
func (im *Image) SymbolNamed(name string) (Symbol, bool) {
	for _, s := range im.Symbols {
		if s.Name == name {
			return s, true
		}
	}
	return Symbol{}, false
}

// Strip returns a shallow copy of the image without symbols, as a
// distributor would ship it. The copy shares sections and file
// backing with the original; closing either closes both.
func (im *Image) Strip() *Image {
	cp := *im
	cp.Symbols = nil
	return &cp
}

// FileBacked reports whether the image reads sections lazily from a
// backing file (LoadELFFile) rather than from memory.
func (im *Image) FileBacked() bool { return im.bk != nil }

// Close releases the image's file backing: the descriptor closes, the
// mapping is released, and not-yet-materialized sections return errors
// from then on instead of content. Close must be sequenced after the
// last access to section bytes (analyses synchronize this naturally);
// it is a no-op for in-memory images and when called twice.
func (im *Image) Close() error {
	if im.bk == nil {
		return nil
	}
	return im.bk.close()
}

// ImageMemStats accounts the heap and mapping footprint of an image.
type ImageMemStats struct {
	// MaterializedBytes is section content held on the Go heap: all of
	// it for in-memory images, only pread/NOBITS/compressed copies for
	// file-backed ones.
	MaterializedBytes int64
	// MappedBytes is section content served zero-copy out of the
	// backing mmap (file-backed images only).
	MappedBytes int64
}

// MemStats reports how many section bytes the image currently holds on
// the heap versus serves zero-copy from its mapping.
func (im *Image) MemStats() ImageMemStats {
	var ms ImageMemStats
	for _, s := range im.Sections {
		if s.lz == nil {
			ms.MaterializedBytes += int64(len(s.Data))
		}
	}
	if im.bk != nil {
		ms.MaterializedBytes += im.bk.materialized.Load()
		ms.MappedBytes += im.bk.mapped.Load()
	}
	return ms
}
