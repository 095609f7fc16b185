package disasm

// ownerIndex maps every byte of decoded instructions to the start of
// the instruction that last covered it: the coverage queries behind the
// mid-instruction rule, jump-table back-scans, xref rule (ii), and gap
// scans. It is the engine's one representation of byte ownership: a
// byteTable of one byte per text byte, 0 when the byte is uncovered,
// otherwise 1 + the byte's distance from the start of its owning
// instruction. Decoded instructions are at most 15 bytes long, well
// within MaxFactLen, so the distance always fits, whatever the
// section size.
//
// Committed passes allocate an index each, which their results keep.
// The short walks (Probe, and WalkLocal's bounded pass) borrow the
// session's one workspace index instead, which borrowOwner resets.
type ownerIndex struct {
	byteTable[uint8]
	// borrowed marks a workspace index lent to a running walk.
	borrowed bool
}

// MaxFactLen is the longest instruction the one-byte encoding can own:
// a persisted instruction fact longer than that, or of length 0, is
// corrupt.
const MaxFactLen = 255

// newOwnerIndex reserves one span per range without allocating any
// chunks.
func newOwnerIndex(layout []Range) *ownerIndex {
	return &ownerIndex{byteTable: newByteTable[uint8](layout)}
}

// get returns the start of the instruction covering addr. A nil index
// (a result whose walk returned its borrowed workspace) covers nothing.
func (o *ownerIndex) get(addr uint64) (uint64, bool) {
	if o == nil {
		return 0, false
	}
	if p := o.at(addr); p != nil && *p != 0 {
		return addr - uint64(*p-1), true
	}
	return 0, false
}

// setRange marks the n bytes starting at addr as owned by the
// instruction at addr, and reports whether any of them was owned
// already: the instruction overlaps one decoded before it, and the
// shared bytes now belong to whichever came last. n must not exceed
// MaxFactLen. Instruction bytes never cross a section end (decode
// windows are section-bounded), so the run stays in one span, though
// it may straddle two chunks.
func (o *ownerIndex) setRange(addr uint64, n int) (overlap bool) {
	for k := 0; k < n; {
		run := o.slots(addr+uint64(k), n-k)
		if run == nil {
			break
		}
		for i := range run {
			overlap = overlap || run[i] != 0
			k++
			run[i] = uint8(k)
		}
	}
	return overlap
}
