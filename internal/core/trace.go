package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"slices"
	"sort"

	"fetch/internal/disasm"
	"fetch/internal/ehframe"
	"fetch/internal/elfx"
	"fetch/internal/resultcache"
	"fetch/internal/xref"
)

// residueHasher is a thin framing wrapper over SHA-256: every value is
// length- or fixed-width-framed so distinct field sequences cannot
// collide by concatenation.
type residueHasher struct{ h hash.Hash }

func resultcacheHasher() *residueHasher { return &residueHasher{h: sha256.New()} }

func (r *residueHasher) writeU64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	r.h.Write(b[:])
}

func (r *residueHasher) writeString(s string) {
	r.writeU64(uint64(len(s)))
	r.h.Write([]byte(s))
}

func (r *residueHasher) write(b []byte) {
	r.writeU64(uint64(len(b)))
	r.h.Write(b)
}

func (r *residueHasher) sum() [32]byte {
	var out [32]byte
	r.h.Sum(out[:0])
	return out
}

// This file records the analysis trace that delta re-analysis verifies
// against (delta.go). The trace is not a transcript of the pipeline's
// microstate — it is the minimal set of facts a later run needs to
// prove that a recompiled binary, differing only inside some
// FDE-delimited function ranges, produces the exact same Report:
//
//   - the verdict-environment union U every fixed-point pass ran under
//     (changed functions are re-walked under every projection of U);
//   - the function-set instability set EV (verdict walks whose
//     delegation answers depended on when a function was discovered
//     cannot be verified against a single snapshot → fallback);
//   - every pointer-candidate validation verdict with the byte extent
//     it depends on (re-validated when the extent intersects a change);
//   - every calling-convention verdict and candidate tail-call jump
//     Algorithm 1 consumed (same treatment);
//   - the final committed coverage, function set, and jump-table read
//     intervals (global guards and re-validation coverage).
//
// Everything here errs toward refusal: a condition the verifier cannot
// reason about locally is recorded so the delta path falls back to a
// cold run. Fallbacks cost time, never correctness.

// RangeInfo is one FDE-delimited byte range of the roster: the unit of
// function-granular content addressing.
type RangeInfo struct {
	// Start and End delimit the range ([Start, End) = the FDE extent).
	Start, End uint64
	// Hash is resultcache.HashRange(Start, bytes).
	Hash [32]byte
	// Foreign marks a range whose interior (any address other than
	// Start) is entered from outside the range — by a reference, a
	// jump-table target, or the ELF entry point. The local walk model
	// only replays ranges entered at their start.
	Foreign bool
}

// Roster is a persistable range roster. It carries a packed gob form,
// like disasm.InstFacts: the generic gob path decodes each [32]byte
// hash one byte at a time, which dominates trace decode time on
// binaries with thousands of FDEs.
type Roster []RangeInfo

var errBadRoster = errors.New("core: malformed roster")

// rosterEntryMin is the smallest packed range: two one-byte uvarints,
// the flag byte, and the hash.
const rosterEntryMin = 3 + 32

// GobEncode packs the roster as a uvarint count, then per range: Start
// and End-Start as uvarints, a Foreign byte (0 or 1), and the 32-byte
// hash.
func (r Roster) GobEncode() ([]byte, error) {
	buf := make([]byte, 0, binary.MaxVarintLen64+len(r)*(2*binary.MaxVarintLen64+1+32))
	buf = binary.AppendUvarint(buf, uint64(len(r)))
	for _, ri := range r {
		if ri.End < ri.Start {
			return nil, fmt.Errorf("core: roster range %#x ends before it starts", ri.Start)
		}
		buf = binary.AppendUvarint(buf, ri.Start)
		buf = binary.AppendUvarint(buf, ri.End-ri.Start)
		var foreign byte
		if ri.Foreign {
			foreign = 1
		}
		buf = append(buf, foreign)
		buf = append(buf, ri.Hash[:]...)
	}
	return buf, nil
}

// GobDecode unpacks the GobEncode form. Truncated, overlong or
// otherwise malformed input is an error, so a damaged manifest fails
// to load rather than replaying against a wrong roster.
func (r *Roster) GobDecode(b []byte) error {
	rd := func() (uint64, bool) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, false
		}
		b = b[n:]
		return v, true
	}
	n, ok := rd()
	if !ok || n > uint64(len(b)/rosterEntryMin) {
		return errBadRoster
	}
	out := make(Roster, n)
	for i := range out {
		start, ok1 := rd()
		size, ok2 := rd()
		if !ok1 || !ok2 || start+size < start || len(b) < 1+32 || b[0] > 1 {
			return errBadRoster
		}
		out[i] = RangeInfo{Start: start, End: start + size, Foreign: b[0] == 1}
		copy(out[i].Hash[:], b[1:1+32])
		b = b[1+32:]
	}
	if len(b) != 0 {
		return errBadRoster
	}
	*r = out
	return nil
}

// XrefRec is one recorded pointer-candidate validation, in the exact
// order Detect's sequential accept loop consulted verdicts.
type XrefRec struct {
	C  uint64
	OK bool
	// End is the accepted candidate's approximate extent
	// (xref.ContiguousEnd); meaningful only when OK.
	End uint64
	// Consts are the validation walk's harvested constants, sorted —
	// the pool-refresh contribution; meaningful only when OK.
	Consts []uint64
	// Extent are the byte intervals the verdict depends on: the walked
	// instruction spans, the jump-table reads, the bytes at the walk's
	// error, and the calling-convention window. A change outside every
	// interval cannot alter the verdict.
	Extent []disasm.Interval
	// Post marks records from the post-CFI-recovery re-run, whose
	// jump-into-function ranges exclude the removed FDEs.
	Post bool
}

// ConvRec is one calling-convention verdict Algorithm 1 consumed. The
// verdict read the code bytes [Addr, End).
type ConvRec struct {
	Addr, End uint64
	OK        bool
}

// JumpRec is one candidate tail-call jump Algorithm 1 considered.
type JumpRec struct {
	// FDE is the PCBegin of the frame being scanned.
	FDE    uint64
	Addr   uint64
	Target uint64
	// HOK and HZero record the CFI height lookup's outcome at Addr.
	HOK, HZero bool
}

// TraceFormat versions the encoding and meaning of a Trace within one
// result schema; stores key traces by it. Format 2 records the bytes
// each calling-convention verdict read (ConvRec.End), where format 1
// assumed a fixed window. Format 3 sets SawMid also when the committed
// walk decoded overlapping instructions, whose coverage the replay
// cannot rebuild from the skeleton; a format-2 trace may have missed
// that.
const TraceFormat = 3

// Trace is everything delta re-analysis needs to verify that a changed
// binary is analysis-equivalent to the recorded one. It is stored
// alongside the whole-binary result, keyed by the residue hash, and
// serialized with encoding/gob by the fetch cache layer.
type Trace struct {
	// BinSHA is the whole-binary content hash of the recorded build —
	// the key its full Result is cached under.
	BinSHA [32]byte
	// ResidueHash covers every byte outside the roster ranges plus the
	// image geometry; see residueHash.
	ResidueHash [32]byte
	// Roster is the FDE-delimited range set, sorted by Start,
	// non-overlapping.
	Roster Roster

	// UNonRet and UCondNonRet are the unions of every non-return /
	// conditional-non-return environment any committed pass or
	// inference step observed. Every verdict state the fixed point ever
	// consulted projects into a subset of these.
	UNonRet, UCondNonRet []uint64
	// FinalNonRet and FinalCondNonRet are the final committed
	// environment (fresh facts for changed ranges are extracted under
	// it).
	FinalNonRet, FinalCondNonRet []uint64
	// EV are functions whose membership in the detected set varied
	// across committed passes.
	EV []uint64
	// Funcs is the final committed function set (delegation answers).
	Funcs []uint64
	// SawMid reports the global order-sensitivity flag: the final
	// committed walk arrived mid-instruction or decoded overlapping
	// instructions (disasm.Result.SawMid).
	SawMid bool
	// GlobalInsts is the final committed coverage skeleton.
	GlobalInsts disasm.InstFacts
	// TableReads are the data intervals jump-table resolution consulted
	// anywhere in the committed analysis.
	TableReads []disasm.Interval

	// XrefRecs, ConvRecs, and JumpRecs are the recorded per-site
	// verdicts described above.
	XrefRecs []XrefRec
	ConvRecs []ConvRec
	JumpRecs []JumpRec

	// Removed are the FDE starts the convention sweep removed;
	// RemovedOrMerged additionally includes merged part starts. Changed
	// ranges intersecting these fall back (the §V-B retract trajectory
	// is not replayed locally).
	Removed         []uint64
	RemovedOrMerged []uint64
}

// recorder accumulates the trace during a recorded cold run. It
// implements disasm.ExecObserver and feeds the xref and tailcall
// observer hooks.
type recorder struct {
	uNonRet, uCond map[uint64]bool
	firstFuncs     map[uint64]bool
	ev             map[uint64]bool
	sawPass        bool

	xrefRecs []XrefRec
	post     bool

	convRecs []ConvRec
	convSeen map[uint64]bool
	jumpRecs []JumpRec

	// maxInstLen is the ISA's longest instruction: the bytes a failed
	// decode at a walk's error address may have read.
	maxInstLen uint64
}

func newRecorder(maxInstLen int) *recorder {
	return &recorder{
		uNonRet:    map[uint64]bool{},
		uCond:      map[uint64]bool{},
		ev:         map[uint64]bool{},
		convSeen:   map[uint64]bool{},
		maxInstLen: uint64(maxInstLen),
	}
}

// OnPass implements disasm.ExecObserver: fold the pass's input
// environment into U, and membership churn relative to the first pass
// into EV.
func (r *recorder) OnPass(nonRet, condNonRet map[uint64]bool, res *disasm.Result) {
	for a := range nonRet {
		r.uNonRet[a] = true
	}
	for a := range condNonRet {
		r.uCond[a] = true
	}
	if !r.sawPass {
		r.sawPass = true
		r.firstFuncs = make(map[uint64]bool, len(res.Funcs))
		for a := range res.Funcs {
			r.firstFuncs[a] = true
		}
		return
	}
	for a := range res.Funcs {
		if !r.firstFuncs[a] {
			r.ev[a] = true
		}
	}
	for a := range r.firstFuncs {
		if !res.Funcs[a] {
			r.ev[a] = true
		}
	}
}

// convWindow is the byte extent a calling-convention verdict depends
// on: callconv walks at most 48 instructions of at most 15 bytes.
const convWindow = 48 * 15

// onXref records one candidate validation with its dependence extent.
func (r *recorder) onXref(c uint64, ok bool, v *disasm.Result) {
	rec := XrefRec{C: c, OK: ok, Post: r.post}
	// The verdict reads the candidate's own bytes, the convention
	// window, and — when a walk happened, whatever its verdict — every
	// walked instruction and jump-table read, plus the bytes at the
	// walk's error: an invalid opcode lies in no decoded instruction.
	rec.Extent = append(rec.Extent, disasm.Interval{Lo: c, Hi: c + convWindow})
	if v != nil {
		for _, in := range v.Insts {
			rec.Extent = append(rec.Extent, disasm.Interval{Lo: in.Addr, Hi: in.Next()})
		}
		rec.Extent = append(rec.Extent, v.TableReads()...)
		for _, e := range v.Errors {
			rec.Extent = append(rec.Extent, disasm.Interval{Lo: e.At, Hi: e.At + r.maxInstLen})
		}
	}
	rec.Extent = coalesce(rec.Extent)
	if ok && v != nil {
		rec.End = xref.ContiguousEnd(v, c)
		rec.Consts = sortedKeys(v.Constants)
	}
	r.xrefRecs = append(r.xrefRecs, rec)
}

// onConv records one convention verdict (first consumption wins; the
// verdict is a pure function of the bytes it read).
func (r *recorder) onConv(addr, end uint64, ok bool) {
	if r.convSeen[addr] {
		return
	}
	r.convSeen[addr] = true
	r.convRecs = append(r.convRecs, ConvRec{Addr: addr, End: end, OK: ok})
}

// onJump records one candidate tail-call jump.
func (r *recorder) onJump(fde uint64, addr, target uint64, hok, hzero bool) {
	r.jumpRecs = append(r.jumpRecs, JumpRec{
		FDE: fde, Addr: addr, Target: target, HOK: hok, HZero: hzero,
	})
}

// coalesce sorts intervals and merges overlapping/adjacent ones.
func coalesce(in []disasm.Interval) []disasm.Interval {
	if len(in) <= 1 {
		return in
	}
	sort.Slice(in, func(i, j int) bool { return in[i].Lo < in[j].Lo })
	out := in[:1]
	for _, iv := range in[1:] {
		last := &out[len(out)-1]
		if iv.Lo <= last.Hi {
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

func sortedKeys(m map[uint64]bool) []uint64 {
	if len(m) == 0 {
		return nil
	}
	out := make([]uint64, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// buildRoster derives the delta roster from the decoded .eh_frame:
// every FDE extent that lies entirely inside one executable section.
// Extents that straddle sections (or map nowhere) are excluded — their
// bytes stay part of the residue, so any change to them forces a cold
// run, which is the safe direction. ok=false means the extents overlap
// and no sound decomposition exists.
func buildRoster(img *elfx.Image, sec *ehframe.Section) ([]RangeInfo, bool) {
	var out []RangeInfo
	seen := map[uint64]bool{}
	for _, f := range sec.FDEs {
		start, end := f.PCBegin, f.End()
		if end <= start || seen[start] {
			// Zero-length or duplicate-start FDEs: the duplicate's
			// extent would overlap; treat the bytes as residue.
			if seen[start] {
				return nil, false
			}
			continue
		}
		if !rangeInOneExecSection(img, start, end) {
			continue
		}
		seen[start] = true
		out = append(out, RangeInfo{Start: start, End: end})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	for i := 1; i < len(out); i++ {
		if out[i].Start < out[i-1].End {
			return nil, false
		}
	}
	return out, true
}

// rangeInOneExecSection reports whether [start, end) is fully inside a
// single executable section.
func rangeInOneExecSection(img *elfx.Image, start, end uint64) bool {
	for _, s := range img.Sections {
		if s.Flags&elfx.FlagExec == 0 {
			continue
		}
		if start >= s.Addr && end <= s.End() {
			return true
		}
	}
	return false
}

// RangeBytes returns the bytes of [start, end) from the executable
// section that contains the range — for a roster range, the
// function-tier payload body. nil when no such section holds it.
func RangeBytes(img *elfx.Image, start, end uint64) []byte {
	for _, s := range img.Sections {
		if s.Flags&elfx.FlagExec == 0 {
			continue
		}
		if start >= s.Addr && end <= s.End() {
			body := s.Bytes()
			if body == nil {
				return nil
			}
			return body[start-s.Addr : end-s.Addr]
		}
	}
	return nil
}

// residueHash hashes everything about the image EXCEPT the roster
// ranges' interior bytes: the entry point, the PIE flag, every
// section's identity (name, address, flags, length), every byte
// outside the roster ranges, and the roster geometry itself. Two
// binaries with equal residue hashes and equal roster geometry differ
// at most inside roster ranges.
func residueHash(img *elfx.Image, roster []RangeInfo) [32]byte {
	h := resultcacheHasher()
	h.writeString("fetch-residue-1")
	h.writeU64(img.Entry)
	if img.PIE {
		h.writeU64(1)
	} else {
		h.writeU64(0)
	}
	h.writeU64(uint64(len(roster)))
	for _, r := range roster {
		h.writeU64(r.Start)
		h.writeU64(r.End)
	}
	h.writeU64(uint64(len(img.Sections)))
	for _, s := range img.Sections {
		h.writeString(s.Name)
		h.writeU64(s.Addr)
		h.writeU64(uint64(s.Flags))
		body := s.Bytes()
		h.writeU64(s.Size())
		if s.Flags&elfx.FlagExec == 0 {
			h.write(body)
			continue
		}
		// Executable section: hash the bytes with roster spans carved
		// out. Roster is sorted and non-overlapping.
		pos := s.Addr
		secEnd := s.End()
		for _, r := range roster {
			if r.End <= pos || r.Start >= secEnd {
				continue
			}
			h.write(body[pos-s.Addr : r.Start-s.Addr])
			pos = r.End
		}
		h.write(body[pos-s.Addr:])
	}
	return h.sum()
}

// finish assembles the trace after a recorded pipeline run over the
// .eh_frame and delta key in eh.
func (r *recorder) finish(img *elfx.Image, sess *disasm.Session, rep *Report, eh *EHFrame) (*Trace, bool) {
	if eh.Roster == nil {
		return nil, false
	}
	tr := &Trace{Roster: slices.Clone(eh.Roster), ResidueHash: eh.Residue}
	for i := range tr.Roster {
		ri := &tr.Roster[i]
		b := RangeBytes(img, ri.Start, ri.End)
		if b == nil {
			return nil, false
		}
		ri.Hash = resultcache.HashRange(ri.Start, b)
	}
	if sess != nil {
		res := sess.Result()
		tr.SawMid = res.SawMid()
		tr.GlobalInsts = disasm.PackInstFacts(res.InstFacts())
		tr.TableReads = coalesce(res.TableReads())
		tr.Funcs = sortedKeys(res.Funcs)
		tr.FinalNonRet = sortedKeys(res.NonRet)
		tr.FinalCondNonRet = sortedKeys(res.CondNonRet)
		for a := range res.NonRet {
			r.uNonRet[a] = true
		}
		for a := range res.CondNonRet {
			r.uCond[a] = true
		}
		markForeign(tr.Roster, res, img.Entry)
	}
	tr.UNonRet = sortedKeys(r.uNonRet)
	tr.UCondNonRet = sortedKeys(r.uCond)
	tr.EV = sortedKeys(r.ev)
	tr.XrefRecs = r.xrefRecs
	tr.ConvRecs = r.convRecs
	tr.JumpRecs = r.jumpRecs
	tr.Removed = append([]uint64(nil), rep.CFIErrRemoved...)
	tr.RemovedOrMerged = append([]uint64(nil), rep.CFIErrRemoved...)
	for part := range rep.Merged {
		tr.RemovedOrMerged = append(tr.RemovedOrMerged, part)
	}
	sort.Slice(tr.RemovedOrMerged, func(i, j int) bool {
		return tr.RemovedOrMerged[i] < tr.RemovedOrMerged[j]
	})
	return tr, true
}

// markForeign flags roster ranges whose interior is entered from
// outside: a committed reference or jump-table target into the
// interior whose source lies outside the range, or the ELF entry point
// inside the interior.
func markForeign(roster []RangeInfo, res *disasm.Result, entry uint64) {
	find := func(a uint64) *RangeInfo {
		i := sort.Search(len(roster), func(k int) bool { return roster[k].End > a })
		if i < len(roster) && a >= roster[i].Start {
			return &roster[i]
		}
		return nil
	}
	inside := func(r *RangeInfo, a uint64) bool { return a >= r.Start && a < r.End }
	for _, ref := range res.Refs {
		if r := find(ref.Target); r != nil && ref.Target != r.Start && !inside(r, ref.From) {
			r.Foreign = true
		}
	}
	for jmp, targets := range res.JTTargets {
		for _, t := range targets {
			r := find(t)
			if r != nil && t != r.Start && !inside(r, jmp) {
				r.Foreign = true
			}
		}
	}
	if r := find(entry); r != nil && entry != r.Start {
		r.Foreign = true
	}
}
