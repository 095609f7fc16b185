// Package xref implements the soundness-driven function-pointer
// detection of §IV-E: collect a super-set of potential function
// pointers (every consecutive eight bytes of the data sections plus
// every constant operand in disassembled code), then validate each
// candidate by conservative recursive disassembly — rejecting on
// (i) invalid opcodes, (ii) decoding into the middle of previously
// disassembled instructions, (iii) control transfers into the middle of
// previously detected functions, and (iv) calling-convention
// violations. Accepted pointers become function starts and their
// disassembly refreshes the candidate pool.
//
// A candidate is accepted only when all four rules hold, so validation
// runs the cheap rules first: the seed forms of (iii) and (ii), which
// test the candidate itself against known function extents and the
// committed disassembly, then (iv), a bounded straight-line read at the
// entry. Only a candidate that passes them is walked: the strict walk
// checks (i)-(iii) along its control flow and stops at its first error,
// and its instructions are then checked against the committed
// disassembly (rule (ii)).
package xref

import (
	"context"
	"encoding/binary"
	"math"
	"sort"

	"fetch/internal/callconv"
	"fetch/internal/disasm"
	"fetch/internal/elfx"
	"fetch/internal/pool"
)

// Candidates returns the §IV-E pointer super-set: all data-section
// eight-byte windows whose value lands in executable code, plus all
// harvested constants.
func Candidates(img *elfx.Image, res *disasm.Result) []uint64 {
	return candidates(img, res, nil)
}

// candidates is Candidates with an optional precomputed data index;
// the output is identical either way (the sorted distinct union of
// executable data-window values and executable, non-table constants —
// with or without the index, the same set).
func candidates(img *elfx.Image, res *disasm.Result, ix *DataIndex) []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	add := func(v uint64) {
		if !seen[v] && img.IsExec(v) {
			seen[v] = true
			out = append(out, v)
		}
	}
	if ix != nil {
		for _, v := range ix.execVals {
			add(v)
		}
	} else {
		for _, sec := range img.DataSections() {
			body := sec.Bytes()
			for off := 0; off+8 <= len(body); off++ {
				add(binary.LittleEndian.Uint64(body[off:]))
			}
		}
	}
	for c := range res.Constants {
		if res.TableBases[c] {
			continue // a resolved jump-table base is known data
		}
		add(c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DataIndex is a precomputed restatement of the data sections'
// eight-byte windows, restricted to values landing in executable code:
// per-value occurrence counts (DataRefCount's hot query — reference
// evidence for code addresses) and the sorted distinct values (the
// data half of Candidates). The pipeline builds one per binary so
// reference-count queries stop rescanning every window. The
// restriction bounds the index by the executable address range rather
// than the data size (a distinct-window-count index would be O(data));
// the rare query for a non-executable address falls back to the direct
// scan, so answers are identical to DataRefCount for every address.
type DataIndex struct {
	img      *elfx.Image
	counts   map[uint64]int
	execVals []uint64
}

// NewDataIndex scans img's data sections with up to jobs workers. A
// window value outside the span of the executable sections is rejected
// before the section lookup: no executable address lies outside it.
func NewDataIndex(img *elfx.Image, jobs int) *DataIndex {
	var lo, hi uint64
	execs := img.ExecSections() // sorted by address
	if len(execs) > 0 {
		lo = execs[0].Addr
	}
	for _, sec := range execs {
		hi = max(hi, sec.End())
	}
	span := hi - lo
	type chunk struct {
		data   []byte
		lo, hi int
	}
	var chunks []chunk
	const chunkWindows = 1 << 16
	for _, sec := range img.DataSections() {
		body := sec.Bytes()
		n := len(body) - 7 // number of windows
		for lo := 0; lo < n; lo += chunkWindows {
			hi := lo + chunkWindows
			if hi > n {
				hi = n
			}
			chunks = append(chunks, chunk{data: body, lo: lo, hi: hi})
		}
	}
	outs := pool.Map(nil, jobs, chunks, func(_ context.Context, _ int, c chunk) (map[uint64]int, error) {
		l := make(map[uint64]int)
		for off := c.lo; off < c.hi; off++ {
			if v := binary.LittleEndian.Uint64(c.data[off:]); v-lo < span && img.IsExec(v) {
				l[v]++
			}
		}
		return l, nil
	})
	ix := &DataIndex{img: img, counts: make(map[uint64]int)}
	for _, o := range outs {
		for v, n := range o.Value {
			if ix.counts[v] == 0 {
				ix.execVals = append(ix.execVals, v)
			}
			ix.counts[v] += n
		}
	}
	sort.Slice(ix.execVals, func(i, j int) bool { return ix.execVals[i] < ix.execVals[j] })
	return ix
}

// AccountedBytes estimates the index's memory at documented per-entry
// costs (a count-map slot plus a sorted-value word) for the analysis
// memory accounting; deterministic, not a heap measurement.
func (ix *DataIndex) AccountedBytes() int64 {
	return int64(len(ix.counts))*24 + int64(len(ix.execVals))*8
}

// Count returns how many data-section windows hold the value addr —
// the same answer as DataRefCount: constant-time for executable
// addresses (the only hot query), a direct scan otherwise.
func (ix *DataIndex) Count(addr uint64) int {
	if ix.img.IsExec(addr) {
		return ix.counts[addr]
	}
	return DataRefCount(ix.img, addr)
}

// DataRefCount counts how many data-section windows hold the value
// addr — the reference evidence Algorithm 1's RefTo uses beyond
// code-level refs.
func DataRefCount(img *elfx.Image, addr uint64) int {
	n := 0
	for _, sec := range img.DataSections() {
		body := sec.Bytes()
		for off := 0; off+8 <= len(body); off++ {
			if binary.LittleEndian.Uint64(body[off:]) == addr {
				n++
			}
		}
	}
	return n
}

// maxValidationInsts bounds each candidate's validation walk.
const maxValidationInsts = 2000

// Options configure a detection run.
type Options struct {
	// KnownRanges are detected function extents (FDE ranges): rule
	// (iii) rejects candidates and transfers into their interiors.
	KnownRanges []disasm.FuncRange
	// DisableRule turns individual §IV-E validation rules off for
	// ablation: [0] invalid opcodes / strict walk, [1] mid-instruction
	// landings, [2] transfers into function interiors, [3] calling
	// conventions. Setting [0] drops every error of the walk, the
	// mid-instruction and into-function errors it meets on its way
	// included; the walk then runs in full, and [1]'s check of its
	// instructions against the committed disassembly still applies.
	DisableRule [4]bool
	// Session, when set, supplies the incremental disassembly state:
	// candidate validation walks are probes of it, so every walk
	// reuses (and feeds) the binary's shared decode cache instead of
	// decoding from scratch. A probe leaves the committed result
	// untouched, and results are byte-identical either way.
	Session *disasm.Session
	// Index, when set, answers the data-section half of candidate
	// collection from the precomputed DataIndex instead of rescanning
	// the sections each round. Output is identical either way.
	Index *DataIndex
	// Observer, when set, receives every candidate validation in the
	// exact order the sequential accept loop consults verdicts: the
	// candidate, the verdict, and the validation walk's result. v is
	// nil exactly when the candidate was rejected before walking (by a
	// seed-form rule or rule (iv)); otherwise it is the walk whatever
	// the verdict, and a walk that met an error ends there (v.Errors).
	// The delta-analysis recorder uses it to capture each verdict
	// together with the byte extent it depends on. Observers must not
	// mutate v.
	Observer func(c uint64, ok bool, v *disasm.Result)
}

// Detect validates candidates against the current disassembly and
// returns the accepted new function starts, iterating as accepted
// pointers contribute new constants (§IV-E's pool refresh).
func Detect(img *elfx.Image, res *disasm.Result, funcs map[uint64]bool, opts Options) []uint64 {
	var accepted []uint64
	acceptedSet := map[uint64]bool{}
	pending := candidates(img, res, opts.Index)
	tried := map[uint64]bool{}
	// acceptedRanges protects the (approximate) extents of pointers
	// accepted earlier in this run: a later candidate into their
	// interior is a mid-function pointer (§IV-E pool refresh).
	var acceptedRanges []disasm.FuncRange
	insideAccepted := func(c uint64) bool {
		for _, r := range acceptedRanges {
			if c > r.Start && c < r.End {
				return true
			}
		}
		return false
	}

	for len(pending) > 0 {
		var next []uint64
		for _, c := range pending {
			if tried[c] || funcs[c] || acceptedSet[c] {
				continue
			}
			tried[c] = true
			if insideAccepted(c) {
				continue
			}
			newRes, ok := ValidateCandidate(img, res, c, opts)
			if opts.Observer != nil {
				opts.Observer(c, ok, newRes)
			}
			if !ok {
				continue
			}
			acceptedSet[c] = true
			accepted = append(accepted, c)
			acceptedRanges = append(acceptedRanges, disasm.FuncRange{
				Start: c, End: ContiguousEnd(newRes, c),
			})
			// Refresh the pool from the new disassembly's constants.
			for v := range newRes.Constants {
				if img.IsExec(v) && !tried[v] && !funcs[v] && !acceptedSet[v] {
					next = append(next, v)
				}
			}
		}
		// The refreshed pool is sorted before the next round: newRes
		// constants arrive in map order, and an address-ordered round
		// makes the iteration reproducible run to run.
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		pending = next
	}
	sort.Slice(accepted, func(i, j int) bool { return accepted[i] < accepted[j] })
	return accepted
}

// ContiguousEnd returns the end of the contiguous instruction run the
// validation walk decoded from c — the approximate extent of the newly
// accepted function. The delta-analysis recorder needs it too, to
// replay the accept loop's interior-skip rule without re-walking.
func ContiguousEnd(v *disasm.Result, c uint64) uint64 {
	end := c
	for _, in := range v.InstsIn(c, math.MaxUint64) {
		if in.Addr != end {
			break
		}
		end = in.Next()
	}
	return end
}

// ValidateCandidate applies rules (i)-(iv) to one candidate: first
// every rule that needs no walk — the seed forms of (iii) and (ii),
// then (iv) — and only then the walk forms of (i)-(iii). A verdict
// holds only when every rule does, so the order changes the work,
// never the verdict. Detect calls it for every candidate it consults;
// the delta path calls it alone to re-validate exactly the candidates
// whose recorded verdicts depend on changed bytes, and gets the
// verdict Detect would compute against the same state.
//
// res supplies the committed-coverage queries (a coverage-only result
// suffices). With opts.Session set, the walk runs as a probe of that
// session with cached decoding. The result is the validation walk's:
// nil when the candidate was rejected before walking, else the walk
// (cut at its first error on a strict rejection) whatever the verdict.
func ValidateCandidate(img *elfx.Image, res *disasm.Result, c uint64, opts Options) (*disasm.Result, bool) {
	// Rule (iii), seed form: the candidate itself must not point into
	// a previously detected function's interior.
	if !opts.DisableRule[2] {
		for _, r := range opts.KnownRanges {
			if c > r.Start && c < r.End {
				return nil, false
			}
		}
	}
	// Rule (ii), seed form: the candidate must not point into the
	// middle of an already-decoded instruction.
	if !opts.DisableRule[1] {
		if start, covered := res.InstStartAt(c); covered && start != c {
			return nil, false
		}
	}
	// Rule (iv): calling convention at the candidate entry — a bounded
	// straight-line read, far cheaper than the walk.
	if !opts.DisableRule[3] && !callconv.Validate(img, c) {
		return nil, false
	}
	// Rules (i)-(iii), walk form: conservative recursive disassembly.
	// With rule (i) off the walk records no errors; its path, and so
	// its instructions, are the same either way.
	ranges := opts.KnownRanges
	if opts.DisableRule[2] {
		ranges = nil
	}
	vopts := disasm.Options{
		ResolveJumpTables: true,
		Strict:            !opts.DisableRule[0],
		KnownRanges:       ranges,
		MaxInsts:          maxValidationInsts,
	}
	var v *disasm.Result
	if opts.Session != nil {
		v = opts.Session.Probe([]uint64{c}, vopts)
	} else {
		v = disasm.Recursive(img, []uint64{c}, vopts)
	}
	if len(v.Errors) > 0 {
		return v, false
	}
	// Rule (ii) against the pre-existing disassembly: any instruction
	// decoded by the validation walk that overlaps a previously
	// decoded instruction at a different phase is a misalignment.
	if !opts.DisableRule[1] {
		for _, in := range v.Insts {
			if start, covered := res.InstStartAt(in.Addr); covered && start != in.Addr {
				return v, false
			}
		}
	}
	return v, true
}
