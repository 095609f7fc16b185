package disasm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"

	"fetch/internal/arch"
)

// This file holds the function-local replay surface behind delta
// re-analysis: the persisted instruction facts, and the bounded walk
// the delta verifier runs over one FDE-delimited byte range against an
// explicit verdict environment. The bounded walk is the engine's own
// pass (Session.pass with a walkBound), and its verdicts are the
// committed inference's own walks (funcReturns, condCalls) scoped to
// the range, so local replay cannot drift from the committed analysis.
// The delta path analyzes only the ranges whose bytes changed between
// two builds and compares the local facts against the recorded ones.
// Any situation the local model cannot reproduce faithfully — a run
// crossing the range boundary, an instruction straddling the range
// end, a mid-instruction arrival, a verdict walk leaving the range — is
// reported, and the caller falls back to a cold run: fidelity gaps cost
// time, never correctness.

// InstFact is the persisted skeleton of one decoded instruction:
// enough to rebuild coverage (owner) queries without re-decoding.
type InstFact struct {
	Addr uint64
	Len  uint16
}

// InstFacts is a persistable instruction skeleton, held in its packed
// gob form: a uvarint count, then per fact the address step from the
// previous fact and the length, both uvarints. Traces hold one fact per
// committed instruction, and a trace is loaded for every delta attempt
// while its skeleton is read only when a pointer candidate needs the
// committed coverage, so loading validates the facts and unpacking
// waits for Unpack. The zero value holds no facts.
type InstFacts struct {
	packed []byte
	n      int
}

// PackInstFacts packs address-sorted facts; it panics on unsorted
// input.
func PackInstFacts(facts []InstFact) InstFacts {
	buf := make([]byte, 0, binary.MaxVarintLen64+3*len(facts))
	buf = binary.AppendUvarint(buf, uint64(len(facts)))
	prev := uint64(0)
	for _, f := range facts {
		if f.Addr < prev {
			panic("disasm: PackInstFacts: facts not address-sorted")
		}
		buf = binary.AppendUvarint(buf, f.Addr-prev)
		buf = binary.AppendUvarint(buf, uint64(f.Len))
		prev = f.Addr
	}
	return InstFacts{packed: buf, n: len(facts)}
}

// Len returns the number of facts.
func (f InstFacts) Len() int { return f.n }

// Unpack returns the facts, sorted by address.
func (f InstFacts) Unpack() []InstFact {
	if f.n == 0 {
		return nil
	}
	out := make([]InstFact, 0, f.n)
	readFacts(f.packed, func(in InstFact) { out = append(out, in) })
	return out
}

// GobEncode returns the packed form.
func (f InstFacts) GobEncode() ([]byte, error) {
	if f.packed == nil {
		return PackInstFacts(nil).packed, nil
	}
	return f.packed, nil
}

// GobDecode validates and keeps a copy of the packed form. It rejects a
// zero length and any length the owner index cannot hold (over
// maxOwnedInstLen), so a corrupt trace fails to load instead of
// replaying wrong coverage.
func (f *InstFacts) GobDecode(b []byte) error {
	n, err := readFacts(b, nil)
	if err != nil {
		return err
	}
	*f = InstFacts{packed: slices.Clone(b), n: n}
	return nil
}

var errTruncatedFacts = errors.New("disasm: truncated InstFacts")

// readFacts parses a packed fact list, passing each fact to emit when
// emit is non-nil, and returns the count. Input shorter than its count
// claims, or holding a length of 0 or over maxOwnedInstLen, is an
// error.
func readFacts(b []byte, emit func(InstFact)) (int, error) {
	rd := func() (uint64, bool) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, false
		}
		b = b[n:]
		return v, true
	}
	n, ok := rd()
	if !ok || n > uint64(len(b)/2) {
		// Every fact takes at least two bytes.
		return 0, errTruncatedFacts
	}
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		var d, l uint64
		if len(b) >= 2 && b[0] < 0x80 && b[1] < 0x80 {
			// Both varints fit one byte: an address step below 128
			// and any real length, nearly every fact.
			d, l = uint64(b[0]), uint64(b[1])
			b = b[2:]
		} else {
			var okd, okl bool
			d, okd = rd()
			l, okl = rd()
			if !okd || !okl {
				return 0, errTruncatedFacts
			}
		}
		if l == 0 || l > maxOwnedInstLen {
			// No decoder yields such a length, and the owner index
			// could not represent it: the trace is corrupt.
			return 0, fmt.Errorf("disasm: InstFacts length %d out of range", l)
		}
		prev += d
		if emit != nil {
			emit(InstFact{Addr: prev, Len: uint16(l)})
		}
	}
	return int(n), nil
}

// Interval is a half-open byte range [Lo, Hi).
type Interval struct {
	Lo, Hi uint64
}

// Overlaps reports whether the interval intersects [lo, hi).
func (iv Interval) Overlaps(lo, hi uint64) bool {
	return iv.Lo < hi && lo < iv.Hi
}

// JumpFact is one jmp/jcc instruction whose target lies outside the
// walked range — the raw material of tail-call/merge decisions.
type JumpFact struct {
	Addr   uint64
	Target uint64
	Jcc    bool
}

// LocalFacts are the cross-range-visible outputs of one bounded walk
// under one verdict environment. Two builds whose changed ranges
// produce equal LocalFacts (per environment) are indistinguishable to
// every other function's analysis.
type LocalFacts struct {
	// Insts is the local coverage, sorted by address.
	Insts []InstFact
	// Calls is the sorted set of direct-call targets (function starts
	// this range contributes).
	Calls []uint64
	// Pushes is the sorted set of jcc/jmp/jump-table push targets
	// outside the range (coverage this range contributes elsewhere).
	Pushes []uint64
	// RefCounts counts Refs contributions per target (calls and jumps,
	// in- and out-of-range).
	RefCounts map[uint64]int
	// Consts is the sorted set of mapped pointer constants harvested.
	Consts []uint64
	// TableBases is the sorted set of resolved jump-table base
	// addresses.
	TableBases []uint64
	// TableReads are the data intervals read while resolving jump
	// tables: reused verdicts are only valid while these bytes are
	// unchanged.
	TableReads []Interval
	// JmpOut lists jmp/jcc instructions targeting outside the range,
	// in address order (the tail-call sweep's per-FDE inputs).
	JmpOut []JumpFact
	// Unfaithful marks a walk the local model cannot replay soundly:
	// a fall-through run reached the range end or an instruction
	// straddles it (the continuation depends on bytes outside the
	// range), or the walk arrived mid-instruction or decoded
	// overlapping instructions (the union-of-walks order-independence
	// argument no longer holds). The Insts of a faithful walk never
	// overlap.
	Unfaithful bool
}

// Equal reports whether two fact sets are indistinguishable to the
// rest of the analysis: everything except the local instruction
// addresses must match exactly. Insts are intentionally excluded —
// interior layout may shift without any cross-range effect — except
// that delta replay separately substitutes fresh coverage for changed
// ranges.
func (f *LocalFacts) Equal(g *LocalFacts) bool {
	if f.Unfaithful != g.Unfaithful {
		return false
	}
	if !slices.Equal(f.Calls, g.Calls) || !slices.Equal(f.Pushes, g.Pushes) ||
		!slices.Equal(f.Consts, g.Consts) || !slices.Equal(f.TableBases, g.TableBases) {
		return false
	}
	if !maps.Equal(f.RefCounts, g.RefCounts) {
		return false
	}
	return slices.EqualFunc(f.JmpOut, g.JmpOut, func(a, b JumpFact) bool {
		return a.Target == b.Target && a.Jcc == b.Jcc
	})
}

// LocalWalk is the result of one bounded walk: the public facts plus
// the walk's private instruction state the verdict evaluators run
// over. The evaluators read that state from the session's walk marks,
// so they are valid only until the session walks again; calling one
// after that panics.
type LocalWalk struct {
	s     *Session
	rng   FuncRange
	res   *Result
	facts *LocalFacts
	// epoch is the decoded marks' epoch the walk left behind.
	epoch uint32
}

// Facts returns the walk's cross-visible facts.
func (lw *LocalWalk) Facts() *LocalFacts { return lw.facts }

// WalkLocal runs the committed pass restricted to [rng.Start, rng.End),
// from the given entry addresses (which lie in the range), under the
// given non-return environment: the session's own pass with a walk
// bound, so pushes that leave the range are recorded as facts instead
// of followed, exactly as the global walk's contribution of this range
// would appear to every other range. Decodes go through the session
// cache.
//
// Like Probe, the walk records coverage in the session's owner
// workspace and returns it when done: the walk's private result carries
// no coverage index, and nothing reads one after the walk.
func (s *Session) WalkLocal(rng FuncRange, entries []uint64,
	nonRet, condNonRet map[uint64]bool) *LocalWalk {

	b := &walkBound{FuncRange: rng}
	res := s.pass(entries, s.opts, nonRet, condNonRet, s.borrowOwner(), b)
	s.returnOwner(res)
	s.sortResult(res)

	facts := &LocalFacts{
		Insts:      res.InstFacts(),
		Pushes:     sortedDistinct(b.exits),
		RefCounts:  make(map[uint64]int),
		Consts:     sortedKeys(res.Constants),
		TableBases: sortedKeys(res.TableBases),
		TableReads: res.TableReads(),
		Unfaithful: b.escaped || res.sawMid,
	}
	for _, r := range res.Refs {
		facts.RefCounts[r.Target]++
	}
	for _, in := range res.Insts {
		switch in.Op {
		case arch.OpCall:
			if s.img.IsExec(in.Target) {
				facts.Calls = append(facts.Calls, in.Target)
			}
		case arch.OpJcc, arch.OpJmp:
			if !rng.contains(in.Target) {
				facts.JmpOut = append(facts.JmpOut, JumpFact{in.Addr, in.Target, in.Op == arch.OpJcc})
			}
		}
	}
	facts.Calls = sortedDistinct(facts.Calls)
	return &LocalWalk{s: s, rng: rng, res: res, facts: facts, epoch: s.decoded.epoch}
}

func sortedDistinct(in []uint64) []uint64 {
	slices.Sort(in)
	return slices.Compact(in)
}

// sortedKeys returns a set's members in ascending order, nil when empty.
func sortedKeys(set map[uint64]bool) []uint64 {
	var out []uint64
	for a := range set {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// scope returns the verdict scope of the walk's range, panicking when
// the session has walked since: the walk's instructions are gone.
func (lw *LocalWalk) scope(funcs map[uint64]bool, log *[]uint64) *verdictScope {
	if lw.s.decoded.epoch != lw.epoch {
		panic("disasm: LocalWalk verdict read after its session walked again")
	}
	return &verdictScope{res: lw.res, funcs: funcs, rng: &lw.rng, log: log}
}

// EntryReturns evaluates the committed inference's returns verdict
// (funcReturns) for one entry of the walked range under the
// non-returning set nonRet, with funcs as the function set tail jumps
// delegate to. queried collects every call and tail-jump target whose
// answer influenced the outcome, so the caller can reject environments
// where those answers were iteration-dependent. ok=false means the
// evaluation escaped the range and the verdict cannot be derived
// locally.
func (lw *LocalWalk) EntryReturns(entry uint64, nonRet, funcs map[uint64]bool) (verdict bool, queried []uint64, ok bool) {
	verdict, ok = lw.s.funcReturns(lw.scope(funcs, &queried), entry, nonRet)
	return verdict, queried, ok
}

// CondFacts evaluates the committed inference's environment-independent
// conditional-non-return skeleton (condCalls) for one entry: whether the
// entry block tests the first argument, and the sorted set of call
// targets reachable by the body walk (which ignores gates). The verdict
// under any environment is then hasTest && (bodyCalls ∩ nonRet ≠ ∅).
// queried collects function-set membership queries; ok=false means the
// walk escaped the range.
func (lw *LocalWalk) CondFacts(entry uint64, funcs map[uint64]bool) (hasTest bool, bodyCalls []uint64, queried []uint64, ok bool) {
	hasTest, bodyCalls, ok = lw.s.condCalls(lw.scope(funcs, &queried), entry)
	if !ok {
		return false, nil, nil, false
	}
	return hasTest, sortedDistinct(bodyCalls), queried, true
}

// BuildCoverage constructs a coverage-only Result from persisted
// instruction facts, with no decoded instruction values behind it.
// Delta replay uses it to answer the committed-state queries of
// candidate re-validation (seed rules and phase-overlap checks). Its
// InstStartAt/Covered answer exactly as they would on the original
// result when no two of the facts overlap — a committed result whose
// SawMid is false. Overlapping facts fill in address order, where the
// walk that decoded them filled in walk order. Persisted facts carry no
// section layout, so the owner index reserves one span per address
// cluster instead of one per section.
func BuildCoverage(facts []InstFact) *Result {
	if !sort.SliceIsSorted(facts, func(i, j int) bool { return facts[i].Addr < facts[j].Addr }) {
		sorted := append([]InstFact(nil), facts...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Addr < sorted[j].Addr })
		facts = sorted
	}
	var clusters []Range
	const maxGap = 1 << 16 // start a new span across section-sized holes
	for i := 0; i < len(facts); {
		r := Range{Start: facts[i].Addr, End: facts[i].Addr}
		for ; i < len(facts) && facts[i].Addr <= r.End+maxGap; i++ {
			r.End = max(r.End, facts[i].Addr+uint64(facts[i].Len))
		}
		clusters = append(clusters, r)
	}
	own := newOwnerIndex(clusters)
	for _, f := range facts {
		own.setRange(f.Addr, int(f.Len))
	}
	return &Result{owner: own}
}
