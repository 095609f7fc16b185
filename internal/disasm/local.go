package disasm

import (
	"encoding/binary"
	"fmt"
	"sort"

	"fetch/internal/arch"
)

// This file implements the function-local replay machinery behind
// delta re-analysis (ROADMAP item 3): re-running the committed-pass
// walk restricted to one FDE-delimited byte range, and evaluating the
// non-return verdicts of that range's entries, against an explicit
// verdict environment. The delta path analyzes only the ranges whose
// bytes changed between two builds and compares the local facts
// against the recorded ones; everything here therefore mirrors the
// committed pass (Session.pass) and the inference walks (funcReturns,
// isCondNonRet) instruction for instruction. Any situation the local
// model cannot reproduce faithfully — a run crossing the range
// boundary, an instruction straddling the range end, a mid-instruction
// arrival — is reported as a flag, and the caller falls back to a cold
// run: fidelity gaps cost time, never correctness.

// InstFact is the persisted skeleton of one decoded instruction:
// enough to rebuild coverage (owner) queries without re-decoding.
type InstFact struct {
	Addr uint64
	Len  uint16
}

// InstFacts is a persistable instruction skeleton. It carries a packed
// gob form — delta-varint addresses, varint lengths — because traces
// hold one fact per committed instruction and the generic per-struct
// gob path dominates trace decode time on large binaries.
type InstFacts []InstFact

// GobEncode packs the facts as (count, then per fact: addr delta from
// the previous fact, length), all uvarints.
func (f InstFacts) GobEncode() ([]byte, error) {
	buf := make([]byte, 0, 10+3*len(f))
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], v)]...)
	}
	put(uint64(len(f)))
	prev := uint64(0)
	for _, in := range f {
		if in.Addr < prev {
			return nil, fmt.Errorf("disasm: InstFacts not address-sorted")
		}
		put(in.Addr - prev)
		put(uint64(in.Len))
		prev = in.Addr
	}
	return buf, nil
}

// GobDecode unpacks the GobEncode form. It rejects a zero length and
// any length the owner index cannot hold (over maxOwnedInstLen), so a
// corrupt trace fails to load instead of replaying wrong coverage.
func (f *InstFacts) GobDecode(b []byte) error {
	rd := func() (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, fmt.Errorf("disasm: truncated InstFacts")
		}
		b = b[n:]
		return v, nil
	}
	n, err := rd()
	if err != nil {
		return err
	}
	out := make(InstFacts, 0, n)
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		d, err := rd()
		if err != nil {
			return err
		}
		l, err := rd()
		if err != nil {
			return err
		}
		if l == 0 || l > maxOwnedInstLen {
			// No decoder yields such a length, and the owner index
			// could not represent it: the trace is corrupt.
			return fmt.Errorf("disasm: InstFacts length %d out of range", l)
		}
		prev += d
		out = append(out, InstFact{Addr: prev, Len: uint16(l)})
	}
	*f = out
	return nil
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

// LocalFlags mark walk events the local model cannot replay soundly.
type LocalFlags uint8

// Local walk fidelity flags.
const (
	// LocalEscape: a fall-through run reached the range end, or an
	// instruction straddles the range boundary — the walk's
	// continuation depends on bytes outside the range.
	LocalEscape LocalFlags = 1 << iota
	// LocalSawMid: the walk arrived mid-instruction; the union-of-walks
	// order-independence argument no longer holds.
	LocalSawMid
	// LocalVerdictEscape: a verdict evaluation (funcReturns /
	// isCondNonRet mirror) stepped outside the range through an edge
	// the global walk would have followed into foreign code.
	LocalVerdictEscape
)

// LocalFacts are the cross-range-visible outputs of one restricted
// walk under one verdict environment. Two builds whose changed ranges
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
	// Flags are the fidelity flags of the walk itself.
	Flags LocalFlags
}

// Equal reports whether two fact sets are indistinguishable to the
// rest of the analysis: everything except the local instruction
// addresses must match exactly. Insts are intentionally excluded —
// interior layout may shift without any cross-range effect — except
// that delta replay separately substitutes fresh coverage for changed
// ranges.
func (f *LocalFacts) Equal(g *LocalFacts) bool {
	if f.Flags != g.Flags {
		return false
	}
	if !u64SlicesEqual(f.Calls, g.Calls) || !u64SlicesEqual(f.Pushes, g.Pushes) ||
		!u64SlicesEqual(f.Consts, g.Consts) || !u64SlicesEqual(f.TableBases, g.TableBases) {
		return false
	}
	if len(f.RefCounts) != len(g.RefCounts) {
		return false
	}
	for t, n := range f.RefCounts {
		if g.RefCounts[t] != n {
			return false
		}
	}
	if len(f.JmpOut) != len(g.JmpOut) {
		return false
	}
	for i := range f.JmpOut {
		if f.JmpOut[i].Target != g.JmpOut[i].Target || f.JmpOut[i].Jcc != g.JmpOut[i].Jcc {
			return false
		}
	}
	return true
}

func u64SlicesEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// LocalWalk is the result of one restricted walk: the public facts
// plus the private instruction state the verdict evaluators run over.
type LocalWalk struct {
	rng   FuncRange
	res   *Result
	facts *LocalFacts
	// seen is the session's pushed mark set, the verdict evaluators'
	// visited set once the walk is done.
	seen *walkMarks
}

// Facts returns the walk's cross-visible facts.
func (lw *LocalWalk) Facts() *LocalFacts { return lw.facts }

// WalkLocal runs the committed-pass recursive descent restricted to
// [rng.Start, rng.End), from the given entry addresses, under the
// given non-return environment. It mirrors Session.pass exactly —
// same gate rules, same rdi tracking, same jump-table analysis — but
// records pushes that leave the range as facts instead of following
// them, exactly as the global walk's contribution of this range would
// appear to every other range. Decodes go through the session cache.
//
// Like Probe, the walk records coverage in the session's owner
// workspace and returns it when done: the walk's private result carries
// no coverage index, and nothing reads one after the walk.
func (s *Session) WalkLocal(rng FuncRange, entries []uint64,
	nonRet, condNonRet map[uint64]bool) *LocalWalk {

	img := s.img
	facts := &LocalFacts{RefCounts: make(map[uint64]int)}
	own := s.borrowOwner()
	res := &Result{
		isa:        s.isa,
		Insts:      make(map[uint64]*arch.Inst),
		Funcs:      make(map[uint64]bool),
		Refs:       make(map[uint64][]uint64),
		Constants:  make(map[uint64]bool),
		NonRet:     nonRet,
		CondNonRet: condNonRet,
		JTTargets:  make(map[uint64][]uint64),
		TableBases: make(map[uint64]bool),
		owner:      own,
	}
	inRange := func(a uint64) bool { return a >= rng.Start && a < rng.End }

	type workItem struct {
		addr uint64
		rdi  rdiState
	}
	var work []workItem
	pushed, decoded := s.pushed, s.decoded
	pushed.next()
	decoded.next()
	push := func(addr uint64, rdi rdiState) {
		// Out-of-range pushes become facts; in-range pushes are walked.
		if !inRange(addr) {
			facts.Pushes = append(facts.Pushes, addr)
			return
		}
		if pushed.add(addr) {
			work = append(work, workItem{addr, rdi})
		}
	}
	addRef := func(target, from uint64) {
		res.Refs[target] = append(res.Refs[target], from)
		facts.RefCounts[target]++
	}

	for _, sd := range entries {
		res.Funcs[sd] = true
		if inRange(sd) && pushed.add(sd) {
			work = append(work, workItem{sd, rdiUnknown})
		}
	}

	for len(work) > 0 {
		item := work[len(work)-1]
		work = work[:len(work)-1]
		addr := item.addr
		rdi := item.rdi

		for {
			if !inRange(addr) {
				// A fall-through run reached the boundary: the global
				// walk would continue into the neighbor's bytes.
				facts.Flags |= LocalEscape
				break
			}
			if decoded.has(addr) {
				break
			}
			if owner, mid := own.get(addr); mid && owner != addr {
				res.sawMid = true
				facts.Flags |= LocalSawMid
				break
			}
			if !img.IsExec(addr) {
				break
			}
			e := s.decode(addr)
			if e.kind != decodeOK {
				break
			}
			in := e.inst
			if in.Next() > rng.End {
				// Straddles the range end: the decode itself reads
				// neighbor bytes.
				facts.Flags |= LocalEscape
				break
			}
			res.Insts[addr] = in
			decoded.add(addr)
			own.setRange(addr, int(in.Len))
			for _, c := range e.consts {
				res.Constants[c] = true
			}

			switch e.rdi {
			case arch.GateSetUnknown:
				rdi = rdiUnknown
			case arch.GateSetZero:
				rdi = rdiZero
			case arch.GateSetNonZero:
				rdi = rdiNonZero
			}

			switch in.Op {
			case arch.OpCall:
				t := in.Target
				if !img.IsExec(t) {
					break // falls through below, like the global walk
				}
				addRef(t, in.Addr)
				res.Funcs[t] = true
				facts.Calls = append(facts.Calls, t)
				push(t, rdiUnknown)
				if nonRet[t] {
					goto pathDone
				}
				if condNonRet[t] && rdi != rdiZero {
					goto pathDone
				}
				rdi = rdiUnknown
				addr = in.Next()
				continue
			case arch.OpJcc:
				t := in.Target
				if img.IsExec(t) {
					addRef(t, in.Addr)
					push(t, rdiUnknown)
				}
				if !inRange(t) {
					facts.JmpOut = append(facts.JmpOut, JumpFact{in.Addr, t, true})
				}
				addr = in.Next()
				continue
			case arch.OpJmp:
				t := in.Target
				if img.IsExec(t) {
					addRef(t, in.Addr)
					push(t, rdiUnknown)
				}
				if !inRange(t) {
					facts.JmpOut = append(facts.JmpOut, JumpFact{in.Addr, t, false})
				}
				goto pathDone
			case arch.OpJmpInd:
				targets := s.isa.ResolveJumpTable(jtCtx{img: img, isa: s.isa, res: res}, in, maxJumpTableEntries)
				if len(targets) > 0 {
					res.JTTargets[in.Addr] = targets
				}
				for _, t := range targets {
					addRef(t, in.Addr)
					push(t, rdiUnknown)
				}
				goto pathDone
			case arch.OpRet, arch.OpUd2, arch.OpHlt, arch.OpInt3:
				goto pathDone
			}
			addr = in.Next()
		}
	pathDone:
	}
	s.returnOwner(res)

	// Project the private result into the sorted fact lists.
	facts.Insts = make([]InstFact, 0, len(res.Insts))
	for a, in := range res.Insts {
		facts.Insts = append(facts.Insts, InstFact{a, uint16(in.Len)})
	}
	sort.Slice(facts.Insts, func(i, j int) bool { return facts.Insts[i].Addr < facts.Insts[j].Addr })
	facts.Calls = sortedDistinct(facts.Calls)
	facts.Pushes = sortedDistinct(facts.Pushes)
	for c := range res.Constants {
		facts.Consts = append(facts.Consts, c)
	}
	sort.Slice(facts.Consts, func(i, j int) bool { return facts.Consts[i] < facts.Consts[j] })
	for b := range res.TableBases {
		facts.TableBases = append(facts.TableBases, b)
	}
	sort.Slice(facts.TableBases, func(i, j int) bool { return facts.TableBases[i] < facts.TableBases[j] })
	facts.TableReads = append(facts.TableReads, res.tableReads...)
	sort.Slice(facts.JmpOut, func(i, j int) bool { return facts.JmpOut[i].Addr < facts.JmpOut[j].Addr })

	return &LocalWalk{rng: rng, res: res, facts: facts, seen: pushed}
}

func sortedDistinct(in []uint64) []uint64 {
	if len(in) == 0 {
		return nil
	}
	sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
	out := in[:1]
	for _, v := range in[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// EntryReturns mirrors funcReturns for one entry of the walked range
// against an explicit returns assignment for foreign functions.
// returnsOf answers "does function t return" for delegated call and
// tail-jump targets; isFunc answers global function-set membership
// (the tail-jump gate). queried collects every target whose returnsOf
// or isFunc answer influenced the outcome, so the caller can reject
// environments where those answers were iteration-dependent. ok=false
// means the evaluation escaped the range and the verdict cannot be
// derived locally.
func (lw *LocalWalk) EntryReturns(entry uint64,
	returnsOf func(uint64) bool, isFunc func(uint64) bool) (verdict bool, queried []uint64, ok bool) {

	res := lw.res
	inRange := func(a uint64) bool { return a >= lw.rng.Start && a < lw.rng.End }
	query := func(t uint64) { queried = append(queried, t) }
	seen := lw.seen
	seen.next()
	stack := []uint64{entry}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for {
			if !seen.add(a) {
				break
			}
			in, found := res.Insts[a]
			if !found {
				if inRange(a) {
					break // no coverage here, same as the global walk
				}
				return false, queried, false // escaped
			}
			switch in.Op {
			case arch.OpRet:
				return true, queried, true
			case arch.OpJcc:
				stack = append(stack, in.Target)
				a = in.Next()
				continue
			case arch.OpJmp:
				t := in.Target
				query(t)
				if isFunc(t) && t != entry {
					if returnsOf(t) {
						return true, queried, true
					}
				} else {
					stack = append(stack, t)
				}
			case arch.OpJmpInd:
				for _, t := range res.JTTargets[a] {
					stack = append(stack, t)
				}
			case arch.OpCall:
				query(in.Target)
				if returnsOf(in.Target) {
					a = in.Next()
					continue
				}
			case arch.OpUd2, arch.OpHlt, arch.OpInt3:
				// Terminal.
			default:
				a = in.Next()
				continue
			}
			break
		}
	}
	return false, queried, true
}

// CondFacts mirrors isCondNonRet's environment-independent skeleton
// for one entry: whether the entry block tests the first argument, and
// the set of call targets reachable by the body walk (which ignores
// gates). The verdict under any environment is then
// hasTest && (targets ∩ nonRet ≠ ∅). queried collects function-set
// membership queries; ok=false means the walk escaped the range.
func (lw *LocalWalk) CondFacts(entry uint64, isFunc func(uint64) bool) (hasTest bool, bodyCalls []uint64, queried []uint64, ok bool) {
	res := lw.res
	inRange := func(a uint64) bool { return a >= lw.rng.Start && a < lw.rng.End }

	a := entry
	gate := res.isa.GateReg()
	for k := 0; k < 3; k++ {
		in, found := res.Insts[a]
		if !found {
			return false, nil, nil, true
		}
		if arch.IsGateTest(in, gate) {
			hasTest = true
			break
		}
		if in.IsBranch() || in.IsCall() {
			return false, nil, nil, true
		}
		a = in.Next()
	}
	if !hasTest {
		return false, nil, nil, true
	}

	seen := lw.seen
	seen.next()
	stack := []uint64{entry}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for {
			if !seen.add(a) {
				break
			}
			in, found := res.Insts[a]
			if !found {
				if inRange(a) {
					break
				}
				return false, nil, nil, false // escaped
			}
			if in.Op == arch.OpCall {
				bodyCalls = append(bodyCalls, in.Target)
				a = in.Next()
				continue
			}
			if in.Op == arch.OpJcc {
				stack = append(stack, in.Target)
				a = in.Next()
				continue
			}
			if in.Op == arch.OpJmp {
				queried = append(queried, in.Target)
				if !isFunc(in.Target) {
					stack = append(stack, in.Target)
				}
				break
			}
			if in.Terminates() || in.Op == arch.OpInt3 {
				break
			}
			a = in.Next()
			continue
		}
	}
	return true, sortedDistinct(bodyCalls), queried, true
}

// BuildCoverage constructs a coverage-only Result from persisted
// instruction facts: InstStartAt/Covered answer exactly as they would
// on the original result, with no decoded instruction values behind
// them. Delta replay uses it to answer the committed-state queries of
// candidate re-validation (seed rules and phase-overlap checks).
// Persisted facts carry no section layout, so the owner index reserves
// one span per address cluster instead of one per section.
func BuildCoverage(facts []InstFact) *Result {
	if !sort.SliceIsSorted(facts, func(i, j int) bool { return facts[i].Addr < facts[j].Addr }) {
		sorted := append([]InstFact(nil), facts...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Addr < sorted[j].Addr })
		facts = sorted
	}
	own := newOwnerIndex(nil)
	const maxGap = 1 << 16 // start a new span across section-sized holes
	for i := 0; i < len(facts); {
		base := facts[i].Addr
		end := base
		j := i
		for j < len(facts) && facts[j].Addr <= end+maxGap {
			if e := facts[j].Addr + uint64(facts[j].Len); e > end {
				end = e
			}
			j++
		}
		own.spans = append(own.spans, newOwnerSpan(Range{Start: base, End: end}))
		sp := &own.spans[len(own.spans)-1]
		for ; i < j; i++ {
			own.fill(sp, facts[i].Addr-base, int(facts[i].Len))
		}
	}
	return &Result{owner: own}
}
