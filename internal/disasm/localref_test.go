package disasm

import (
	"sort"

	"fetch/internal/arch"
)

// This file keeps the former implementation of delta replay's bounded
// walk and verdict evaluators — hand-kept mirrors of Session.pass,
// funcReturns and isCondNonRet, since replaced by WalkLocal's bounded
// pass and LocalWalk.EntryReturns/CondFacts — as the reference the
// differential test and FuzzBoundedWalk compare against. The code is
// verbatim apart from renamed identifiers and the edits marked EDIT 1
// and EDIT 2, the two places the mirrors had drifted from the engine,
// and EDIT 3, a rule the engine gained later. The mirrors keep the
// walk's instructions in the map Result used to hold, now their own
// (insts); the references Result.Refs used to collect were never read,
// so they are counted only.

// refLocalFlags mark walk events the local model cannot replay soundly.
type refLocalFlags uint8

// Local walk fidelity flags.
const (
	// refLocalEscape: a fall-through run reached the range end, or an
	// instruction straddles the range boundary — the walk's
	// continuation depends on bytes outside the range.
	refLocalEscape refLocalFlags = 1 << iota
	// refLocalSawMid: the walk arrived mid-instruction or decoded
	// overlapping instructions; the union-of-walks order-independence
	// argument no longer holds.
	refLocalSawMid
	// refLocalVerdictEscape: a verdict evaluation (funcReturns /
	// isCondNonRet mirror) stepped outside the range through an edge
	// the global walk would have followed into foreign code.
	refLocalVerdictEscape
)

// refLocalFacts are the cross-range-visible outputs of one restricted
// walk under one verdict environment. Two builds whose changed ranges
// produce equal refLocalFacts (per environment) are indistinguishable to
// every other function's analysis.
type refLocalFacts struct {
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
	Flags refLocalFlags
}

// refLocalWalk is the result of one restricted walk: the public facts
// plus the private instruction state the verdict evaluators run over.
type refLocalWalk struct {
	rng   FuncRange
	res   *Result
	insts map[uint64]*arch.Inst
	facts *refLocalFacts
	// seen is the session's pushed mark set, the verdict evaluators'
	// visited set once the walk is done.
	seen *walkMarks
}

// Facts returns the walk's cross-visible facts.
func (lw *refLocalWalk) Facts() *refLocalFacts { return lw.facts }

// refWalkLocal runs the committed-pass recursive descent restricted to
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
func refWalkLocal(s *Session, rng FuncRange, entries []uint64,
	nonRet, condNonRet map[uint64]bool) *refLocalWalk {

	img := s.img
	facts := &refLocalFacts{RefCounts: make(map[uint64]int)}
	own := s.borrowOwner()
	insts := make(map[uint64]*arch.Inst)
	res := &Result{
		isa:        s.isa,
		Funcs:      make(map[uint64]bool),
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
				facts.Flags |= refLocalEscape
				break
			}
			if decoded.has(addr) {
				break
			}
			if owner, mid := own.get(addr); mid && owner != addr {
				res.sawMid = true
				facts.Flags |= refLocalSawMid
				break
			}
			if !img.IsExec(addr) {
				break
			}
			e := s.decode(addr)
			if e.kind != decodeOK {
				break
			}
			in := &e.inst
			if in.Next() > rng.End {
				// Straddles the range end: the decode itself reads
				// neighbor bytes.
				facts.Flags |= refLocalEscape
				break
			}
			insts[addr] = in
			decoded.add(addr)
			if own.setRange(addr, int(in.Len)) {
				// EDIT 3 (overlap): an instruction overlapping one the
				// walk decoded earlier is order-sensitive like a
				// mid-instruction arrival; the engine flags both.
				res.sawMid = true
				facts.Flags |= refLocalSawMid
			}
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
				// EDIT 1 (absolute-table base): the engine used to record
				// the base of an x64 absolute table in Session.pass,
				// outside the resolver, so this mirror missed it. The
				// resolver now records it through jtCtx.RecordTableBase,
				// so this call carries the fix without a code change.
				targets := s.isa.ResolveJumpTable(jtCtx{s: s, res: res}, in, maxJumpTableEntries)
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
	facts.Insts = make([]InstFact, 0, len(insts))
	for a, in := range insts {
		facts.Insts = append(facts.Insts, InstFact{a, uint16(in.Len)})
	}
	sort.Slice(facts.Insts, func(i, j int) bool { return facts.Insts[i].Addr < facts.Insts[j].Addr })
	facts.Calls = refSortedDistinct(facts.Calls)
	facts.Pushes = refSortedDistinct(facts.Pushes)
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

	return &refLocalWalk{rng: rng, res: res, insts: insts, facts: facts, seen: pushed}
}

func refSortedDistinct(in []uint64) []uint64 {
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
func (lw *refLocalWalk) EntryReturns(entry uint64,
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
			in, found := lw.insts[a]
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
				// EDIT 2 (unmapped callee): a call to a non-executable
				// target, which the walk never adds to res.Funcs, ends
				// the path, as in the committed inference.
				if res.Funcs[in.Target] && returnsOf(in.Target) {
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
func (lw *refLocalWalk) CondFacts(entry uint64, isFunc func(uint64) bool) (hasTest bool, bodyCalls []uint64, queried []uint64, ok bool) {
	res := lw.res
	inRange := func(a uint64) bool { return a >= lw.rng.Start && a < lw.rng.End }

	a := entry
	gate := res.isa.GateReg()
	for k := 0; k < 3; k++ {
		in, found := lw.insts[a]
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
			in, found := lw.insts[a]
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
	return true, refSortedDistinct(bodyCalls), queried, true
}
