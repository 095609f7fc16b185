package disasm

import (
	"slices"

	"fetch/internal/arch"
)

// verdictScope is what a non-return verdict walk (funcReturns,
// condCalls) runs against. The committed inference scopes a verdict to
// its own pass: the pass's function set, no range, and for its
// funcReturns walks a query log, from which it builds the worklist's
// reader lists (verdictDeps). Delta replay scopes one to a bounded
// walk (see LocalWalk): the recorded function set, the walk's range,
// and a query log the caller uses to reject environments whose answers
// were iteration-dependent.
type verdictScope struct {
	// res is the walk whose instructions the verdict reads, through
	// passInst: it must be the session's last walk.
	res *Result
	// funcs is the function set a tail edge is tested against.
	funcs map[uint64]bool
	// rng, when set, is the only place the walk decoded: reaching an
	// undecoded address outside it makes the verdict underivable.
	rng *FuncRange
	// log, when set, collects every call and tail-jump target whose
	// function-set membership or non-return state the verdict consulted.
	log *[]uint64
}

// query logs a consulted target.
func (sc *verdictScope) query(t uint64) {
	if sc.log != nil {
		*sc.log = append(*sc.log, t)
	}
}

// escapes reports whether the undecoded address a lies outside the
// scope's range, where the walk's absence of an instruction says
// nothing about the unbounded walk.
func (sc *verdictScope) escapes(a uint64) bool {
	return sc.rng != nil && !sc.rng.contains(a)
}

// inferNonReturning computes the non-returning function set over the
// result of the session's last pass by monotone fixed point: a function
// returns when some intra-procedural path reaches a ret (call
// fall-through is only taken past callees already known to return; tail
// jumps delegate to the target). Functions never proven returning are
// non-returning — the conservative direction for stopping fall-through
// decode.
//
// It additionally classifies error/error_at_line-style functions
// (§IV-C): functions that do return, but whose body contains an entry
// test of the first argument guarding a path into a non-returning call.
//
// The per-function walks read the pass's instructions through passInst
// and use pushed as their visited set, so exec calls this straight
// after the pass (see walkMarks).
//
// The fixed point runs on a worklist. Every function is walked once,
// in address order; a walk that finds f returning records the call and
// tail-jump targets it consulted, and when one of them turns
// non-returning, only the functions whose last walk consulted it are
// walked again. funcReturns reads the non-returning set only at the
// targets it consults, and a larger set never makes a function
// return, so the set this reaches is the one a sweep over every
// function until nothing changes reaches: the least set closed under
// the walk, whatever order the functions are walked in.
func (s *Session) inferNonReturning(res *Result) (map[uint64]bool, map[uint64]bool) {
	funcs := res.SortedFuncs()
	w := &s.deps
	w.reset(len(funcs))
	sc := &verdictScope{res: res, funcs: res.Funcs, log: &w.log}
	// Optimistic greatest fixed point, as in DYNINST: every function
	// is presumed returning until no path to a ret remains under the
	// current knowledge. (A pessimistic least fixed point would
	// deadlock on mutual recursion, wrongly marking the whole cycle
	// non-returning.)
	nonRet := map[uint64]bool{}
	for head := 0; head < len(w.queue); head++ {
		i := w.queue[head]
		w.queued[i] = false
		f := funcs[i]
		w.log = w.log[:0]
		if returns, _ := s.funcReturns(sc, f, nonRet); returns {
			for _, t := range w.log {
				if j, ok := slices.BinarySearch(funcs, t); ok && w.last[j] != i && !nonRet[t] {
					w.last[j] = i
					w.readers[j] = append(w.readers[j], i)
				}
			}
			continue
		}
		nonRet[f] = true
		for _, r := range w.readers[i] {
			if !w.queued[r] && !nonRet[funcs[r]] {
				w.queued[r] = true
				w.queue = append(w.queue, r)
			}
		}
	}
	sc.log = nil
	isNonRet := func(t uint64) bool { return nonRet[t] }
	cond := map[uint64]bool{}
	for _, f := range funcs {
		if nonRet[f] {
			continue
		}
		if tests, calls, _ := s.condCalls(sc, f); tests && slices.ContainsFunc(calls, isNonRet) {
			cond[f] = true
		}
	}
	return nonRet, cond
}

// verdictDeps is the inference worklist, indexed by position in the
// pass's sorted function list and kept by the session between
// inferences. readers[j] lists the functions whose walk consulted
// function j and found them returning; a function walked again appends
// itself anew, so the lists may hold stale or repeated readers, which
// cost at most a walk that changes nothing.
type verdictDeps struct {
	// queue holds the functions to walk, in order; queued marks those
	// not yet walked since they were queued.
	queue  []int32
	queued []bool
	// readers are the dependency lists; last[j] is the reader appended
	// to readers[j] most recently, which the next walk of that reader
	// does not append again.
	readers [][]int32
	last    []int32
	// log collects the current walk's consulted targets.
	log []uint64
}

// reset sizes the worklist for n functions, all queued in order.
func (w *verdictDeps) reset(n int) {
	w.queue = w.queue[:0]
	for i := 0; i < n; i++ {
		w.queue = append(w.queue, int32(i))
	}
	w.queued = slices.Grow(w.queued[:0], n)[:n]
	w.last = slices.Grow(w.last[:0], n)[:n]
	if cap(w.readers) < n {
		w.readers = append(w.readers[:cap(w.readers)], make([][]int32, n-cap(w.readers))...)
	}
	w.readers = w.readers[:n]
	for i := 0; i < n; i++ {
		w.queued[i] = true
		w.last[i] = -1
		w.readers[i] = w.readers[i][:0]
	}
}

// passInst returns the instruction the session's last walk, whose
// result is res, decoded at addr — during the walk too, when Insts is
// still in walk order and holds only the instructions so far. It reads
// the walk's dense state: membership from the decoded marks, the
// decoding from the decode arena. An address the arena did not memoize
// (outside the executable layout, or past the arena's int32 bound) is
// looked up by a scan of res.Insts. The marks describe the last walk
// only until the next walk resets them.
func (s *Session) passInst(res *Result, addr uint64) (*arch.Inst, bool) {
	if !s.decoded.has(addr) {
		return nil, false
	}
	if p := s.cache.index.at(addr); p != nil && *p != 0 {
		return &s.cache.entry(*p - 1).inst, true
	}
	if i := slices.IndexFunc(res.Insts, func(in *arch.Inst) bool { return in.Addr == addr }); i >= 0 {
		return res.Insts[i], true
	}
	return nil, false
}

// funcReturns walks the intra-procedural instructions of f (as decoded
// so far) looking for a reachable ret under the non-returning set
// nonRet. A call falls through only when its target is a function of
// the walk (sc.res.Funcs) not in nonRet; a tail jump to another
// function of sc.funcs returns iff its target is not in nonRet. ok is
// false when the walk reached an undecoded address outside sc.rng.
// Marking an address before knowing it holds an instruction is safe:
// either way the path ends there.
func (s *Session) funcReturns(sc *verdictScope, f uint64, nonRet map[uint64]bool) (returns, ok bool) {
	s.stats.VerdictWalks++
	res := sc.res
	seen := s.pushed
	seen.next()
	stack := []uint64{f}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for {
			if !seen.add(a) {
				break
			}
			in, found := s.passInst(res, a)
			if !found {
				if sc.escapes(a) {
					return false, false
				}
				break
			}
			switch in.Op {
			case arch.OpRet:
				return true, true
			case arch.OpJcc:
				stack = append(stack, in.Target)
				a = in.Next()
				continue
			case arch.OpJmp:
				t := in.Target
				sc.query(t)
				if sc.funcs[t] && t != f {
					// Tail edge: f returns iff the target does.
					if !nonRet[t] {
						return true, true
					}
				} else {
					stack = append(stack, t)
				}
			case arch.OpJmpInd:
				stack = append(stack, res.JTTargets[a]...)
			case arch.OpCall:
				t := in.Target
				sc.query(t)
				if res.Funcs[t] && !nonRet[t] {
					a = in.Next()
					continue
				}
				// Callee not (yet) proven returning: stop this path;
				// the outer fixed point revisits when it flips.
			case arch.OpUd2, arch.OpHlt, arch.OpInt3:
				// Terminal.
			default:
				a = in.Next()
				continue
			}
			break
		}
	}
	return false, true
}

// condCalls is the environment-independent skeleton of the §IV-C
// error/error_at_line shape for f: whether f's entry block tests the
// first-argument register within its first three instructions, and if
// so the call targets the body walk reaches (with repeats). The walk
// follows conditional branches and jumps to addresses outside sc.funcs,
// and ignores gates. A returning f is conditionally non-returning under
// nonRet iff it tests and one of calls is in nonRet. ok is false when
// the body walk reached an undecoded address outside sc.rng.
func (s *Session) condCalls(sc *verdictScope, f uint64) (tests bool, calls []uint64, ok bool) {
	res := sc.res
	a := f
	gate := res.isa.GateReg()
	for k := 0; k < 3; k++ {
		in, found := s.passInst(res, a)
		if !found {
			return false, nil, true
		}
		if arch.IsGateTest(in, gate) {
			tests = true
			break
		}
		if in.IsBranch() || in.IsCall() {
			return false, nil, true
		}
		a = in.Next()
	}
	if !tests {
		return false, nil, true
	}
	seen := s.pushed
	seen.next()
	stack := []uint64{f}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for {
			if !seen.add(a) {
				break
			}
			in, found := s.passInst(res, a)
			if !found {
				if sc.escapes(a) {
					return false, nil, false
				}
				break
			}
			if in.Op == arch.OpCall {
				calls = append(calls, in.Target)
				a = in.Next()
				continue
			}
			if in.Op == arch.OpJcc {
				stack = append(stack, in.Target)
				a = in.Next()
				continue
			}
			if in.Op == arch.OpJmp {
				sc.query(in.Target)
				if !sc.funcs[in.Target] {
					stack = append(stack, in.Target)
				}
				break
			}
			if in.Terminates() || in.Op == arch.OpInt3 {
				break
			}
			a = in.Next()
		}
	}
	return true, calls, true
}
