package disasm

import (
	"fetch/internal/arch"
)

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
func (s *Session) inferNonReturning(res *Result) (map[uint64]bool, map[uint64]bool) {
	funcs := res.SortedFuncs()
	// Optimistic greatest fixed point, as in DYNINST: every function
	// is presumed returning until no path to a ret remains under the
	// current knowledge. (A pessimistic least fixed point would
	// deadlock on mutual recursion, wrongly marking the whole cycle
	// non-returning.)
	returns := make(map[uint64]bool, len(funcs))
	for _, f := range funcs {
		returns[f] = true
	}
	for changed := true; changed; {
		changed = false
		for _, f := range funcs {
			if !returns[f] {
				continue
			}
			if !s.funcReturns(res, f, returns) {
				returns[f] = false
				changed = true
			}
		}
	}
	nonRet := map[uint64]bool{}
	for _, f := range funcs {
		if !returns[f] {
			nonRet[f] = true
		}
	}
	cond := map[uint64]bool{}
	for _, f := range funcs {
		if returns[f] && s.isCondNonRet(res, f, nonRet) {
			cond[f] = true
		}
	}
	return nonRet, cond
}

// passInst answers res.Insts[addr] for the result res of the session's
// last pass from the pass's dense state: membership from the decoded
// marks, the decoding from the decode arena. An address the arena did
// not memoize (outside the executable layout, or past the arena's
// int32 bound) falls back to res.Insts. The marks describe the last
// pass only until the next walk resets them.
func (s *Session) passInst(res *Result, addr uint64) (*arch.Inst, bool) {
	if !s.decoded.has(addr) {
		return nil, false
	}
	if p := s.cache.index.at(addr); p != nil && *p != 0 {
		return s.cache.entries[*p-1].inst, true
	}
	in, ok := res.Insts[addr]
	return in, ok
}

// funcReturns walks the intra-procedural instructions of f (as decoded
// so far) looking for a reachable ret, delegating through tail jumps.
// Marking an address before knowing it holds an instruction is safe:
// either way the path ends there.
func (s *Session) funcReturns(res *Result, f uint64, returns map[uint64]bool) bool {
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
			in, ok := s.passInst(res, a)
			if !ok {
				break
			}
			switch in.Op {
			case arch.OpRet:
				return true
			case arch.OpJcc:
				stack = append(stack, in.Target)
				a = in.Next()
				continue
			case arch.OpJmp:
				t := in.Target
				if res.Funcs[t] && t != f {
					// Tail edge: f returns iff the target does.
					if returns[t] {
						return true
					}
				} else {
					stack = append(stack, t)
				}
			case arch.OpJmpInd:
				for _, t := range res.JTTargets[a] {
					stack = append(stack, t)
				}
			case arch.OpCall:
				if returns[in.Target] {
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
	return false
}

// isCondNonRet matches the error/error_at_line shape: an entry-block
// test of the first argument register, a returning path, and a path
// into a non-returning call.
func (s *Session) isCondNonRet(res *Result, f uint64, nonRet map[uint64]bool) bool {
	// Entry test within the first three instructions.
	a := f
	gate := res.isa.GateReg()
	sawTest := false
	for k := 0; k < 3; k++ {
		in, ok := s.passInst(res, a)
		if !ok {
			return false
		}
		if arch.IsGateTest(in, gate) {
			sawTest = true
			break
		}
		if in.IsBranch() || in.IsCall() {
			return false
		}
		a = in.Next()
	}
	if !sawTest {
		return false
	}
	// A call into a non-returning function somewhere in the body.
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
			in, ok := s.passInst(res, a)
			if !ok {
				break
			}
			if in.Op == arch.OpCall && nonRet[in.Target] {
				return true
			}
			if in.Op == arch.OpJcc {
				stack = append(stack, in.Target)
				a = in.Next()
				continue
			}
			if in.Op == arch.OpJmp {
				if !res.Funcs[in.Target] {
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
	return false
}
