package disasm

import (
	"reflect"
	"testing"

	"fetch/internal/arch"
	"fetch/internal/ehframe"
	"fetch/internal/elfx"
	"fetch/internal/synth"
)

// refInferNonReturning, refFuncReturns and refIsCondNonRet are the
// map-based non-return inference the dense-state inference replaced,
// kept verbatim (apart from their names) as the reference: they read
// instructions from insts, the pass's instructions by address (see
// instMap).
func refInferNonReturning(res *Result, insts map[uint64]*arch.Inst, seen *walkMarks) (map[uint64]bool, map[uint64]bool) {
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
			if !refFuncReturns(res, insts, f, returns, seen) {
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
		if returns[f] && refIsCondNonRet(res, insts, f, nonRet, seen) {
			cond[f] = true
		}
	}
	return nonRet, cond
}

func refFuncReturns(res *Result, insts map[uint64]*arch.Inst, f uint64, returns map[uint64]bool, seen *walkMarks) bool {
	seen.next()
	stack := []uint64{f}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for {
			if !seen.add(a) {
				break
			}
			in, ok := insts[a]
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

func refIsCondNonRet(res *Result, insts map[uint64]*arch.Inst, f uint64, nonRet map[uint64]bool, seen *walkMarks) bool {
	// Entry test within the first three instructions.
	a := f
	gate := res.isa.GateReg()
	sawTest := false
	for k := 0; k < 3; k++ {
		in, ok := insts[a]
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
	seen.next()
	stack := []uint64{f}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for {
			if !seen.add(a) {
				break
			}
			in, ok := insts[a]
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

// instMap indexes a result's instructions by address.
func instMap(res *Result) map[uint64]*arch.Inst {
	m := make(map[uint64]*arch.Inst, len(res.Insts))
	for _, in := range res.Insts {
		m[in.Addr] = in
	}
	return m
}

// contractProfile is one synth adversarial binary with its FDE data.
type contractProfile struct {
	name string
	img  *elfx.Image
	sec  *ehframe.Section
}

// contractProfiles generates every adversarial profile on both ISAs.
func contractProfiles(t *testing.T) []contractProfile {
	t.Helper()
	var out []contractProfile
	for _, isa := range []string{"x64", "a64"} {
		for _, name := range synth.ProfileNames() {
			cfg, err := synth.AdversarialProfileArch(name, 5, isa)
			if err != nil {
				t.Fatal(err)
			}
			img, _, err := synth.Generate(cfg)
			if err != nil {
				t.Fatalf("%s: %v", cfg.Name, err)
			}
			img = img.Strip()
			eh, ok := img.Section(".eh_frame")
			if !ok {
				t.Fatalf("%s: no .eh_frame", cfg.Name)
			}
			sec, err := ehframe.Decode(eh.Bytes(), eh.Addr)
			if err != nil {
				t.Fatalf("%s: %v", cfg.Name, err)
			}
			out = append(out, contractProfile{name: cfg.Name, img: img, sec: sec})
		}
	}
	return out
}

// inferenceCheck is an ExecObserver that runs the session's dense-state
// inference on every committed pass and requires it to equal the
// map-based reference over the same result.
type inferenceCheck struct {
	t      *testing.T
	label  string
	sess   *Session
	passes int
	// nonRet and cond count the verdicts compared.
	nonRet, cond int
}

func (c *inferenceCheck) OnPass(_, _ map[uint64]bool, res *Result) {
	c.passes++
	gotNR, gotCond := c.sess.inferNonReturning(res)
	c.nonRet += len(gotNR)
	c.cond += len(gotCond)
	wantNR, wantCond := refInferNonReturning(res, instMap(res), newWalkMarks(c.sess.layout))
	if !reflect.DeepEqual(gotNR, wantNR) {
		c.t.Fatalf("%s pass %d: non-returning set %v, reference %v", c.label, c.passes, gotNR, wantNR)
	}
	if !reflect.DeepEqual(gotCond, wantCond) {
		c.t.Fatalf("%s pass %d: conditional set %v, reference %v", c.label, c.passes, gotCond, wantCond)
	}
}

// TestInferenceMatchesMapReference compares the dense-state inference
// with the map-based reference after every committed pass of a session
// that extends, retracts and reruns, with strict probes in between
// that reset the walk marks the inference reads.
func TestInferenceMatchesMapReference(t *testing.T) {
	nonRet, cond := 0, 0
	for _, p := range contractProfiles(t) {
		seeds := p.sec.FunctionStarts()
		sess := NewSession(p.img, Options{ResolveJumpTables: true, NonReturning: true})
		check := &inferenceCheck{t: t, label: p.name, sess: sess}
		sess.SetExecObserver(check)
		probe := func() {
			for i := 0; i < len(seeds); i += 5 {
				sess.Probe([]uint64{seeds[i] + 1}, Options{ResolveJumpTables: true, Strict: true, MaxInsts: 200})
			}
		}
		sess.Extend(seeds[:len(seeds)/2])
		probe()
		sess.Extend(seeds[len(seeds)/2:])
		probe()
		var drop []uint64
		for i := 0; i < len(seeds); i += 3 {
			drop = append(drop, seeds[i])
		}
		sess.Retract(drop)
		probe()
		sess.Rerun(seeds)
		if check.passes < 4 {
			t.Fatalf("%s: only %d committed passes observed", p.name, check.passes)
		}
		nonRet += check.nonRet
		cond += check.cond
	}
	if nonRet == 0 || cond == 0 {
		t.Fatalf("compared %d non-returning and %d conditional verdicts: the profiles no longer exercise both", nonRet, cond)
	}
	if testing.Verbose() {
		t.Logf("compared %d non-returning and %d conditional verdicts", nonRet, cond)
	}
}

// TestPassInstFallsBackToInsts pins the lookup's fallback: an
// instruction the decode index does not locate is still answered, from
// res.Insts (in walk order straight after the pass), and an address the
// pass did not decode is absent.
func TestPassInstFallsBackToInsts(t *testing.T) {
	img, _, sec := buildBinary(t, 21, nil)
	sess := NewSession(img, defaultOpts())
	res := sess.pass(sec.FunctionStarts(), defaultOpts(), map[uint64]bool{}, map[uint64]bool{}, newOwnerIndex(sess.layout), nil)
	if len(res.Insts) == 0 {
		t.Fatal("pass decoded nothing")
	}
	insts := instMap(res)
	for _, want := range res.Insts {
		a := want.Addr
		got, ok := sess.passInst(res, a)
		if !ok || got != want {
			t.Fatalf("%#x: passInst = %v, %v; want %v", a, got, ok, want)
		}
		// Forget the memoized decode: the lookup falls back to the map.
		*sess.cache.index.at(a) = 0
		if got, ok := sess.passInst(res, a); !ok || got != want {
			t.Fatalf("%#x without its index slot: passInst = %v, %v; want %v", a, got, ok, want)
		}
		if _, in := insts[a+1]; !in {
			if _, ok := sess.passInst(res, a+1); ok {
				t.Fatalf("%#x: passInst answers for an address the pass did not decode", a+1)
			}
		}
	}
}

// TestStrictWalkStopsAtFirstError pins the strict-walk contract
// candidate validation relies on: a strict walk that meets an error
// returns exactly that one error and a subset of the instructions the
// non-strict walk over the same seeds decodes; one that meets none
// decodes exactly the non-strict walk's instructions.
func TestStrictWalkStopsAtFirstError(t *testing.T) {
	failed, cut := 0, 0
	for _, p := range contractProfiles(t) {
		var known []FuncRange
		for _, f := range p.sec.FDEs {
			known = append(known, FuncRange{Start: f.PCBegin, End: f.End()})
		}
		strict := Options{ResolveJumpTables: true, Strict: true, KnownRanges: known, MaxInsts: 2000}
		loose := strict
		loose.Strict = false
		sess := NewSession(p.img, defaultOpts())
		text, _ := p.img.Section(".text")
		for off := uint64(0); off < text.Size(); off += 97 {
			seed := text.Addr + off
			s := sess.Probe([]uint64{seed}, strict)
			l := sess.Probe([]uint64{seed}, loose)
			if len(l.Errors) != 0 {
				t.Fatalf("%s seed %#x: non-strict walk recorded %d errors", p.name, seed, len(l.Errors))
			}
			switch len(s.Errors) {
			case 0:
				if !reflect.DeepEqual(s.Insts, l.Insts) {
					t.Fatalf("%s seed %#x: error-free strict walk decoded %d instructions, non-strict %d",
						p.name, seed, len(s.Insts), len(l.Insts))
				}
			case 1:
				failed++
				looseInsts := instMap(l)
				for _, in := range s.Insts {
					if looseInsts[in.Addr] != in {
						t.Fatalf("%s seed %#x: strict walk decoded %#x, which the non-strict walk did not", p.name, seed, in.Addr)
					}
				}
				if len(s.Insts) < len(l.Insts) {
					cut++
				}
			default:
				t.Fatalf("%s seed %#x: strict walk returned %d errors, want at most one", p.name, seed, len(s.Errors))
			}
		}
	}
	if testing.Verbose() {
		t.Logf("%d strict walks failed, %d of them cut short", failed, cut)
	}
	if failed == 0 || cut == 0 {
		t.Fatalf("%d strict walks failed, %d of them cut short: the seeds no longer exercise the contract", failed, cut)
	}
}
