package disasm

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"fetch/internal/arch"
	"fetch/internal/ehframe"
	"fetch/internal/elfx"
	"fetch/internal/synth"
)

// refInferNonReturning, refFuncReturns and refIsCondNonRet are the
// map-based, round-robin non-return inference the dense-state worklist
// inference replaced, kept verbatim (apart from their names and the
// walk counter) as the reference: they read instructions from insts,
// the pass's instructions by address (see instMap), and every sweep
// walks every function still presumed returning. walks counts the
// refFuncReturns walks.
func refInferNonReturning(res *Result, insts map[uint64]*arch.Inst, seen *walkMarks, walks *int) (map[uint64]bool, map[uint64]bool) {
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
			*walks++
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

// refExec is the fixed-point loop exec replaced, kept verbatim (apart
// from its name and its receiver, a parameter here) as the reference
// for the pass skip: it walks every pass until the verdicts settle or
// the bound is reached, and puts every result that leaves the session,
// probes included, in address order.
func refExec(s *Session, seeds []uint64, opts Options, probe bool) *Result {
	observed := !probe && s.obs != nil
	nonRet := map[uint64]bool{}
	condNonRet := map[uint64]bool{}
	var buf passBuffers
	if !probe && s.res != nil {
		buf = buffersLike(s.res)
	}
	var res *Result
	for iter := 0; iter < 6; iter++ {
		if probe {
			res = s.pass(seeds, opts, nonRet, condNonRet, s.borrowOwner(), nil, buf)
			s.returnOwner(res)
		} else {
			res = s.pass(seeds, opts, nonRet, condNonRet, newOwnerIndex(s.layout), nil, buf)
		}
		buf = passBuffers{}
		s.notePassMem(res)
		if observed {
			s.sortResult(res)
			s.obs.OnPass(nonRet, condNonRet, res)
		}
		if !opts.NonReturning {
			break
		}
		newNonRet, newCond := s.inferNonReturning(res)
		if setsEqual(newNonRet, nonRet) && setsEqual(newCond, condNonRet) {
			break
		}
		nonRet, condNonRet = newNonRet, newCond
		if observed {
			buf = buffersLike(res)
		} else {
			buf = passBuffers{res.Insts[:0], res.Refs[:0]}
		}
	}
	if !observed {
		s.sortResult(res)
	}
	res.NonRet = nonRet
	res.CondNonRet = condNonRet
	return res
}

// refCommit commits seeds on ref through refExec, as Extend, Retract
// and Rerun commit their seed lists through exec.
func refCommit(ref *Session, seeds []uint64) *Result {
	ref.seeds = append(ref.seeds[:0:0], seeds...)
	ref.res = refExec(ref, ref.seeds, ref.opts, false)
	return ref.res
}

// loggedPass is one pass an ExecObserver saw: the verdicts it ran
// under and its instruction addresses, each sorted.
type loggedPass struct {
	nonRet, cond, insts []uint64
}

// passLog is an ExecObserver that logs every pass it sees.
type passLog struct{ passes []loggedPass }

func (l *passLog) OnPass(nonRet, condNonRet map[uint64]bool, res *Result) {
	keys := func(m map[uint64]bool) []uint64 {
		out := make([]uint64, 0, len(m))
		for a := range m {
			out = append(out, a)
		}
		slices.Sort(out)
		return out
	}
	p := loggedPass{nonRet: keys(nonRet), cond: keys(condNonRet)}
	for _, in := range res.Insts {
		p.insts = append(p.insts, in.Addr)
	}
	slices.Sort(p.insts)
	l.passes = append(l.passes, p)
}

// skipCheck drives one observed session through Extend, Extend,
// Retract and Rerun, and a second one through the same seed lists by
// refExec. Every result must be byte-identical to the reference's, and
// the observer of each must see the same passes: the same verdicts and
// the same instructions, pass for pass. It returns how many passes the
// session walked and how many the reference walked.
func skipCheck(t *testing.T, label string, img *elfx.Image, seeds []uint64) (walked, refWalked int) {
	t.Helper()
	opts := Options{ResolveJumpTables: true, NonReturning: true}
	sess, ref := NewSession(img, opts), NewSession(img, opts)
	got, want := &passLog{}, &passLog{}
	sess.SetExecObserver(got)
	ref.SetExecObserver(want)
	half := len(seeds) / 2
	var drop, kept []uint64
	for i := 0; i < len(seeds); i += 3 {
		drop = append(drop, seeds[i])
	}
	for _, sd := range seeds {
		if !slices.Contains(drop, sd) {
			kept = append(kept, sd)
		}
	}
	reversed := slices.Clone(seeds)
	slices.Reverse(reversed)
	steps := []struct {
		name string
		run  func() *Result
		ref  []uint64
	}{
		{"extend 1", func() *Result { return sess.Extend(seeds[:half]) }, seeds[:half]},
		{"extend 2", func() *Result { return sess.Extend(seeds[half:]) }, seeds},
		{"retract", func() *Result { return sess.Retract(drop) }, kept},
		{"rerun", func() *Result { return sess.Rerun(reversed) }, reversed},
	}
	for _, st := range steps {
		r := st.run()
		w := refCommit(ref, st.ref)
		requireEqualResults(t, label+" "+st.name, r, w)
		if !reflect.DeepEqual(got.passes, want.passes) {
			t.Fatalf("%s %s: observer saw %d passes, the reference's %d, or different ones",
				label, st.name, len(got.passes), len(want.passes))
		}
	}
	return sess.Stats().FixedPointPasses, ref.Stats().FixedPointPasses
}

// TestPassSkipMatchesReference compares the session's fixed point,
// which skips a pass that would repeat the last one, with refExec's,
// which walks it, on every adversarial profile on both ISAs and on the
// committed real binaries: results and observed passes must be equal,
// and the session must have skipped some passes.
func TestPassSkipMatchesReference(t *testing.T) {
	type input struct {
		name  string
		img   *elfx.Image
		seeds []uint64
	}
	var inputs []input
	for _, p := range contractProfiles(t) {
		inputs = append(inputs, input{p.name, p.img, p.sec.FunctionStarts()})
	}
	bins, err := filepath.Glob(filepath.Join("..", "..", "testdata", "realbin", "*.bin"))
	if err != nil || len(bins) == 0 {
		t.Fatalf("no real binaries: %v", err)
	}
	for _, path := range bins {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		img, err := elfx.LoadELF(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		img = img.Strip()
		eh, ok := img.Section(".eh_frame")
		if !ok {
			t.Fatalf("%s: no .eh_frame", path)
		}
		sec, err := ehframe.Decode(eh.Bytes(), eh.Addr)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		inputs = append(inputs, input{filepath.Base(path), img, sec.FunctionStarts()})
	}
	walked, refWalked := 0, 0
	for _, in := range inputs {
		w, rw := skipCheck(t, in.name, in.img, in.seeds)
		walked += w
		refWalked += rw
	}
	if testing.Verbose() {
		t.Logf("%d inputs: %d passes walked, the reference %d", len(inputs), walked, refWalked)
	}
	if walked >= refWalked {
		t.Fatalf("%d passes walked, the reference %d: no pass was skipped", walked, refWalked)
	}
}

// inferenceCheck is an ExecObserver that runs the session's dense-state
// inference on every committed pass and requires it to equal the
// map-based reference over the same result, in no more walks.
type inferenceCheck struct {
	t      *testing.T
	label  string
	sess   *Session
	passes int
	// nonRet and cond count the verdicts compared; walks and refWalks
	// the funcReturns walks of the inference and of the reference.
	nonRet, cond    int
	walks, refWalks int
}

func (c *inferenceCheck) OnPass(_, _ map[uint64]bool, res *Result) {
	c.passes++
	before := c.sess.stats.VerdictWalks
	gotNR, gotCond := c.sess.inferNonReturning(res)
	walks := c.sess.stats.VerdictWalks - before
	c.nonRet += len(gotNR)
	c.cond += len(gotCond)
	refWalks := 0
	wantNR, wantCond := refInferNonReturning(res, instMap(res), newWalkMarks(c.sess.layout), &refWalks)
	c.walks += walks
	c.refWalks += refWalks
	if walks > refWalks {
		c.t.Fatalf("%s pass %d: %d verdict walks, the round-robin reference %d", c.label, c.passes, walks, refWalks)
	}
	if !reflect.DeepEqual(gotNR, wantNR) {
		c.t.Fatalf("%s pass %d: non-returning set %v, reference %v", c.label, c.passes, gotNR, wantNR)
	}
	if !reflect.DeepEqual(gotCond, wantCond) {
		c.t.Fatalf("%s pass %d: conditional set %v, reference %v", c.label, c.passes, gotCond, wantCond)
	}
}

// TestInferenceMatchesMapReference compares the dense-state worklist
// inference with the map-based round-robin reference after every
// committed pass of a session that extends, retracts and reruns, with
// strict probes in between that reset the walk marks the inference
// reads. The worklist must reach the same verdicts in no more
// funcReturns walks than the reference's sweeps.
func TestInferenceMatchesMapReference(t *testing.T) {
	nonRet, cond, walks, refWalks := 0, 0, 0, 0
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
		walks += check.walks
		refWalks += check.refWalks
	}
	if nonRet == 0 || cond == 0 {
		t.Fatalf("compared %d non-returning and %d conditional verdicts: the profiles no longer exercise both", nonRet, cond)
	}
	if testing.Verbose() {
		t.Logf("compared %d non-returning and %d conditional verdicts; %d verdict walks against the reference's %d",
			nonRet, cond, walks, refWalks)
	}
}

// TestPassInstFallsBackToInsts pins the lookup's fallback: an
// instruction the decode index does not locate is still answered, from
// res.Insts (in walk order straight after the pass), and an address the
// pass did not decode is absent.
func TestPassInstFallsBackToInsts(t *testing.T) {
	img, _, sec := buildBinary(t, 21, nil)
	sess := NewSession(img, defaultOpts())
	res := sess.pass(sec.FunctionStarts(), defaultOpts(), map[uint64]bool{}, map[uint64]bool{}, newOwnerIndex(sess.layout), nil, passBuffers{})
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
