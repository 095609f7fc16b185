package xref

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"fetch/internal/arch"
	"fetch/internal/callconv"
	"fetch/internal/disasm"
	"fetch/internal/ehframe"
	"fetch/internal/elfx"
	"fetch/internal/synth"
)

// validateWalkFirst is the walk-first validation order
// ValidateCandidate replaced, kept as the reference for the rule-order
// differential: the strict walk runs before rule (iv), and every
// rejection returns a nil result. It is verbatim but for one token and
// one call. The engine it ran on walked on past a strict walk's first
// error, and the engine now stops there; a strict walk's path does not
// depend on Strict, so the full strict walk the rule-(i) ablation ran
// is the non-strict walk, and the reference asks for a strict walk
// only when it reads the errors. The engine it ran on returned probes
// in address order, and probes now leave in walk order, so the
// reference sorts its probe.
func validateWalkFirst(img *elfx.Image, res *disasm.Result, c uint64, opts Options, probe *disasm.Session) (*disasm.Result, bool) {
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
	// Rules (i)-(iii), walk form: conservative recursive disassembly.
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
	if probe != nil {
		v = probe.Probe([]uint64{c}, vopts)
		probe.Sort(v)
	} else {
		v = disasm.Recursive(img, []uint64{c}, vopts)
	}
	if !opts.DisableRule[0] && len(v.Errors) > 0 {
		return nil, false
	}
	// Rule (ii) against the pre-existing disassembly: any instruction
	// decoded by the validation walk that overlaps a previously
	// decoded instruction at a different phase is a misalignment.
	if !opts.DisableRule[1] {
		for _, in := range v.Insts {
			if start, covered := res.InstStartAt(in.Addr); covered && start != in.Addr {
				return nil, false
			}
		}
	}
	// Rule (iv): calling convention at the candidate entry.
	if !opts.DisableRule[3] && !callconv.Validate(img, nil, c) {
		return nil, false
	}
	return v, true
}

// ruleSettings are the validation configurations the rule-order
// differential covers: every rule on, and each rule off alone.
func ruleSettings() map[string][4]bool {
	out := map[string][4]bool{"all": {}}
	for i := 0; i < 4; i++ {
		var d [4]bool
		d[i] = true
		out[fmt.Sprintf("no-rule-%d", i)] = d
	}
	return out
}

// orderInput is one binary for the differential: the stripped image,
// its committed FDE-seeded disassembly, and the FDE extents.
type orderInput struct {
	name  string
	img   *elfx.Image
	sess  *disasm.Session
	res   *disasm.Result
	known []disasm.FuncRange
}

// newOrderInput runs the pipeline's initial safe sweep from img's FDE
// starts and entry point.
func newOrderInput(t testing.TB, name string, img *elfx.Image) orderInput {
	t.Helper()
	in := orderInput{name: name, img: img}
	var seeds []uint64
	if eh, ok := img.Section(".eh_frame"); ok {
		sec, err := ehframe.Decode(eh.Bytes(), eh.Addr)
		if err != nil {
			t.Fatalf("%s: eh_frame: %v", name, err)
		}
		seeds = sec.FunctionStarts()
		for _, f := range sec.FDEs {
			in.known = append(in.known, disasm.FuncRange{Start: f.PCBegin, End: f.End()})
		}
	}
	if img.IsExec(img.Entry) {
		seeds = append(seeds, img.Entry)
	}
	in.sess = disasm.NewSession(img, disasm.Options{ResolveJumpTables: true, NonReturning: true})
	in.res = in.sess.Extend(seeds)
	return in
}

// orderInputs are the adversarial profiles on both ISAs plus the
// committed real-binary corpus.
func orderInputs(t *testing.T) []orderInput {
	t.Helper()
	var out []orderInput
	for _, arch := range []string{"x64", "a64"} {
		for _, name := range synth.ProfileNames() {
			cfg, err := synth.AdversarialProfileArch(name, 3, arch)
			if err != nil {
				t.Fatal(err)
			}
			img, _, err := synth.Generate(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, arch, err)
			}
			out = append(out, newOrderInput(t, cfg.Name, img.Strip()))
		}
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
		out = append(out, newOrderInput(t, filepath.Base(path), img.Strip()))
	}
	return out
}

// requireSameVerdict fails unless ValidateCandidate and the walk-first
// reference agree on c: the same verdict and, for an accepted
// candidate, the same extent and harvested constants. It reports the
// verdict.
func requireSameVerdict(t testing.TB, label string, img *elfx.Image, res *disasm.Result, c uint64, opts Options) bool {
	t.Helper()
	v, ok := ValidateCandidate(img, res, c, opts)
	w, wok := validateWalkFirst(img, res, c, opts, opts.Session)
	if ok != wok {
		t.Fatalf("%s: candidate %#x: verdict %v, walk-first reference %v", label, c, ok, wok)
	}
	if !ok {
		return false
	}
	if got, want := ContiguousEnd(v, c), ContiguousEnd(w, c); got != want {
		t.Fatalf("%s: candidate %#x: extent end %#x, reference %#x", label, c, got, want)
	}
	if got, want := sortedConsts(v), sortedConsts(w); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: candidate %#x: constants %v, reference %v", label, c, got, want)
	}
	return true
}

func sortedConsts(v *disasm.Result) []uint64 {
	out := make([]uint64, 0, len(v.Constants))
	for k := range v.Constants {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestValidateOrderMatchesWalkFirst pins the rule reorder: running the
// walk-free rules first and stopping the strict walk at its first error
// changes no verdict, extent or constant set, for every candidate of
// every input, with all rules on and with each rule off alone.
func TestValidateOrderMatchesWalkFirst(t *testing.T) {
	for _, in := range orderInputs(t) {
		cands := Candidates(in.img, in.res)
		for name, disable := range ruleSettings() {
			opts := Options{KnownRanges: in.known, DisableRule: disable, Session: in.sess}
			accepted := 0
			for _, c := range cands {
				if requireSameVerdict(t, in.name+"/"+name, in.img, in.res, c, opts) {
					accepted++
				}
			}
			if testing.Verbose() {
				t.Logf("%s/%s: %d candidates, %d accepted", in.name, name, len(cands), accepted)
			}
		}
	}
}

// TestObserverSeesEveryWalk pins the Observer contract the delta
// recorder relies on: a validation hands the Observer a walk result
// exactly when it walked — when the session's Probes counter moved for
// that candidate — whatever the verdict, so every walk-rejected record
// can cover the bytes its walk read. Detection runs round by round to
// convergence on every differential input, extending the session with
// each accepted batch, as the pipeline does.
func TestObserverSeesEveryWalk(t *testing.T) {
	walkRejected := 0
	for _, in := range orderInputs(t) {
		funcs := map[uint64]bool{}
		for f := range in.res.Funcs {
			funcs[f] = true
		}
		last := in.sess.Stats().Probes
		opts := Options{KnownRanges: in.known, Session: in.sess,
			Observer: func(c uint64, ok bool, v *disasm.Result) {
				now := in.sess.Stats().Probes
				if walked := now != last; walked != (v != nil) {
					t.Fatalf("%s: candidate %#x (ok=%v): probes %d → %d but result nil=%v",
						in.name, c, ok, last, now, v == nil)
				}
				if v != nil && !ok {
					walkRejected++
					if len(v.Errors) > 1 {
						t.Fatalf("%s: candidate %#x: %d walk errors, want at most one", in.name, c, len(v.Errors))
					}
				}
				last = now
			}}
		for round := 0; round < 16; round++ {
			newly := Detect(in.img, in.sess.Result(), funcs, opts)
			if len(newly) == 0 {
				break
			}
			for f := range in.sess.Extend(newly).Funcs {
				funcs[f] = true
			}
			last = in.sess.Stats().Probes
		}
	}
	if walkRejected == 0 {
		t.Fatal("no candidate was rejected by its walk: the profiles no longer exercise the contract")
	}
	if testing.Verbose() {
		t.Logf("%d walk-rejected candidates", walkRejected)
	}
}

// TestWalkFormRejectionReturnsWalk covers the walk rejection the
// profiles never reach, the walk form of rule (ii): the candidate's
// walk is error-free but decodes inside a committed instruction at
// another phase. Validation rejects it and still hands back the walk.
func TestWalkFormRejectionReturnsWalk(t *testing.T) {
	const base = 0x401000
	code := make([]byte, 0x20)
	for i := range code {
		code[i] = 0xCC // int3
	}
	copy(code, []byte{0xB8, 0x90, 0x90, 0x90, 0xC3, 0xC3}) // mov eax, 0xc3909090; ret
	copy(code[0x10:], []byte{0xEB, 0xEF})                  // jmp base+1, into the mov's immediate
	img := &elfx.Image{
		Entry: base,
		Sections: []*elfx.Section{{
			Name: ".text", Addr: base, Data: code,
			Flags: elfx.FlagAlloc | elfx.FlagExec,
		}},
	}
	sess := disasm.NewSession(img, disasm.Options{ResolveJumpTables: true, NonReturning: true})
	res := sess.Extend([]uint64{base})
	const c = base + 0x10

	p0 := sess.Stats().Probes
	v, ok := ValidateCandidate(img, res, c, Options{Session: sess})
	if ok || v == nil {
		t.Fatalf("validation = %v with result %v, want a walk-rejected verdict", ok, v != nil)
	}
	if sess.Stats().Probes == p0 {
		t.Fatal("the candidate was rejected without a walk")
	}
	// A rejected walk may be in walk order: look for base+1 by scan.
	walked := slices.ContainsFunc(v.Insts, func(in *arch.Inst) bool { return in.Addr == base+1 })
	if len(v.Errors) != 0 || !walked {
		t.Fatalf("walk errors %+v, decoded base+1: %v; want an error-free walk through base+1", v.Errors, walked)
	}
	if _, wok := validateWalkFirst(img, res, c, Options{}, nil); wok {
		t.Fatal("the walk-first reference accepts the candidate")
	}
}

// FuzzValidateOrder runs the rule-order differential on arbitrary code:
// the fuzz bytes become a .text section, its first byte seeds the
// committed disassembly, the blob's first half is a known function
// extent, and every offset is a candidate under every rule setting.
func FuzzValidateOrder(f *testing.F) {
	f.Add([]byte{0x55, 0x48, 0x89, 0xE5, 0xC3, 0xE8, 0xF6, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x48, 0x83, 0xF8, 0x03, 0x77, 0x02, 0xEB, 0x00, 0xC3})
	// Jumps into instruction interiors, then an invalid opcode.
	f.Add([]byte{0xEB, 0x01, 0x48, 0x31, 0xC0, 0xC3, 0x74, 0xFC, 0xC3, 0x06, 0x90})
	// A call into the known extent's interior.
	f.Add([]byte{0x90, 0x90, 0x90, 0xC3, 0xE8, 0xF8, 0xFF, 0xFF, 0xFF, 0xC3})
	f.Fuzz(func(t *testing.T, code []byte) {
		if len(code) == 0 || len(code) > 1<<9 {
			return
		}
		const base = 0x401000
		img := &elfx.Image{
			Entry: base,
			Sections: []*elfx.Section{{
				Name: ".text", Addr: base, Data: code,
				Flags: elfx.FlagAlloc | elfx.FlagExec,
			}},
		}
		res := disasm.Recursive(img, []uint64{base}, disasm.Options{ResolveJumpTables: true, NonReturning: true})
		known := []disasm.FuncRange{{Start: base, End: base + uint64(len(code)+1)/2}}
		for name, disable := range ruleSettings() {
			opts := Options{KnownRanges: known, DisableRule: disable}
			for off := range code {
				requireSameVerdict(t, name, img, res, base+uint64(off), opts)
			}
		}
	})
}

// validation is one Observer call in a comparable form: the candidate,
// the verdict, and the extent of the walk — its instructions as sorted
// (address, length) pairs, its error and jump-table reads — with the
// contiguous end of an accepted walk. walked is false for a nil walk.
type validation struct {
	c          uint64
	ok, walked bool
	insts      [][2]uint64
	errors     []disasm.Error
	reads      []disasm.Interval
	end        uint64
}

func observed(c uint64, ok bool, v *disasm.Result) validation {
	rec := validation{c: c, ok: ok, walked: v != nil}
	if v == nil {
		return rec
	}
	for _, in := range v.Insts {
		rec.insts = append(rec.insts, [2]uint64{in.Addr, uint64(in.Len)})
	}
	slices.SortFunc(rec.insts, func(a, b [2]uint64) int { return cmp.Compare(a[0], b[0]) })
	rec.errors = v.Errors
	rec.reads = v.TableReads()
	if ok {
		rec.end = ContiguousEnd(v, c)
	}
	return rec
}

// detectRounds runs Detect round by round to convergence on a fresh
// session over in's binary, extending it with each accepted batch as
// the pipeline does, with or without a walk memo shared by the rounds.
// It returns the accepted batches, every Observer call, and the probes
// the rounds ran.
func detectRounds(t *testing.T, in orderInput, disable [4]bool, memo bool) ([][]uint64, []validation, int) {
	t.Helper()
	fresh := newOrderInput(t, in.name, in.img)
	funcs := map[uint64]bool{}
	for f := range fresh.res.Funcs {
		funcs[f] = true
	}
	var seen []validation
	opts := Options{KnownRanges: fresh.known, DisableRule: disable, Session: fresh.sess,
		Observer: func(c uint64, ok bool, v *disasm.Result) { seen = append(seen, observed(c, ok, v)) }}
	if memo {
		opts.Walks = NewWalks()
	}
	p0 := fresh.sess.Stats().Probes
	var batches [][]uint64
	for round := 0; round < 16; round++ {
		newly := Detect(fresh.img, fresh.sess.Result(), funcs, opts)
		batches = append(batches, newly)
		if len(newly) == 0 {
			break
		}
		for f := range fresh.sess.Extend(newly).Funcs {
			funcs[f] = true
		}
	}
	return batches, seen, fresh.sess.Stats().Probes - p0
}

// TestWalkMemoMatchesWalking pins the walk memo: detection run round
// by round to convergence with one Walks for all rounds accepts the
// same batches as detection that walks every candidate it validates,
// and hands the Observer the same verdicts and walk extents in the
// same order, on every differential input under every rule setting.
// The memo must save some probes.
func TestWalkMemoMatchesWalking(t *testing.T) {
	probes, memoProbes := 0, 0
	for _, in := range orderInputs(t) {
		for name, disable := range ruleSettings() {
			label := in.name + "/" + name
			wantBatches, want, p := detectRounds(t, in, disable, false)
			gotBatches, got, mp := detectRounds(t, in, disable, true)
			if !reflect.DeepEqual(gotBatches, wantBatches) {
				t.Fatalf("%s: accepted %v with the memo, %v without", label, gotBatches, wantBatches)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d validations observed with the memo, %d without", label, len(got), len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s: validation %d of %#x differs with the memo:\n got %+v\nwant %+v",
						label, i, want[i].c, got[i], want[i])
				}
			}
			probes += p
			memoProbes += mp
		}
	}
	if testing.Verbose() {
		t.Logf("%d probes with the memo, %d without", memoProbes, probes)
	}
	if memoProbes >= probes {
		t.Fatalf("%d probes with the memo, %d without: no walk was reused", memoProbes, probes)
	}
}
