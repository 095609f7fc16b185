package disasm

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fetch/internal/arch"
	"fetch/internal/elfx"
	"fetch/internal/synth"
)

// optionMatrix is every disassembly configuration the pipeline and the
// baselines use; session equivalence must hold under all of them.
func optionMatrix() map[string]Options {
	return map[string]Options{
		"safe":       {ResolveJumpTables: true, NonReturning: true},
		"tables":     {ResolveJumpTables: true},
		"plain":      {},
		"nonret":     {NonReturning: true},
		"strict":     {ResolveJumpTables: true, Strict: true, MaxInsts: 2000},
		"strict-cap": {Strict: true, MaxInsts: 64},
	}
}

// requireEqualResults fails unless the committed result got is
// byte-identical to want — every decoded instruction, function,
// reference, constant, knowledge set, jump-table
// resolution, strict error, and byte owner. Owners are compared by
// InstStartAt queries over every byte of every decoded instruction and
// the byte after it: the instruction sets are equal, so these are all
// the bytes either result covers, plus their uncovered neighbours.
func requireEqualResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	requireEqualWalks(t, label, got, want)
	for _, in := range want.Insts {
		for b := in.Addr; b <= in.Next(); b++ {
			gs, gok := got.InstStartAt(b)
			ws, wok := want.InstStartAt(b)
			if gs != ws || gok != wok {
				t.Fatalf("%s: byte %#x owned by %#x (%v), want %#x (%v)", label, b, gs, gok, ws, wok)
			}
		}
	}
}

// requireEqualProbe is requireEqualResults for a Probe result against a
// committed want: the probe must have returned its borrowed workspace,
// so it carries no coverage index to compare.
func requireEqualProbe(t *testing.T, label string, got, want *Result) {
	t.Helper()
	requireEqualWalks(t, label, got, want)
	if got.owner != nil {
		t.Fatalf("%s: probe result still holds the owner workspace", label)
	}
	if want.owner == nil {
		t.Fatalf("%s: committed result has no owner index", label)
	}
}

// requireEqualWalks compares everything but coverage.
func requireEqualWalks(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Insts, want.Insts) {
		t.Fatalf("%s: Insts differ (%d vs %d)", label, len(got.Insts), len(want.Insts))
	}
	if !reflect.DeepEqual(got.Funcs, want.Funcs) {
		t.Fatalf("%s: Funcs differ", label)
	}
	if !reflect.DeepEqual(got.Refs, want.Refs) {
		t.Fatalf("%s: Refs differ", label)
	}
	if !reflect.DeepEqual(got.Constants, want.Constants) {
		t.Fatalf("%s: Constants differ", label)
	}
	if !reflect.DeepEqual(got.NonRet, want.NonRet) {
		t.Fatalf("%s: NonRet differs", label)
	}
	if !reflect.DeepEqual(got.CondNonRet, want.CondNonRet) {
		t.Fatalf("%s: CondNonRet differs", label)
	}
	if !reflect.DeepEqual(got.JTTargets, want.JTTargets) {
		t.Fatalf("%s: JTTargets differ", label)
	}
	if !reflect.DeepEqual(got.TableBases, want.TableBases) {
		t.Fatalf("%s: TableBases differ", label)
	}
	if !reflect.DeepEqual(got.Errors, want.Errors) {
		t.Fatalf("%s: Errors differ", label)
	}
	if !reflect.DeepEqual(got.TableReads(), want.TableReads()) {
		t.Fatalf("%s: TableReads differ", label)
	}
	if got.SawMid() != want.SawMid() {
		t.Fatalf("%s: SawMid %v, want %v", label, got.SawMid(), want.SawMid())
	}
}

// equivalenceSeeds spans the corpus shapes that stress the walk:
// jump tables, non-contiguous parts, indirect-only functions, and
// hand-written CFI errors.
func equivalenceConfigs() []func(*synth.Config) {
	return []func(*synth.Config){
		nil,
		func(c *synth.Config) { c.NonContigRate = 0.25 },
		func(c *synth.Config) { c.IndirectOnlyRate = 0.1 },
		func(c *synth.Config) { c.CFIErrorCount = 2 },
	}
}

// TestSessionExtendMatchesScratch grows a session seed batch by seed
// batch and requires every intermediate result to be byte-identical to
// a from-scratch Recursive over the cumulative seed list, across the
// full option matrix.
func TestSessionExtendMatchesScratch(t *testing.T) {
	for ci, mutate := range equivalenceConfigs() {
		im, _, sec := buildBinary(t, 100+int64(ci), mutate)
		seeds := sec.FunctionStarts()
		if len(seeds) < 8 {
			t.Fatalf("config %d: too few seeds (%d)", ci, len(seeds))
		}
		for name, opts := range optionMatrix() {
			sess := NewSession(im, opts)
			// Four uneven batches, including a singleton.
			cuts := []int{len(seeds) / 2, len(seeds)/2 + 1, len(seeds) - 3, len(seeds)}
			prev := 0
			for _, cut := range cuts {
				got := sess.Extend(seeds[prev:cut])
				want := Recursive(im, seeds[:cut], opts)
				requireEqualResults(t, name, got, want)
				prev = cut
			}
			// A capped walk may explore disjoint regions per extend
			// (the LIFO worklist starts from the newest seed), so only
			// unbounded configs are guaranteed to overlap.
			if st := sess.Stats(); opts.MaxInsts == 0 && st.InstsReused == 0 {
				t.Errorf("config %d/%s: incremental extends reused nothing", ci, name)
			}
		}
	}
}

// TestSessionRetractMatchesScratch removes seeds from a grown session
// and requires the result to match a from-scratch run over the
// filtered seed list — the §V-B CFI-error recovery contract.
func TestSessionRetractMatchesScratch(t *testing.T) {
	im, _, sec := buildBinary(t, 110, func(c *synth.Config) { c.CFIErrorCount = 2 })
	seeds := sec.FunctionStarts()
	opts := defaultOpts()

	sess := NewSession(im, opts)
	sess.Extend(seeds)

	remove := []uint64{seeds[1], seeds[len(seeds)/2], seeds[len(seeds)-1]}
	got := sess.Retract(remove)

	drop := map[uint64]bool{}
	for _, a := range remove {
		drop[a] = true
	}
	var kept []uint64
	for _, s := range seeds {
		if !drop[s] {
			kept = append(kept, s)
		}
	}
	want := Recursive(im, kept, opts)
	requireEqualResults(t, "retract", got, want)

	// Retract then re-extend restores the original result exactly.
	got = sess.Extend(remove)
	want = Recursive(im, append(append([]uint64(nil), kept...), remove...), opts)
	requireEqualResults(t, "re-extend", got, want)
}

// TestSessionRerunMatchesScratch pins the wholesale-reseed path the
// baseline tool pipelines use.
func TestSessionRerunMatchesScratch(t *testing.T) {
	im, _, sec := buildBinary(t, 111, nil)
	seeds := sec.FunctionStarts()
	sess := NewSession(im, defaultOpts())
	sess.Extend(seeds[:4])

	reordered := append([]uint64(nil), seeds...)
	for i, j := 0, len(reordered)-1; i < j; i, j = i+1, j-1 {
		reordered[i], reordered[j] = reordered[j], reordered[i]
	}
	got := sess.Rerun(reordered)
	want := Recursive(im, reordered, defaultOpts())
	requireEqualResults(t, "rerun", got, want)
}

// passCounter is an ExecObserver that counts the passes reported to
// it.
type passCounter struct{ passes int }

func (c *passCounter) OnPass(_, _ map[uint64]bool, _ *Result) { c.passes++ }

// TestSessionProbe validates the probe contract on the one session:
// probes, put in address order by Sort, are byte-identical to scratch
// runs under their own options,
// they leave the committed result in place and unchanged, they never
// report to the ExecObserver, and they reuse the committed walk's
// decodes.
func TestSessionProbe(t *testing.T) {
	im, _, sec := buildBinary(t, 112, func(c *synth.Config) { c.IndirectOnlyRate = 0.1 })
	seeds := sec.FunctionStarts()
	opts := defaultOpts()

	sess := NewSession(im, opts)
	obs := &passCounter{}
	sess.SetExecObserver(obs)
	committed := sess.Extend(seeds)
	// The observer sees every pass the fixed point would walk without
	// skipping a repeat: all the reference loop walks.
	ref := NewSession(im, opts)
	refCommit(ref, seeds)
	passes := ref.Stats().FixedPointPasses
	if obs.passes != passes {
		t.Fatalf("observer saw %d passes, the reference Extend ran %d", obs.passes, passes)
	}

	probeOpts := Options{ResolveJumpTables: true, Strict: true, MaxInsts: 2000}
	// Probe every committed seed plus deliberately misaligned
	// candidates (seed+1 lands mid-instruction or on padding).
	for _, c := range seeds {
		for _, cand := range []uint64{c, c + 1} {
			got := sess.Probe([]uint64{cand}, probeOpts)
			sess.Sort(got)
			want := Recursive(im, []uint64{cand}, probeOpts)
			requireEqualProbe(t, "probe", got, want)
		}
	}
	if sess.Result() != committed {
		t.Fatal("probing replaced the committed result")
	}
	want := Recursive(im, seeds, opts)
	requireEqualResults(t, "committed-after-probes", sess.Result(), want)
	if obs.passes != passes {
		t.Fatalf("observer saw %d passes, want the %d committed ones: probes reported", obs.passes, passes)
	}

	st := sess.Stats()
	if st.Probes != 2*len(seeds) {
		t.Errorf("Probes = %d, want %d", st.Probes, 2*len(seeds))
	}
	if st.InstsReused == 0 {
		t.Error("probes reused no decodes from the committed walk")
	}
}

// TestSessionStatsAccounting pins the counter semantics the pipeline's
// zero-resweep assertion relies on.
func TestSessionStatsAccounting(t *testing.T) {
	im, _, sec := buildBinary(t, 113, nil)
	seeds := sec.FunctionStarts()

	sess := NewSession(im, defaultOpts())
	st := sess.Stats()
	if st.ColdStarts != 1 || st.Extends != 0 {
		t.Fatalf("fresh session stats = %+v", st)
	}
	sess.Extend(seeds[:1])
	first := sess.Stats()
	if first.Extends != 1 || first.InstsDecoded == 0 {
		t.Fatalf("after first extend: %+v", first)
	}
	sess.Extend(seeds[1:])
	second := sess.Stats()
	if second.Extends != 2 {
		t.Fatalf("Extends = %d, want 2", second.Extends)
	}
	if second.InstsReused <= first.InstsReused {
		t.Error("second extend reused no additional decodes")
	}
	// Probes share the cache: they must not count as cold starts.
	sess.Probe(seeds[:1], Options{})
	if st := sess.Stats(); st.ColdStarts != 1 {
		t.Errorf("ColdStarts after a probe = %d, want 1", st.ColdStarts)
	}
}

// resultSnapshot is a copy of a result's Insts (the pointers and the
// instructions behind them) and Refs, taken when the result left the
// session.
type resultSnapshot struct {
	label string
	res   *Result
	ptrs  []*arch.Inst
	insts []arch.Inst
	refs  []Ref
}

func snapshot(label string, res *Result) resultSnapshot {
	sn := resultSnapshot{label: label, res: res, ptrs: slices.Clone(res.Insts), refs: slices.Clone(res.Refs)}
	for _, in := range res.Insts {
		sn.insts = append(sn.insts, *in)
	}
	return sn
}

// requireUnchanged fails when the result's Insts or Refs differ from
// the snapshot.
func (sn resultSnapshot) requireUnchanged(t *testing.T) {
	t.Helper()
	if !slices.Equal(sn.res.Insts, sn.ptrs) || !slices.Equal(sn.res.Refs, sn.refs) {
		t.Fatalf("%s: Insts or Refs rewritten after the result left the session", sn.label)
	}
	for i, in := range sn.res.Insts {
		if !reflect.DeepEqual(*in, sn.insts[i]) {
			t.Fatalf("%s: instruction %#x rewritten after the result left the session", sn.label, sn.insts[i].Addr)
		}
	}
}

// keepPasses is an ExecObserver that snapshots every pass it sees.
type keepPasses struct{ seen []resultSnapshot }

func (k *keepPasses) OnPass(_, _ map[uint64]bool, res *Result) {
	k.seen = append(k.seen, snapshot(fmt.Sprintf("observed pass %d", len(k.seen)), res))
}

// TestPassBuffersNeverAlias pins the recycling contract of exec: the
// next pass appends to a discarded inner pass's arrays, but a result
// handed out by Extend, Retract, Rerun or Probe, and every pass an
// ExecObserver sees, is never written by a later walk of the session.
func TestPassBuffersNeverAlias(t *testing.T) {
	im, _, sec := buildBinary(t, 114, func(c *synth.Config) { c.IndirectOnlyRate = 0.1 })
	seeds := sec.FunctionStarts()
	probeOpts := Options{ResolveJumpTables: true, NonReturning: true, MaxInsts: 2000}
	for _, observed := range []bool{false, true} {
		sess := NewSession(im, defaultOpts())
		obs := &keepPasses{}
		if observed {
			sess.SetExecObserver(obs)
		}
		var out []resultSnapshot
		keep := func(label string, res *Result) {
			out = append(out, snapshot(label, res))
		}
		keep("extend 1", sess.Extend(seeds[:len(seeds)/2]))
		for _, c := range seeds[:8] {
			keep("probe", sess.Probe([]uint64{c}, probeOpts))
		}
		keep("extend 2", sess.Extend(seeds[len(seeds)/2:]))
		keep("retract", sess.Retract(seeds[:len(seeds)/3]))
		keep("rerun", sess.Rerun(seeds))
		keep("probe", sess.Probe(seeds[:4], probeOpts))
		if st := sess.Stats(); st.FixedPointPasses <= st.Extends+st.Retracts+st.Reruns+st.Probes {
			t.Fatalf("observed=%v: every exec ran one pass: no inner pass was recycled", observed)
		}
		for _, sn := range append(out, obs.seen...) {
			sn.requireUnchanged(t)
		}
		if observed && len(obs.seen) == 0 {
			t.Fatal("observer saw no passes")
		}
	}
}

// TestEmptyPassIsNil pins nil parity: a committed pass that decodes
// nothing leaves with nil Insts and Refs, as Recursive's does, even
// when it was handed arrays sized from the last committed result.
func TestEmptyPassIsNil(t *testing.T) {
	im, _, sec := buildBinary(t, 115, nil)
	const stray = 0x10 // outside every section
	obs := &keepPasses{}
	sess := NewSession(im, defaultOpts())
	sess.SetExecObserver(obs)
	if res := sess.Extend(sec.FunctionStarts()); len(res.Insts) == 0 || len(res.Refs) == 0 {
		t.Fatal("the committed walk decoded nothing")
	}
	obs.seen = nil
	for _, res := range []*Result{sess.Rerun([]uint64{stray}), Recursive(im, []uint64{stray}, defaultOpts())} {
		if res.Insts != nil || res.Refs != nil {
			t.Fatalf("empty walk: Insts %#v, Refs %#v; want nil", res.Insts, res.Refs)
		}
	}
	for _, sn := range obs.seen {
		if sn.res.Insts != nil || sn.res.Refs != nil {
			t.Fatalf("%s: empty pass reported with non-nil Insts or Refs", sn.label)
		}
	}
}

// TestSortKeysMatchesSort compares sortKeys and sortRefs with the
// comparison sorts on both sides of radixMin, on keys that span a text
// section and on keys that span all 64 bits, with repeats.
func TestSortKeysMatchesSort(t *testing.T) {
	sess := NewSession(&elfx.Image{}, Options{})
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, radixMin - 1, radixMin, 5000} {
		for _, span := range []uint64{1, 1 << 20, 1 << 40, 0} { // 0: any uint64
			draw := func() uint64 {
				if span == 0 {
					return rng.Uint64()
				}
				return 0x400000 + rng.Uint64()%span
			}
			keys := make([]uint64, n)
			refs := make([]Ref, n)
			for i := range keys {
				keys[i] = draw()
				refs[i] = Ref{Target: draw(), From: draw()}
				if i > 0 && i%5 == 0 {
					keys[i], refs[i] = keys[i-1], refs[i-1]
				}
			}
			wantKeys, wantRefs := slices.Clone(keys), slices.Clone(refs)
			slices.Sort(wantKeys)
			slices.SortFunc(wantRefs, compareRefs)
			sess.sortKeys(keys)
			sess.sortRefs(refs)
			if !slices.Equal(keys, wantKeys) {
				t.Fatalf("n=%d span=%#x: sortKeys disagrees with slices.Sort", n, span)
			}
			if !slices.Equal(refs, wantRefs) {
				t.Fatalf("n=%d span=%#x: sortRefs disagrees with compareRefs", n, span)
			}
		}
	}
}

// TestIsExecFromLayout pins the session's executable test to the
// image's: from the layout when no sections overlap, and by the image's
// first-match rule when a data section overlapping the text comes
// first.
func TestIsExecFromLayout(t *testing.T) {
	text := func() *elfx.Section {
		return &elfx.Section{Name: ".text", Addr: 0x401000, Data: make([]byte, 0x200), Flags: elfx.FlagAlloc | elfx.FlagExec}
	}
	plt := &elfx.Section{Name: ".plt", Addr: 0x400800, Data: make([]byte, 0x40), Flags: elfx.FlagAlloc | elfx.FlagExec}
	data := &elfx.Section{Name: ".data", Addr: 0x401100, Data: make([]byte, 0x200), Flags: elfx.FlagAlloc | elfx.FlagWrite}
	for _, tc := range []struct {
		name       string
		secs       []*elfx.Section
		layoutExec bool
	}{
		{"disjoint", []*elfx.Section{text(), plt, {Name: ".rodata", Addr: 0x402000, Data: make([]byte, 0x10), Flags: elfx.FlagAlloc}}, true},
		{"overlapping", []*elfx.Section{data, text(), plt}, false},
	} {
		img := &elfx.Image{Sections: tc.secs}
		sess := NewSession(img, Options{})
		if sess.layoutExec != tc.layoutExec {
			t.Fatalf("%s: layoutExec = %v, want %v", tc.name, sess.layoutExec, tc.layoutExec)
		}
		for a := uint64(0x400700); a < 0x402100; a++ {
			if got, want := sess.isExec(a), img.IsExec(a); got != want {
				t.Fatalf("%s: isExec(%#x) = %v, image says %v", tc.name, a, got, want)
			}
		}
	}
}
