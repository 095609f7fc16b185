package disasm

import (
	"reflect"
	"testing"

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
// probes are byte-identical to scratch runs under their own options,
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
	passes := sess.Stats().FixedPointPasses
	if obs.passes != passes {
		t.Fatalf("observer saw %d passes, Extend ran %d", obs.passes, passes)
	}

	probeOpts := Options{ResolveJumpTables: true, Strict: true, MaxInsts: 2000}
	// Probe every committed seed plus deliberately misaligned
	// candidates (seed+1 lands mid-instruction or on padding).
	for _, c := range seeds {
		for _, cand := range []uint64{c, c + 1} {
			got := sess.Probe([]uint64{cand}, probeOpts)
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
