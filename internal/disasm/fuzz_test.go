package disasm

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"fetch/internal/arch"
	"fetch/internal/elfx"
)

// FuzzSessionExtend differentially fuzzes the incremental session: an
// arbitrary byte blob becomes an executable section, a handful of
// blob-derived offsets (and one address past the section) become
// seeds, and one warm session commits them
// as Extend(first half), Extend(second half), then Retract(every third
// seed). Its result must equal a fresh Recursive over the surviving
// seeds exactly — references included. The session then probes each
// surviving seed and seed+1 in turn, reusing the one owner workspace:
// every probe, put in address order by Sort, must equal a fresh
// Recursive under the probe options, and the committed coverage must
// be unchanged afterwards. Every committed result, and every probe once
// sorted, must hold the sorted representation (requireSorted), and every
// committed one the coverage delta replay rebuilds from its facts
// (requireCoverageRebuilds). The Extend results must come through the
// later walks unchanged: no pass appends to a result's arrays once it
// has left the session. Last, two observed sessions commit the seeds as
// Extend, Extend, Retract and Rerun, one through exec and one through
// the reference loop refExec, which skips no pass: their results and
// observed passes must be equal (skipCheck).
func FuzzSessionExtend(f *testing.F) {
	f.Add([]byte{0xC3}, uint8(1))
	f.Add([]byte{0x55, 0x48, 0x89, 0xE5, 0xC3, 0xE8, 0xF6, 0xFF, 0xFF, 0xFF}, uint8(3))
	f.Add([]byte{
		0x48, 0x83, 0xF8, 0x03, // cmp rax, 3
		0x77, 0x02, // ja +2
		0xEB, 0x00, // jmp +0
		0xC3, // ret
	}, uint8(4))
	// Overlapping-decode bait: jumps into instruction interiors.
	f.Add([]byte{0xEB, 0x01, 0x48, 0x31, 0xC0, 0xC3, 0x74, 0xFC, 0xC3}, uint8(5))
	f.Fuzz(func(t *testing.T, code []byte, nseeds uint8) {
		if len(code) == 0 || len(code) > 1<<14 {
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
		// Derive 8..40 seed offsets from the blob; the last seed lies
		// past the section, outside the executable layout.
		n := int(nseeds%33) + 8
		seeds := make([]uint64, 0, n)
		for i := 0; i < n-1; i++ {
			off := (i * 7919) % len(code)
			seeds = append(seeds, base+uint64((off+int(code[off]))%len(code)))
		}
		seeds = append(seeds, base+uint64(len(code))+uint64(nseeds))
		drop := map[uint64]bool{}
		var retract []uint64
		for i := 0; i < len(seeds); i += 3 {
			drop[seeds[i]] = true
			retract = append(retract, seeds[i])
		}
		var kept []uint64
		for _, sd := range seeds {
			if !drop[sd] {
				kept = append(kept, sd)
			}
		}

		opts := Options{ResolveJumpTables: true, NonReturning: true}
		sess := NewSession(img, opts)
		var handed []resultSnapshot
		for _, batch := range [][]uint64{seeds[:n/2], seeds[n/2:]} {
			r := sess.Extend(batch)
			requireSorted(t, "extend", r)
			requireCoverageRebuilds(t, "extend", r, base, len(code))
			handed = append(handed, snapshot("extend", r))
		}
		got := sess.Retract(retract)
		want := Recursive(img, kept, opts)
		requireSorted(t, "retract", got)
		requireSorted(t, "recursive", want)
		requireCoverageRebuilds(t, "retract", got, base, len(code))
		requireCoverageRebuilds(t, "recursive", want, base, len(code))
		if !reflect.DeepEqual(got.Insts, want.Insts) {
			t.Fatalf("Insts differ: %d vs %d", len(got.Insts), len(want.Insts))
		}
		if !reflect.DeepEqual(got.Funcs, want.Funcs) {
			t.Fatal("Funcs differ")
		}
		if !reflect.DeepEqual(got.NonRet, want.NonRet) ||
			!reflect.DeepEqual(got.CondNonRet, want.CondNonRet) {
			t.Fatal("non-return sets differ")
		}
		if !reflect.DeepEqual(got.JTTargets, want.JTTargets) {
			t.Fatal("jump-table resolutions differ")
		}
		if !reflect.DeepEqual(got.Constants, want.Constants) {
			t.Fatal("constants differ")
		}
		if !reflect.DeepEqual(got.TableBases, want.TableBases) {
			t.Fatal("jump-table bases differ")
		}
		if !reflect.DeepEqual(got.Refs, want.Refs) {
			t.Fatal("references differ")
		}
		// The owner index must agree with the instructions.
		for _, in := range got.Insts {
			if _, ok := got.InstStartAt(in.Addr); !ok {
				t.Fatalf("decoded %#x (len %d) not in owner index", in.Addr, in.Len)
			}
		}

		type owned struct {
			start uint64
			ok    bool
		}
		before := make([]owned, len(code))
		for i := range code {
			before[i].start, before[i].ok = got.InstStartAt(base + uint64(i))
		}
		popts := Options{ResolveJumpTables: true, Strict: true, MaxInsts: 64}
		for _, sd := range kept {
			for _, cand := range []uint64{sd, sd + 1} {
				p := sess.Probe([]uint64{cand}, popts)
				sess.Sort(p)
				requireSorted(t, "probe", p)
				requireEqualProbe(t, "probe", p, Recursive(img, []uint64{cand}, popts))
			}
		}
		if sess.Result() != got {
			t.Fatal("probing replaced the committed result")
		}
		for _, sn := range handed {
			sn.requireUnchanged(t)
		}
		for i := range code {
			var now owned
			now.start, now.ok = got.InstStartAt(base + uint64(i))
			if now != before[i] {
				t.Fatalf("committed owner of %#x changed by probes: %+v, was %+v", base+uint64(i), now, before[i])
			}
		}
		skipCheck(t, "reference", img, seeds)
	})
}

// requireCoverageRebuilds checks the property delta replay's coverage
// map rests on: unless res reports SawMid, BuildCoverage over its
// instruction facts answers InstStartAt exactly as res does on every
// byte of the n-byte section at base, and one byte either side.
func requireCoverageRebuilds(t *testing.T, label string, res *Result, base uint64, n int) {
	t.Helper()
	if res.SawMid() {
		return
	}
	cov := BuildCoverage(res.InstFacts())
	for a := base - 1; a <= base+uint64(n); a++ {
		gs, gok := cov.InstStartAt(a)
		ws, wok := res.InstStartAt(a)
		if gs != ws || gok != wok {
			t.Fatalf("%s: rebuilt owner of %#x = %#x (%v), walk's %#x (%v)", label, a, gs, gok, ws, wok)
		}
	}
}

// requireSorted checks the sorted representation of a result: Insts
// strictly increasing by address, Refs sorted by target then source,
// and Inst, InstsIn and RefsTo agreeing with maps built from the
// slices at every instruction start and the byte after it, every
// reference target and source, and the address one past each.
func requireSorted(t *testing.T, label string, res *Result) {
	t.Helper()
	insts := make(map[uint64]*arch.Inst, len(res.Insts))
	for i, in := range res.Insts {
		if i > 0 && res.Insts[i-1].Addr >= in.Addr {
			t.Fatalf("%s: Insts not strictly increasing: %#x then %#x", label, res.Insts[i-1].Addr, in.Addr)
		}
		insts[in.Addr] = in
	}
	refs := map[uint64][]uint64{}
	for i, r := range res.Refs {
		if i > 0 && (res.Refs[i-1].Target > r.Target ||
			res.Refs[i-1].Target == r.Target && res.Refs[i-1].From > r.From) {
			t.Fatalf("%s: Refs not sorted: %+v then %+v", label, res.Refs[i-1], r)
		}
		refs[r.Target] = append(refs[r.Target], r.From)
	}
	starts := make([]uint64, 0, len(insts))
	for a := range insts {
		starts = append(starts, a)
	}
	slices.Sort(starts)
	var queries []uint64
	for _, in := range res.Insts {
		queries = append(queries, in.Addr, in.Addr+1, in.Next())
	}
	for _, r := range res.Refs {
		queries = append(queries, r.Target, r.Target+1, r.From)
	}
	for _, a := range queries {
		got, ok := res.Inst(a)
		if want, wok := insts[a]; got != want || ok != wok {
			t.Fatalf("%s: Inst(%#x) = %v, %v; want %v, %v", label, a, got, ok, want, wok)
		}
		var from []uint64
		for _, r := range res.RefsTo(a) {
			if r.Target != a {
				t.Fatalf("%s: RefsTo(%#x) returned %+v", label, a, r)
			}
			from = append(from, r.From)
		}
		if want := refs[a]; !slices.Equal(from, want) {
			t.Fatalf("%s: RefsTo(%#x) from %#x, want %#x", label, a, from, want)
		}
		for _, hi := range []uint64{a, a + 1, a + 16} {
			lo := sort.Search(len(starts), func(k int) bool { return starts[k] >= a })
			up := sort.Search(len(starts), func(k int) bool { return starts[k] >= hi })
			var want []*arch.Inst
			for _, s := range starts[lo:up] {
				want = append(want, insts[s])
			}
			if got := res.InstsIn(a, hi); !slices.Equal(got, want) {
				t.Fatalf("%s: InstsIn(%#x, %#x) = %d instructions, want %d", label, a, hi, len(got), len(want))
			}
		}
	}
}
