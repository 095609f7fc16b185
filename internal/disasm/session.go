package disasm

import (
	"cmp"
	"slices"

	"fetch/internal/arch"
	"fetch/internal/elfx"
)

// Stats counts the work a Session performed. All counters are
// deterministic for a given binary and call sequence: parallel corpus
// analysis never changes them.
type Stats struct {
	// InstsDecoded counts decode-cache misses: addresses whose bytes
	// were actually fed through the backend decoder.
	InstsDecoded int64
	// InstsReused counts decode-cache hits: instruction lookups served
	// from a previous decode of the same address.
	InstsReused int64
	// ColdStarts counts sessions created with an empty decode cache.
	// Every session starts cold exactly once, so a fully incremental
	// pipeline, which runs on one session, reports exactly one.
	ColdStarts int
	// Extends, Retracts, and Reruns count committed seed-set updates.
	Extends  int
	Retracts int
	Reruns   int
	// Probes counts speculative one-shot walks (candidate validation,
	// jump-table resolution) that left committed state untouched.
	Probes int
	// FixedPointPasses counts individual recursive-descent passes,
	// including the inner iterations of the non-returning fixed point,
	// probe walks and bounded walks.
	FixedPointPasses int

	// PeakAuxBytes is the high-water accounted estimate of the
	// auxiliary memory held at the end of any one pass: that pass's own
	// owner-index chunks (committed passes only), the chunks of the
	// owner workspace shared by probes and bounded walks, the chunks of
	// the decode index and of the two walk-mark sets, and the decode
	// arena at decodeEntryCost per entry — all of them for as long as
	// the session holds them. A table is charged for each chunk it
	// takes from the pool or the allocator, not for one its own reset
	// freed and a later write took back. It is an accounting of
	// data-structure growth (deterministic for a given call sequence),
	// not a heap measurement; like the decode counters it is an
	// execution trace, so StripSchedule zeroes it.
	PeakAuxBytes int64
}

// decodeEntryCost is the accounted cost behind PeakAuxBytes of one
// decode-cache entry: its 48-byte arena slot plus the 80-byte heap
// arch.Inst it points to. The index slot that locates it is charged
// with the index chunks.
const decodeEntryCost = 128

// notePassMem folds one finished pass's data-structure footprint into
// the PeakAuxBytes high-water mark. A walk-scoped pass has returned its
// workspace by now (res.owner is nil), so only the workspace's own
// total is charged for it.
func (s *Session) notePassMem(res *Result) {
	aux := s.ws.alloc + s.cache.index.alloc + int64(len(s.cache.entries))*decodeEntryCost +
		s.pushed.tab.alloc + s.decoded.tab.alloc
	if res.owner != nil {
		aux += res.owner.alloc
	}
	if aux > s.stats.PeakAuxBytes {
		s.stats.PeakAuxBytes = aux
	}
}

// decodeKind classifies a cached decode outcome.
type decodeKind uint8

const (
	decodeOK decodeKind = iota + 1
	// decodeNoWindow: no section bytes at the address.
	decodeNoWindow
	// decodeBad: the bytes do not form a valid instruction.
	decodeBad
)

// decodeEntry is one memoized decode. Everything here — the
// instruction, the failure mode, the mapped constant operands, and the
// gate-register classification (the §IV-C error/error_at_line slice
// step; RDI on x86-64, X0 on aarch64) — is a pure function of the
// image bytes at the address, so entries never invalidate and can be
// shared across passes, probes, and strategy variants.
type decodeEntry struct {
	inst *arch.Inst
	kind decodeKind
	// consts are the instruction's pointer-sized constants that land
	// in mapped sections (the image is fixed per session).
	consts []uint64
	rdi    arch.GateEffect
}

// Session owns the reusable disassembly state of one binary: the
// persistent instruction-decode cache, the committed seed list, and
// the current Result. It supports incremental re-analysis — Extend
// explores additional seeds, Retract removes seeds (the §V-B CFI-error
// re-analysis), Rerun replaces the seed list — while guaranteeing
// results byte-identical to a from-scratch Recursive run over the same
// final seed list: every walk replays the full fixed point in the same
// order, and only the per-address decodes (pure in the image bytes)
// are reused.
//
// A Session is not safe for concurrent use; analyze each binary's
// session from a single goroutine (the batch layer parallelizes across
// binaries, never within one).
type Session struct {
	img   *elfx.Image
	isa   arch.ISA
	opts  Options
	cache *decodeCache
	stats *Stats
	seeds []uint64
	res   *Result
	// layout is the executable-section layout (sorted by base) every
	// owner index reserves its spans from.
	layout []Range
	// ws is the owner workspace that probes and bounded walks borrow.
	ws *ownerIndex
	// pushed and decoded are the walk marks: the worklist's enqueued
	// addresses and the current walk's instruction starts.
	pushed, decoded *walkMarks
	// obs, when set, observes every committed pass (Extend, Retract,
	// Rerun); probes never report.
	obs ExecObserver
	// addrs is the buffer sortResult sorts addresses in, kept between calls.
	addrs []uint64
}

// ExecObserver receives every committed fixed-point pass of a session:
// the non-return knowledge the pass ran under and the pass result,
// whose Insts and Refs are already in address order, as on every
// result that leaves the session. The delta-analysis recorder uses it
// to capture the verdict-environment trajectory a cold run traversed;
// replay verifies changed functions against exactly these
// environments. The maps are live session state — observers must copy
// what they keep and must not mutate anything.
//
// OnPass runs between the pass and the non-return inference that
// follows it, which reads the pass's instructions from the session's
// walk marks: an observer must not walk the session (Probe, WalkLocal,
// Extend, …), or the inference would read the marks of that walk
// instead.
type ExecObserver interface {
	OnPass(nonRet, condNonRet map[uint64]bool, res *Result)
}

// SetExecObserver installs the committed-pass observer (nil disables).
func (s *Session) SetExecObserver(o ExecObserver) { s.obs = o }

// NewSession creates a session for img with the committed-state
// options used by Extend, Retract, and Rerun. Probe takes its own
// options per call.
func NewSession(img *elfx.Image, opts Options) *Session {
	s := &Session{
		img:   img,
		isa:   img.ISA(),
		opts:  opts,
		stats: &Stats{ColdStarts: 1},
	}
	for _, sec := range img.ExecSections() {
		s.layout = append(s.layout, Range{Start: sec.Addr, End: sec.End()})
	}
	s.cache = &decodeCache{index: newByteTable[int32](s.layout)}
	s.ws = newOwnerIndex(s.layout)
	s.pushed = newWalkMarks(s.layout)
	s.decoded = newWalkMarks(s.layout)
	return s
}

// borrowOwner lends the session's workspace index, empty, to one walk.
// Walks never nest, so a second borrow before the first is returned is
// a bug.
func (s *Session) borrowOwner() *ownerIndex {
	ws := s.ws
	if ws.borrowed {
		panic("disasm: owner workspace borrowed while another walk holds it")
	}
	ws.reset()
	ws.borrowed = true
	return ws
}

// returnOwner ends a walk's borrow and detaches the workspace from the
// walk's result, which then carries no coverage index.
func (s *Session) returnOwner(res *Result) {
	s.ws.borrowed = false
	res.owner = nil
}

// Release ends the session: every chunk of its decode index, walk
// marks and owner workspace goes to the pool of its slot type, which
// later sessions' tables draw from, so a short-lived session — delta
// replay builds two per request — does not leave them to the garbage
// collector. Results the session returned stay valid; a LocalWalk's
// verdicts panic, and the session must not walk again.
func (s *Session) Release() {
	s.cache.index.release()
	s.pushed.release()
	s.decoded.release()
	s.ws.release()
}

// Result returns the current committed result (nil before the first
// Extend/Rerun).
func (s *Session) Result() *Result { return s.res }

// Stats returns a snapshot of the session's counters.
func (s *Session) Stats() Stats { return *s.stats }

// Extend appends newSeeds to the committed seed list and re-analyzes,
// reusing every already-decoded instruction. The result is
// byte-identical to Recursive(img, allSeedsSoFar, opts).
func (s *Session) Extend(newSeeds []uint64) *Result {
	s.stats.Extends++
	s.seeds = append(s.seeds, newSeeds...)
	s.res = s.exec(s.seeds, s.opts, false)
	return s.res
}

// Retract removes the given seeds from the committed list (preserving
// the order of the remainder) and re-analyzes — the §V-B CFI-error
// recovery, which must drop the reachability contribution of removed
// FDE starts without paying a cold resweep.
func (s *Session) Retract(remove []uint64) *Result {
	s.stats.Retracts++
	drop := make(map[uint64]bool, len(remove))
	for _, a := range remove {
		drop[a] = true
	}
	kept := s.seeds[:0]
	for _, a := range s.seeds {
		if !drop[a] {
			kept = append(kept, a)
		}
	}
	s.seeds = kept
	s.res = s.exec(s.seeds, s.opts, false)
	return s.res
}

// Rerun replaces the committed seed list wholesale and re-analyzes.
// Callers that rebuild their seed list each round (the baseline tool
// pipelines) use it to keep exact scratch seed order while still
// reusing the decode cache.
func (s *Session) Rerun(seeds []uint64) *Result {
	s.stats.Reruns++
	s.seeds = append(s.seeds[:0:0], seeds...)
	s.res = s.exec(s.seeds, s.opts, false)
	return s.res
}

// Probe runs a one-shot walk from seeds under opts without touching
// the committed seed list or result. Candidate validation and
// jump-table resolution use it for speculative decodes.
//
// The walk records coverage in the session's owner workspace and
// returns it when done, so the result carries no coverage index:
// Covered and InstStartAt report nothing on it. Every other field is
// byte-identical to Recursive(img, seeds, opts).
func (s *Session) Probe(seeds []uint64, opts Options) *Result {
	s.stats.Probes++
	return s.exec(seeds, opts, true)
}

// exec runs the full Recursive fixed point from the given seeds with
// cached decoding. Knowledge always restarts from empty so the
// iteration trajectory — and therefore the result — matches a
// from-scratch run exactly. A probe's passes borrow the owner workspace
// and go unreported; the others allocate an owner index per pass and
// report to the ExecObserver. Only the passes that leave the session —
// the last one, and every pass an observer sees — are put in address
// order: the inner passes of the fixed point are read through the walk
// marks alone.
func (s *Session) exec(seeds []uint64, opts Options, probe bool) *Result {
	observed := !probe && s.obs != nil
	nonRet := map[uint64]bool{}
	condNonRet := map[uint64]bool{}
	var res *Result
	for iter := 0; iter < 6; iter++ {
		if probe {
			res = s.pass(seeds, opts, nonRet, condNonRet, s.borrowOwner(), nil)
			s.returnOwner(res)
		} else {
			res = s.pass(seeds, opts, nonRet, condNonRet, newOwnerIndex(s.layout), nil)
		}
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
	}
	if !observed {
		s.sortResult(res)
	}
	res.NonRet = nonRet
	res.CondNonRet = condNonRet
	return res
}

// sortResult puts a finished walk's Insts and Refs in address order.
// The walk appended both in walk order. Instructions are ordered by
// sorting their bare addresses and reading each decoding back from the
// decode arena, which holds every instruction a walk decoded unless the
// arena is full; only then are the instructions themselves sorted.
func (s *Session) sortResult(res *Result) {
	if s.cache.full() {
		slices.SortFunc(res.Insts, func(a, b *arch.Inst) int { return cmp.Compare(a.Addr, b.Addr) })
	} else {
		addrs := s.addrs[:0]
		for _, in := range res.Insts {
			addrs = append(addrs, in.Addr)
		}
		slices.Sort(addrs)
		for i, a := range addrs {
			res.Insts[i] = s.cache.entries[*s.cache.index.at(a)-1].inst
		}
		s.addrs = addrs[:0]
	}
	slices.SortFunc(res.Refs, compareRefs)
}

// decode memoizes the pure part of instruction decoding: the section
// window fetch and the backend decode at addr. An address outside the
// executable layout has no index slot and is decoded afresh each time.
func (s *Session) decode(addr uint64) decodeEntry {
	c := s.cache
	slot := c.index.slot(addr)
	if slot != nil && *slot != 0 {
		s.stats.InstsReused++
		return c.entries[*slot-1]
	}
	s.stats.InstsDecoded++
	var e decodeEntry
	window, ok := s.img.BytesToSectionEnd(addr)
	if !ok {
		e = decodeEntry{kind: decodeNoWindow}
	} else if in, err := s.isa.Decode(window, addr); err != nil {
		e = decodeEntry{kind: decodeBad}
	} else {
		inst := in
		e = decodeEntry{inst: &inst, kind: decodeOK, rdi: s.isa.GateEffect(&inst)}
		for _, cv := range inst.Constants() {
			if s.img.IsMapped(cv) {
				e.consts = append(e.consts, cv)
			}
		}
	}
	if slot != nil && !c.full() {
		c.entries = append(c.entries, e)
		*slot = int32(len(c.entries))
	}
	return e
}

// walkBound confines a pass to one byte range: the bounded walk behind
// delta replay (WalkLocal). A push that leaves the range is recorded as
// an exit instead of walked, exactly as the unbounded walk's
// contribution of this range would appear to every other range; a
// fall-through run that leaves the range, or an instruction that
// straddles its end, marks the walk escaped, since the unbounded walk
// would go on to read bytes outside it.
type walkBound struct {
	FuncRange
	exits   []uint64
	escaped bool
}

// pass performs one full recursive descent with the current
// non-return knowledge, identical to the historical from-scratch pass
// except that instruction decodes come from the session cache. It
// records coverage in own, which must be empty. bound, when non-nil,
// confines the walk to one range; committed passes and probes pass nil.
func (s *Session) pass(seeds []uint64, opts Options,
	nonRet, condNonRet map[uint64]bool, own *ownerIndex, bound *walkBound) *Result {

	s.stats.FixedPointPasses++
	img := s.img
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

	type workItem struct {
		addr uint64
		rdi  rdiState
	}
	var work []workItem
	pushed, decoded := s.pushed, s.decoded
	pushed.next()
	decoded.next()
	push := func(addr uint64, rdi rdiState) {
		if bound != nil && !bound.contains(addr) {
			bound.exits = append(bound.exits, addr)
			return
		}
		if pushed.add(addr) {
			work = append(work, workItem{addr, rdi})
		}
	}
	addRef := func(target, from uint64) {
		res.Refs = append(res.Refs, Ref{Target: target, From: from})
	}
	strictErr := func(kind ErrorKind, at uint64) {
		if opts.Strict {
			res.Errors = append(res.Errors, Error{Kind: kind, At: at})
		}
	}
	// intoFunctionMiddle checks the §IV-E rule (iii).
	intoFunctionMiddle := func(t uint64) bool {
		for _, r := range opts.KnownRanges {
			if t > r.Start && t < r.End {
				return true
			}
		}
		return false
	}

	for _, sd := range seeds {
		res.Funcs[sd] = true
		push(sd, rdiUnknown)
	}

	for len(work) > 0 {
		item := work[len(work)-1]
		work = work[:len(work)-1]
		addr := item.addr
		rdi := item.rdi

		for {
			if opts.MaxInsts > 0 && len(res.Insts) >= opts.MaxInsts {
				return res
			}
			if len(res.Errors) > 0 {
				// A strict walk ends at its first error: every rule
				// only rejects, so walking on cannot change a verdict.
				return res
			}
			if bound != nil && !bound.contains(addr) {
				bound.escaped = true
				break
			}
			if decoded.has(addr) {
				break
			}
			if owner, mid := own.get(addr); mid && owner != addr {
				// An order-sensitive rule that leaves no trace in the
				// instruction set: record that it fired so delta
				// re-analysis refuses to reuse this walk.
				res.sawMid = true
				strictErr(ErrMidInstruction, addr)
				break
			}
			if !img.IsExec(addr) {
				strictErr(ErrOutOfSection, addr)
				break
			}
			e := s.decode(addr)
			if e.kind == decodeNoWindow {
				strictErr(ErrOutOfSection, addr)
				break
			}
			if e.kind == decodeBad {
				strictErr(ErrInvalidOpcode, addr)
				break
			}
			in := e.inst
			if bound != nil && in.Next() > bound.End {
				bound.escaped = true
				break
			}
			res.Insts = append(res.Insts, in)
			decoded.add(addr)
			if own.setRange(addr, int(in.Len)) {
				// The instruction overlaps one decoded earlier in the
				// walk, and the shared bytes now belong to the later
				// one: coverage depends on walk order, so this is
				// order-sensitive too.
				res.sawMid = true
			}
			for _, c := range e.consts {
				res.Constants[c] = true
			}

			// Track the first-argument state for the error/error_at_line
			// call-site slice (memoized per instruction). Calls keep the
			// state: the clobber applies after the call-site gate below
			// consumes it.
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
					strictErr(ErrOutOfSection, in.Addr)
					break
				}
				if intoFunctionMiddle(t) {
					strictErr(ErrIntoFunction, in.Addr)
				}
				addRef(t, in.Addr)
				res.Funcs[t] = true
				push(t, rdiUnknown)
				// Fall through only when the callee can return here.
				if opts.NonReturning {
					if nonRet[t] {
						goto pathDone
					}
					if condNonRet[t] && rdi != rdiZero {
						goto pathDone
					}
				}
				rdi = rdiUnknown // the callee clobbers rdi
				addr = in.Next()
				continue
			case arch.OpJcc:
				t := in.Target
				if img.IsExec(t) {
					if intoFunctionMiddle(t) {
						strictErr(ErrIntoFunction, in.Addr)
					}
					addRef(t, in.Addr)
					push(t, rdiUnknown)
				} else {
					strictErr(ErrOutOfSection, in.Addr)
				}
				addr = in.Next()
				continue
			case arch.OpJmp:
				t := in.Target
				if img.IsExec(t) {
					if intoFunctionMiddle(t) {
						strictErr(ErrIntoFunction, in.Addr)
					}
					addRef(t, in.Addr)
					push(t, rdiUnknown)
				} else {
					strictErr(ErrOutOfSection, in.Addr)
				}
				goto pathDone
			case arch.OpJmpInd:
				if opts.ResolveJumpTables {
					targets := s.isa.ResolveJumpTable(jtCtx{s: s, res: res}, in, maxJumpTableEntries)
					if len(targets) > 0 {
						res.JTTargets[in.Addr] = targets
					}
					for _, t := range targets {
						addRef(t, in.Addr)
						push(t, rdiUnknown)
					}
				}
				goto pathDone
			case arch.OpRet, arch.OpUd2, arch.OpHlt, arch.OpInt3:
				goto pathDone
			}
			addr = in.Next()
		}
	pathDone:
	}
	return res
}
