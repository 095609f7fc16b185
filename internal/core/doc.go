// Package core assembles the FETCH pipeline: FDE extraction, safe
// recursive disassembly (§IV-C), conservative function-pointer
// detection (§IV-E), and Algorithm 1's error fixing (§V-B) — the
// "optimal strategies" configuration of Figure 5c, with each stage
// individually switchable so the evaluation can reproduce every
// strategy combination the paper measures.
//
// # Contract
//
// The pipeline is an explicit ordered pass list (fde, recursive, xref,
// tailcall — the Passes slice is the single source of truth for
// ordering) running over one shared incremental disasm.Session and one
// Report. After the initial sweep no pass pays a cold resweep: xref
// iterations re-analyze via Session.Extend, the §V-B CFI-error
// recovery via Session.Retract, and candidate validation via
// Session.Probe — all byte-identical to from-scratch runs by the
// Session contract. Symbols are never consulted; every input is
// treated as stripped.
//
// Two properties are load-bearing for everything built on top:
//
//   - Determinism: Analyze's Report depends only on the binary bytes
//     and the Strategy. Wall-clock timings in Stats are the single
//     exception. The public API's result cache and the batch engine's
//     dedup both rely on this — they key results by (binary hash,
//     strategy) alone.
//   - Reference equivalence: ScratchAnalyze is the pre-session
//     pipeline kept verbatim as the from-scratch reference. Analyze
//     must match it byte-for-byte on every binary and strategy; the
//     equivalence suites here and the internal/oracle checkers diff
//     the two on every synthesized shape.
//
// Strategy enumeration helpers (AllStrategies, Lattice) give the
// evaluation and the oracle the full matrix and the paper's cumulative
// ladder respectively.
package core
