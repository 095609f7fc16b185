package core

import (
	"testing"

	"fetch/internal/synth"
)

// legacyXrefIterCap is the historical hard cap this regression test
// guards against: any shape needing more rounds used to be silently
// truncated.
const legacyXrefIterCap = 3

// TestXrefChainConvergesPastLegacyCap pins the convergence bugfix with
// a shape that needs strictly more pointer-detection rounds than the
// old cap allowed: a chain of FDE-less functions where each link's
// address surfaces only after the previous link's committed extension.
// The pipeline must find every link, report convergence, and not set
// Truncated.
func TestXrefChainConvergesPastLegacyCap(t *testing.T) {
	cfg, err := synth.AdversarialProfile("xref-chain", 4242)
	if err != nil {
		t.Fatal(err)
	}
	img, truth, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(img.Strip(), FETCH)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.XrefIterations <= legacyXrefIterCap {
		t.Fatalf("shape needs > %d rounds to prove anything; got %d — generator regressed",
			legacyXrefIterCap, rep.Stats.XrefIterations)
	}
	if !rep.Stats.XrefConverged || rep.Stats.Truncated {
		t.Fatalf("fixed point did not converge: iterations=%d converged=%v truncated=%v",
			rep.Stats.XrefIterations, rep.Stats.XrefConverged, rep.Stats.Truncated)
	}
	missing := 0
	for _, fn := range truth.Funcs {
		if len(fn.Name) >= 6 && fn.Name[:6] == "xchain" && !rep.Funcs[fn.Addr] {
			missing++
			t.Errorf("chain link %s at %#x not detected", fn.Name, fn.Addr)
		}
	}
	if missing == 0 && testing.Verbose() {
		t.Logf("converged in %d rounds, all chain links found", rep.Stats.XrefIterations)
	}

	// The truncation pathology stays observable: a bound below the
	// chain's demand must mark the result truncated instead of
	// silently converging.
	trunc, _, err := analyzeWith(img.Strip(), FETCH, legacyXrefIterCap, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !trunc.Stats.Truncated || trunc.Stats.XrefConverged {
		t.Fatalf("bound %d should truncate this shape: truncated=%v converged=%v",
			legacyXrefIterCap, trunc.Stats.Truncated, trunc.Stats.XrefConverged)
	}
	if len(trunc.Funcs) >= len(rep.Funcs) {
		t.Fatalf("truncated run should find fewer starts (%d) than the converged run (%d)",
			len(trunc.Funcs), len(rep.Funcs))
	}
}
