package phasesum

import "fmt"

// Fidelity selects how a contended GPU co-run is computed (every
// command's -fidelity flag):
//
//   - Exact: every shared structure is simulated reference-by-reference —
//     the bit-identical legacy path, pinned by the golden corpus hashes.
//   - Fast: the co-run is estimated in closed form from phase summaries;
//     isolated runs stay exact (they are the summaries' source and the
//     delta-correction anchors). Each answer reports the model's
//     confidence (RunKind.Conf) as its scope signal.
//
// The GPU co-run gives a corpus its target, so the tier changes targets
// only. The CPU co-run behind the fairness feature is one closed form at
// both tiers, so a bag's features are the same at either.
//
// The zero value "" means Exact, so zero-valued configs keep the legacy
// behaviour.
type Fidelity string

const (
	Exact Fidelity = "exact"
	Fast  Fidelity = "fast"
)

// DefaultMinConfidence is the confidence floor under which a fast-tier
// answer is counted as outside the model's calibrated scope (the
// generator's LowConfidenceRuns). Calibrated against the differential
// oracle on the paper corpus: estimates above it stay within the gated
// error bounds, and the skew/thrash cases fall below it.
const DefaultMinConfidence = 0.75

// ParseFidelity validates a -fidelity flag value; "" selects Exact. It is
// the one place the tier list is spelled.
func ParseFidelity(s string) (Fidelity, error) {
	switch Fidelity(s) {
	case "", Exact:
		return Exact, nil
	case Fast:
		return Fast, nil
	}
	return "", fmt.Errorf("phasesum: unknown fidelity %q (want exact or fast)", s)
}

// Effective resolves the zero value to Exact.
func (f Fidelity) Effective() Fidelity {
	if f == "" {
		return Exact
	}
	return f
}

// Analytic reports whether this tier uses the closed-form model.
func (f Fidelity) Analytic() bool { return f == Fast }

func (f Fidelity) String() string { return string(f.Effective()) }
