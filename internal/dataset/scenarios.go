package dataset

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"mapc/internal/vision"
)

// The scenario matrix: a k × share-skew grid replayed through the analytic
// fidelity tiers, each cell a full corpus generation with its own sampled
// differential oracle. This is the regime map the fractional-share and
// DRAM-contention closed forms unlock — before them, every skewed cell
// fell back to exact simulation and the grid cost hours instead of
// seconds. mapc-datagen -scenarios drives it interactively; benchjson
// records DefaultSkewScenarios into BENCH_baseline.json and CI gates the
// recorded analytic coverage and oracle bounds.

// ScenarioSpec is one cell of the matrix: a bag size and a share profile.
type ScenarioSpec struct {
	// K is the bag size (2..features.MaxApps).
	K int
	// Shares is the MPS share profile (relative weights, len == K), nil
	// for the uniform equal split.
	Shares []float64
}

// Name is the cell's canonical label, e.g. "k2:uniform" or "k4:0.7/0.15/0.1/0.05".
func (s ScenarioSpec) Name() string {
	if s.Shares == nil {
		return fmt.Sprintf("k%d:uniform", s.K)
	}
	return fmt.Sprintf("k%d:%s", s.K, sharesLabel(s.Shares))
}

// ParseScenarios parses a -scenarios flag value: semicolon-separated
// cells, each "k" or "k:uniform" for the equal split, or
// "k:w1/w2/.../wk" for an explicit share profile.
func ParseScenarios(spec string) ([]ScenarioSpec, error) {
	var out []ScenarioSpec
	for _, cell := range strings.Split(spec, ";") {
		cell = strings.TrimSpace(cell)
		if cell == "" {
			continue
		}
		kPart, sharePart, _ := strings.Cut(cell, ":")
		k, err := strconv.Atoi(strings.TrimSpace(kPart))
		if err != nil {
			return nil, fmt.Errorf("dataset: scenario %q: bag size %q is not an integer", cell, kPart)
		}
		sc := ScenarioSpec{K: k}
		if sharePart != "" && sharePart != "uniform" {
			sc.Shares, err = ParseShares(sharePart)
			if err != nil {
				return nil, fmt.Errorf("dataset: scenario %q: %w", cell, err)
			}
			if len(sc.Shares) != k {
				return nil, fmt.Errorf("dataset: scenario %q: %d share weights for bag size %d", cell, len(sc.Shares), k)
			}
		}
		out = append(out, sc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dataset: empty scenario list %q", spec)
	}
	return out, nil
}

// ParseShares parses a share vector flag value: weights separated by "/"
// or ",", e.g. "0.7/0.2/0.1". Validation beyond syntax (positivity,
// length against the bag size) happens in NewGenerator.
func ParseShares(spec string) ([]float64, error) {
	spec = strings.ReplaceAll(spec, ",", "/")
	parts := strings.Split(spec, "/")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: share weight %q is not a number", p)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dataset: empty share vector %q", spec)
	}
	return out, nil
}

// ParseList parses a comma-separated list flag value (benchmarks, batch
// sizes, peers), trimming spaces around each item. An empty item — a
// doubled or trailing comma, or an empty value — is an error naming the
// flag.
func ParseList(flag, spec string) ([]string, error) {
	parts := strings.Split(spec, ",")
	for i, p := range parts {
		if parts[i] = strings.TrimSpace(p); parts[i] == "" {
			return nil, fmt.Errorf("%s: empty item in %q", flag, spec)
		}
	}
	return parts, nil
}

// ParseBatches parses a comma-separated batch-size flag value: every item
// must be an integer in [1, vision.MaxBatch].
func ParseBatches(flag, spec string) ([]int, error) {
	items, err := ParseList(flag, spec)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(items))
	for i, p := range items {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("%s: batch size %q is not an integer", flag, p)
		}
		if v <= 0 {
			return nil, fmt.Errorf("%s: batch size %d is not positive", flag, v)
		}
		if v > vision.MaxBatch {
			return nil, fmt.Errorf("%s: batch size %d exceeds the limit of %d images", flag, v, vision.MaxBatch)
		}
		out[i] = v
	}
	return out, nil
}

// DefaultSkewScenarios is the benchmarked k × share-skew grid recorded in
// BENCH_baseline.json (the "skew suite"): pairs and 4-bags from the
// uniform split down to a 0.05 minority share — the acceptance regime the
// fractional-share closed form must keep analytic.
func DefaultSkewScenarios() []ScenarioSpec {
	return []ScenarioSpec{
		{K: 2},
		{K: 2, Shares: []float64{0.7, 0.3}},
		{K: 2, Shares: []float64{0.95, 0.05}},
		{K: 4},
		{K: 4, Shares: []float64{0.7, 0.15, 0.1, 0.05}},
		{K: 4, Shares: []float64{0.85, 0.05, 0.05, 0.05}},
	}
}

// ScenarioResult is one generated cell.
type ScenarioResult struct {
	// Name is ScenarioSpec.Name().
	Name string `json:"name"`
	K    int    `json:"k"`
	// Shares is the profile's canonical label ("" for uniform).
	Shares string `json:"shares,omitempty"`
	// Points is the corpus size; PointsPerSec the cell's generation
	// throughput (wall clock, including its share of warm memo reuse).
	Points       int     `json:"points"`
	PointsPerSec float64 `json:"points_per_sec"`
	// AnalyticCoverage is the fraction of contended co-runs (CPU fairness
	// and GPU bag time) the closed-form model answered; fallbacks and
	// exact-by-configuration runs count against it.
	AnalyticCoverage float64 `json:"analytic_coverage"`
	// Fallback reasons, when any co-run fell back (mixed tier only).
	FallbackLowConfidence uint64 `json:"fallback_low_confidence,omitempty"`
	FallbackSubSMShare    uint64 `json:"fallback_sub_sm_share,omitempty"`
	FallbackBandwidthGate uint64 `json:"fallback_bandwidth_gate,omitempty"`
	// Oracle is the cell's sampled differential-oracle report (nil when
	// the matrix ran without oracle sampling).
	Oracle *OracleReport `json:"oracle,omitempty"`
}

// ScenarioReport is a whole matrix run.
type ScenarioReport struct {
	// Fidelity is the tier every cell generated under.
	Fidelity string `json:"fidelity"`
	// OracleFrac and OracleSeed record the sampling, 0/absent when off.
	OracleFrac float64          `json:"oracle_frac,omitempty"`
	OracleSeed uint64           `json:"oracle_seed,omitempty"`
	Scenarios  []ScenarioResult `json:"scenarios"`
}

// MinAnalyticCoverage is the matrix's worst per-cell coverage (1 for an
// empty report — nothing fell back).
func (r *ScenarioReport) MinAnalyticCoverage() float64 {
	min := 1.0
	for _, s := range r.Scenarios {
		if s.AnalyticCoverage < min {
			min = s.AnalyticCoverage
		}
	}
	return min
}

// MaxRelErrGPU is the worst sampled GPU bag-time error across cells.
func (r *ScenarioReport) MaxRelErrGPU() float64 {
	max := 0.0
	for _, s := range r.Scenarios {
		if s.Oracle != nil && s.Oracle.MaxRelErrGPU > max {
			max = s.Oracle.MaxRelErrGPU
		}
	}
	return max
}

// RunScenarios generates every cell of the matrix under base's tier
// (benchmarks, batches, workers, memo budget and fidelity all come from
// base; K and Shares come from the specs). oracleFrac > 0 re-measures
// that fraction of each cell's bags through the exact simulators
// (RunOracle) with the generation share vector threaded through. Cells
// run sequentially — each already parallelizes internally — and each gets
// a fresh generator, so per-cell coverage counters are exact.
func RunScenarios(base Config, specs []ScenarioSpec, oracleFrac float64, oracleSeed uint64) (*ScenarioReport, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("dataset: no scenarios to run")
	}
	rep := &ScenarioReport{
		Fidelity:   base.Fidelity.Effective().String(),
		OracleFrac: oracleFrac,
		OracleSeed: oracleSeed,
		Scenarios:  make([]ScenarioResult, 0, len(specs)),
	}
	for _, spec := range specs {
		cfg := base
		cfg.K = spec.K
		cfg.Shares = spec.Shares
		gen, err := NewGenerator(cfg)
		if err != nil {
			return nil, fmt.Errorf("dataset: scenario %s: %w", spec.Name(), err)
		}
		start := time.Now()
		corpus, err := gen.Generate()
		if err != nil {
			return nil, fmt.Errorf("dataset: scenario %s: %w", spec.Name(), err)
		}
		elapsed := time.Since(start).Seconds()
		// Coverage from the generation-time counters only: RunOracle's
		// re-measurements tally into the same generator, so snapshot first.
		st := gen.FidelityStats()
		res := ScenarioResult{
			Name:                  spec.Name(),
			K:                     spec.K,
			Shares:                sharesLabel(spec.Shares),
			Points:                len(corpus.Points),
			FallbackLowConfidence: st.FallbackLowConfidence,
			FallbackSubSMShare:    st.FallbackSubSMShare,
			FallbackBandwidthGate: st.FallbackBandwidthGate,
		}
		if elapsed > 0 {
			res.PointsPerSec = float64(len(corpus.Points)) / elapsed
		}
		if total := st.AnalyticRuns + st.ExactFallbacks + st.ExactRuns; total > 0 {
			res.AnalyticCoverage = float64(st.AnalyticRuns) / float64(total)
		}
		if oracleFrac > 0 {
			orep, err := gen.RunOracle(oracleFrac, oracleSeed)
			if err != nil {
				return nil, fmt.Errorf("dataset: scenario %s oracle: %w", spec.Name(), err)
			}
			res.Oracle = &orep
		}
		rep.Scenarios = append(rep.Scenarios, res)
	}
	return rep, nil
}
