package dataset

import (
	"fmt"
	"math"

	"mapc/internal/gpusim"
	"mapc/internal/phasesum"
)

// The differential exactness oracle: re-measure a seeded fraction of the
// corpus's bags through the exact GPU simulator and report the analytic
// tier's relative error on the GPU bag time (the label). The shared CPU
// run behind fairness is one closed form at every tier, so it has no
// error to report. CI gates the bound live on the paper corpus
// (mapc-datagen -oracle 0.1 -max-oracle-err 0.05), so a model regression
// that widens the error fails even when throughput improves.

// OracleReport summarizes one differential-oracle run.
type OracleReport struct {
	// Fidelity is the generator's configured tier under test.
	Fidelity string `json:"fidelity"`
	// Sampled and Total count the bags re-measured exactly vs. enumerated.
	Sampled int `json:"sampled"`
	Total   int `json:"total"`
	// MaxRelErrGPU / MeanRelErrGPU bound the relative error of the GPU bag
	// time — the corpus label.
	MaxRelErrGPU  float64 `json:"max_rel_err_gpu"`
	MeanRelErrGPU float64 `json:"mean_rel_err_gpu"`
}

// Within reports whether the max GPU bag-time error is at or under maxErr.
func (r OracleReport) Within(maxErr float64) bool {
	return r.MaxRelErrGPU <= maxErr
}

// bagTargets measures the bag's shared GPU run's bag time at tier fid.
// The generation share vector (Config.Shares) rides along at every tier,
// so skewed corpora are scored against the matching exact co-run, not the
// equal split.
func (g *Generator) bagTargets(bag []Member, fid phasesum.Fidelity) (gpuBagTime float64, err error) {
	ms, err := g.measureBag(bag)
	if err != nil {
		return 0, err
	}
	gpuShared, err := g.gpuCorun(ms, fid)
	if err != nil {
		return 0, err
	}
	return gpusim.BagTime(gpuShared), nil
}

// splitmix64 is the sampling PRNG: tiny, stdlib-free and stable across Go
// versions, so a (frac, seed) pair always selects the same bags.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sampleIndexes picks m distinct indexes out of total via a seeded
// Fisher-Yates prefix, deterministically in (total, m, seed).
func sampleIndexes(total, m int, seed uint64) []int {
	idx := make([]int, total)
	for i := range idx {
		idx[i] = i
	}
	s := seed
	for i := 0; i < m; i++ {
		j := i + int(splitmix64(&s)%uint64(total-i))
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:m]
}

// RunOracle re-measures a seeded fraction of the corpus's bags through the
// exact GPU simulator and reports the analytic tier's relative-error
// bounds on the bag time.
// frac in (0, 1] selects the sampled share of the bag list (at least one
// bag); seed fixes the sample, so a (config, frac, seed) triple is fully
// reproducible. The exact reference runs on g itself: isolated
// measurements are exact at every tier and already memoized, and the
// simulation memo's prefixes are reused, so only the genuinely shared
// replays run cold — the oracle costs a frac-sized slice of an exact
// generation, not a full one. The reference runs add to no fidelity
// counter.
//
// Running it on an exact-fidelity generator is a valid (if trivial)
// differential test: every error is zero.
func (g *Generator) RunOracle(frac float64, seed uint64) (OracleReport, error) {
	if math.IsNaN(frac) || frac <= 0 || frac > 1 {
		return OracleReport{}, fmt.Errorf("dataset: oracle fraction %v outside (0, 1]", frac)
	}
	bags, err := g.Bags()
	if err != nil {
		return OracleReport{}, err
	}
	if len(bags) == 0 {
		return OracleReport{}, fmt.Errorf("dataset: no bags to sample")
	}
	m := int(math.Round(frac * float64(len(bags))))
	if m < 1 {
		m = 1
	}
	if m > len(bags) {
		m = len(bags)
	}

	rep := OracleReport{Fidelity: g.cfg.Fidelity.String(), Sampled: m, Total: len(bags)}
	var gpuSum float64
	for _, bi := range sampleIndexes(len(bags), m, seed) {
		aGPU, err := g.bagTargets(bags[bi], g.cfg.Fidelity)
		if err != nil {
			return OracleReport{}, err
		}
		eGPU, err := g.bagTargets(bags[bi], phasesum.Exact)
		if err != nil {
			return OracleReport{}, err
		}
		gpuErr := relErr(aGPU, eGPU)
		gpuSum += gpuErr
		if gpuErr > rep.MaxRelErrGPU {
			rep.MaxRelErrGPU = gpuErr
		}
	}
	rep.MeanRelErrGPU = gpuSum / float64(m)
	return rep, nil
}

// relErr is |got-want|/want, with an absolute fallback when want is zero.
func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}
