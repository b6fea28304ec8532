package cpusim

import (
	"mapc/internal/memsim"
	"mapc/internal/phasesum"
	"mapc/internal/simcache"
	"mapc/internal/trace"
)

// This file is the CPU side of the fast fidelity tier (see
// internal/phasesum): the contended co-run — the shared-LLC interleave
// that runSteady replays reference-by-reference for every bag — is replaced
// by a closed-form capacity-sharing model over memoized per-phase reuse
// sketches of each app's LLC-bound stream. Isolated runs stay exact: they
// are both the summaries' source and the delta-correction anchors, so a
// fast-tier result degrades gracefully toward the exact one as contention
// vanishes.

// memoDomainSum caches the reuse sketch of one app's LLC-bound stream.
// Keyed by (config, workload, slot): the bound stream is the L2 miss
// stream, so it depends on the private cache geometry and the prefetcher.
const memoDomainSum = "cpusim/sum"

// boundSummaryFor returns the memoized reuse sketch of app w's LLC-bound
// stream at slot ai. pr must be the matching privResult (its bound/ends
// are only read when the sketch is computed).
func boundSummaryFor(memo *simcache.Cache, cfgKey string, w *trace.Workload, ai int, pr privResult) (phasesum.Summary, error) {
	key := simcache.Key{Domain: memoDomainSum, Config: cfgKey, Workload: w.Fingerprint(), Slot: ai}
	sum, _, err := simcache.GetOrCompute(memo, key, func() (phasesum.Summary, int64, error) {
		sum := phasesum.Summarize(pr.bound, pr.ends)
		return sum, sum.Bytes(), nil
	})
	return sum, err
}

// runSteadyAnalytic is the analytic counterpart of runSteady: exact
// private phases (privFor), closed-form shared-LLC miss estimates, then
// the identical timing tail. Also returns the model's combined confidence.
// apps holds two or more clients; phasesum.Run evaluates a lone client
// exactly.
func runSteadyAnalytic(cfg Config, memo *simcache.Cache, apps []App) ([]Result, float64, error) {
	n := len(apps)
	mem := make([][]phaseMem, n)
	sums := make([][]phasesum.PhaseSum, n)
	rates := make([]int, n)
	privs := make([]privResult, n)
	isoMems := make([][]phaseMem, n)
	cfgKey := configKey(cfg)
	for ai := range apps {
		w := apps[ai].Workload
		pr, err := privFor(cfg, memo, cfgKey, w, ai)
		if err != nil {
			return nil, 0, err
		}
		privs[ai] = pr
		sum, err := boundSummaryFor(memo, cfgKey, w, ai, pr)
		if err != nil {
			return nil, 0, err
		}
		sums[ai] = sum.Line
		rates[ai] = sum.TotalRefs
		// Exact isolated anchor (memoized whole-run iso, slot 0): the
		// model predicts contention's *delta* on top of it. Slot-0
		// streams differ from slot-ai ones only in seed/base, so the
		// anchor transfers; the residual is what the oracle bounds.
		iso, err := isoFor(cfg, memo, cfgKey, App{Workload: w, Threads: apps[ai].Threads})
		if err != nil {
			return nil, 0, err
		}
		isoMems[ai] = iso.mem[0]
	}

	shCfg := phasesum.SharedConfig{Capacity: float64(cfg.LLCytes) / memsim.LineSize}
	shared := phasesum.SharedMiss(sums, rates, shCfg)
	conf := phasesum.CombineConfidence(shared, sums)

	llcRates := make([]float64, n)
	for ai := range apps {
		iso := phasesum.SharedMiss([][]phasesum.PhaseSum{sums[ai]}, []int{rates[ai]}, shCfg)
		pm := make([]phaseMem, len(privs[ai].mem))
		var missSum, boundSum float64
		for pi := range pm {
			l2 := privs[ai].mem[pi].l2Miss
			pm[pi].l1Miss = privs[ai].mem[pi].l1Miss
			pm[pi].l2Miss = l2
			if l2 <= 0 {
				continue
			}
			// Anchor in bound-stream space: exact isolated LLC misses
			// per LLC access, shifted by the model's contention delta,
			// clamped into [0,1] (LLC misses are a subset of L2 misses).
			anchor := 0.0
			if isoL2 := isoMems[ai][pi].l2Miss; isoL2 > 0 {
				anchor = isoMems[ai][pi].llcMiss / isoL2
			}
			m := phasesum.Clamp01(anchor + shared[ai][pi].Miss - iso[0][pi].Miss)
			pm[pi].llcMiss = m * l2
			bound := float64(sums[ai][pi].Refs)
			missSum += m * bound
			boundSum += bound
		}
		mem[ai] = pm
		if boundSum > 0 {
			llcRates[ai] = missSum / boundSum
		}
	}
	return steadyFromMem(cfg, apps, mem, llcRates), conf, nil
}
