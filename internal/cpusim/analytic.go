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

// summaryEntry is the memoized sketch; immutable once published.
type summaryEntry struct{ sum phasesum.Summary }

// privResultFor returns app w's private replay for slot ai — through the
// memo when available (the same "cpusim/priv" entries the exact shared
// path uses), cold otherwise.
func privResultFor(cfg Config, memo *simcache.Cache, w *trace.Workload, ai int) (privResult, error) {
	compute := func() (privResult, error) {
		l1, err := memsim.NewCache("l1", cfg.L1Bytes, cfg.L1Ways, 1)
		if err != nil {
			return privResult{}, err
		}
		l2, err := memsim.NewCache("l2", cfg.L2Bytes, cfg.L2Ways, 1)
		if err != nil {
			return privResult{}, err
		}
		count, maxPhase := 0, 0
		for pi := range w.Phases {
			if refs := w.Phases[pi].MemRefs(); refs > 0 {
				k := memsim.SampleRefs(refs)
				count += k
				if k > maxPhase {
					maxPhase = k
				}
			}
		}
		return privateReplay(cfg, w, ai, l1, l2, make([]uint64, maxPhase), make([]uint64, 0, count))
	}
	if memo == nil {
		return compute()
	}
	key := simcache.Key{Domain: memoDomainPriv, Config: configKey(cfg), Workload: w.Fingerprint(), Slot: ai}
	v, _, err := memo.GetOrCompute(key, func() (any, int64, error) {
		pr, err := compute()
		if err != nil {
			return nil, 0, err
		}
		return pr, pr.bytes(), nil
	})
	if err != nil {
		return privResult{}, err
	}
	return v.(privResult), nil
}

// boundSummaryFor returns the memoized reuse sketch of app w's LLC-bound
// stream at slot ai. pr must be the matching privResult (its bound/ends
// are only read on a memo miss or when memo is nil).
func boundSummaryFor(cfg Config, memo *simcache.Cache, w *trace.Workload, ai int, pr privResult) (phasesum.Summary, error) {
	if memo == nil {
		return phasesum.Summarize(pr.bound, pr.ends), nil
	}
	key := simcache.Key{Domain: memoDomainSum, Config: configKey(cfg), Workload: w.Fingerprint(), Slot: ai}
	v, _, err := memo.GetOrCompute(key, func() (any, int64, error) {
		sum := phasesum.Summarize(pr.bound, pr.ends)
		return summaryEntry{sum: sum}, sum.Bytes(), nil
	})
	if err != nil {
		return phasesum.Summary{}, err
	}
	return v.(summaryEntry).sum, nil
}

// runSteadyAnalytic is the analytic counterpart of runSteady: exact
// private phases (memo hits), closed-form shared-LLC miss estimates, then
// the identical timing tail. Returns the model's gate: the combined
// confidence, with low confidence as the only fallback reason. apps holds
// two or more clients; phasesum.Run evaluates a lone client exactly.
func runSteadyAnalytic(cfg Config, memo *simcache.Cache, apps []App) ([]Result, phasesum.Gate, error) {
	n := len(apps)
	mem := make([][]phaseMem, n)
	sums := make([][]phasesum.PhaseSum, n)
	rates := make([]int, n)
	privs := make([]privResult, n)
	isoMems := make([][]phaseMem, n)
	for ai := range apps {
		w := apps[ai].Workload
		pr, err := privResultFor(cfg, memo, w, ai)
		if err != nil {
			return nil, phasesum.Gate{}, err
		}
		privs[ai] = pr
		sum, err := boundSummaryFor(cfg, memo, w, ai, pr)
		if err != nil {
			return nil, phasesum.Gate{}, err
		}
		sums[ai] = sum.Line
		rates[ai] = sum.TotalRefs
		// Exact isolated anchor (memoized whole-run iso, slot 0): the
		// model predicts contention's *delta* on top of it. Slot-0
		// streams differ from slot-ai ones only in seed/base, so the
		// anchor transfers; the residual is what the oracle bounds.
		isoMem, _, err := simulateMemory(cfg, memo, []App{{Workload: w, Threads: apps[ai].Threads}})
		if err != nil {
			return nil, phasesum.Gate{}, err
		}
		isoMems[ai] = isoMem[0]
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
	gate := phasesum.Gate{Conf: conf, Reason: phasesum.FallbackLowConfidence}
	return steadyFromMem(cfg, apps, mem, llcRates), gate, nil
}
