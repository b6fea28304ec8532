package gpusim

import (
	"mapc/internal/memsim"
	"mapc/internal/phasesum"
	"mapc/internal/simcache"
	"mapc/internal/trace"
)

// This file is the GPU side of the fast fidelity tier (see
// internal/phasesum): the contended co-run — the shared L2 and shared TLB
// interleave with periodic MPS flushes that runSteady replays
// reference-by-reference — is replaced by closed-form capacity-sharing
// estimates over memoized per-phase reuse sketches (lines for the L2,
// pages for the TLB). Isolated runs stay exact and anchor the deltas.

// memoDomainSum caches the reuse sketch of one client's reference stream.
// Stream generation is pure in (workload, slot) — see streamEntry — so
// sketches are keyed with an empty Config and shared across device
// configurations.
const memoDomainSum = "gpusim/sum"

// summarizeStream sketches client w's stream for slot ai from a transient
// copy (withScratchStream): the fast tier reads each stream exactly once,
// so only the sketch is worth publishing.
func summarizeStream(w *trace.Workload, ai int) (phasesum.Summary, error) {
	var sum phasesum.Summary
	err := withScratchStream(w, ai, func(se streamEntry) error {
		sum = phasesum.Summarize(se.addrs, se.ends)
		return nil
	})
	return sum, err
}

// streamSummaryFor returns the memoized reuse sketch of client w's stream
// at slot ai; only the sketch is published, never the stream.
func streamSummaryFor(memo *simcache.Cache, w *trace.Workload, ai int) (phasesum.Summary, error) {
	key := simcache.Key{Domain: memoDomainSum, Workload: w.Fingerprint(), Slot: ai}
	sum, _, err := simcache.GetOrCompute(memo, key, func() (phasesum.Summary, int64, error) {
		sum, err := summarizeStream(w, ai)
		return sum, sum.Bytes(), err
	})
	return sum, err
}

// runSteadyAnalytic is the analytic counterpart of runSteady: exact
// isolated anchors (memo hits), closed-form shared-L2 and shared-TLB miss
// estimates, then the identical timing tail. Also returns the model's
// combined confidence after the share and bandwidth terms. workloads holds
// two or more clients; phasesum.Run evaluates a lone client exactly.
func runSteadyAnalytic(cfg Config, memo *simcache.Cache, workloads []*trace.Workload, shares []float64) ([]Result, float64, error) {
	n := len(workloads)
	lineSums := make([][]phasesum.PhaseSum, n)
	pageSums := make([][]phasesum.PhaseSum, n)
	rates := make([]int, n)
	isoMems := make([][]phaseMem, n)
	for ai, w := range workloads {
		sum, err := streamSummaryFor(memo, w, ai)
		if err != nil {
			return nil, 0, err
		}
		lineSums[ai] = sum.Line
		pageSums[ai] = sum.Page
		rates[ai] = sum.TotalRefs
		// Exact isolated anchor (memoized whole-run iso, slot 0): the
		// model predicts contention's *delta* on top of it. Slot-0
		// streams differ from slot-ai ones only in seed/base, so the
		// anchor transfers; the residual is what the oracle bounds.
		isoMem, _, _, err := simulateMemory(cfg, memo, []*trace.Workload{w})
		if err != nil {
			return nil, 0, err
		}
		isoMems[ai] = isoMem[0]
	}

	l2Cfg := phasesum.SharedConfig{Capacity: float64(cfg.L2Bytes) / memsim.LineSize}
	tlbCfg := phasesum.SharedConfig{Capacity: float64(cfg.TLBEntries)}
	if cfg.TLBFlushPeriod > 0 {
		// MPS context interleaving flushes the shared TLB only with more
		// than one resident client — the same n > 1 gate the exact
		// interleave applies.
		tlbCfg.FlushPeriod = float64(cfg.TLBFlushPeriod)
	}
	shL2 := phasesum.SharedMiss(lineSums, rates, l2Cfg)
	shTLB := phasesum.SharedMiss(pageSums, rates, tlbCfg)
	conf := phasesum.CombineConfidence(shL2, lineSums)
	if c := phasesum.CombineConfidence(shTLB, pageSums); c < conf {
		conf = c
	}
	smShares := smSharesOf(cfg, n, shares)

	mem := make([][]phaseMem, n)
	l2Rates := make([]float64, n)
	tlbRates := make([]float64, n)
	for ai, w := range workloads {
		// Isolated model anchors: single-client, no flushing — matching
		// the exact isolated interleave the anchors were measured on.
		isoL2 := phasesum.SharedMiss([][]phasesum.PhaseSum{lineSums[ai]}, []int{rates[ai]}, phasesum.SharedConfig{Capacity: l2Cfg.Capacity})
		isoTLB := phasesum.SharedMiss([][]phasesum.PhaseSum{pageSums[ai]}, []int{rates[ai]}, phasesum.SharedConfig{Capacity: tlbCfg.Capacity})
		pm := make([]phaseMem, len(w.Phases))
		var l2Sum, tlbSum, refSum float64
		for pi := range pm {
			refs := float64(lineSums[ai][pi].Refs)
			if refs == 0 {
				continue
			}
			l2m := phasesum.Clamp01(isoMems[ai][pi].l2Miss + shL2[ai][pi].Miss - isoL2[0][pi].Miss)
			tlbm := phasesum.Clamp01(isoMems[ai][pi].tlbMiss + shTLB[ai][pi].Miss - isoTLB[0][pi].Miss)
			pm[pi].l2Miss = l2m
			pm[pi].tlbMiss = tlbm
			l2Sum += l2m * refs
			tlbSum += tlbm * refs
			refSum += refs
		}
		mem[ai] = pm
		if refSum > 0 {
			l2Rates[ai] = l2Sum / refSum
			tlbRates[ai] = tlbSum / refSum
		}
	}

	// DRAM-contention term: each client's demanded rate is its modelled
	// miss traffic spread over the anchored per-partition time (the same
	// prelim pass steadyFromMem feeds its waterfill from, before the
	// bandwidth floor applies). The bound fraction raises confidence —
	// saturated phase times are pinned by bytes/bandwidth and stop caring
	// about threshold-straddling reuse mass — while demand far past the
	// device bandwidth leaves the model's regime: zero confidence. See
	// phasesum/shares.go.
	demands := make([]phasesum.BandwidthDemand, n)
	for ai, w := range workloads {
		cycles, bytes := appCycles(cfg, w, mem[ai], smShares[ai], n, 0, nil)
		demands[ai] = phasesum.BandwidthDemand{Bytes: bytes, Sec: cycles / (cfg.FreqGHz * 1e9)}
	}
	if phasesum.TotalBandwidthDemand(demands) > phasesum.BandwidthGateRatio*cfg.DRAMBandwidth {
		conf = 0
	} else {
		// The share penalty replaces the former sub-SM hard refusal: a
		// continuous effective-capacity deflation by the thinnest client's
		// partition (phasesum.ShareConfidence), applied after the
		// bandwidth blend so extreme skew still lowers saturated bags.
		conf = phasesum.BandwidthConfidence(conf, phasesum.BandwidthBoundFrac(cfg.DRAMBandwidth, demands)) *
			phasesum.ShareConfidence(smShares)
	}
	return steadyFromMem(cfg, workloads, shares, mem, l2Rates, tlbRates), conf, nil
}
