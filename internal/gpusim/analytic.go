package gpusim

import (
	"mapc/internal/memsim"
	"mapc/internal/phasesum"
	"mapc/internal/simcache"
	"mapc/internal/trace"
)

// This file is the GPU side of the fast fidelity tier (see
// internal/phasesum): the contended co-run — the shared L2 and shared TLB
// interleave with periodic MPS flushes that RunMemoShares replays
// reference-by-reference — is replaced by closed-form capacity-sharing
// estimates over memoized per-phase reuse sketches (lines for the L2,
// pages for the TLB). Isolated runs stay exact and anchor the deltas.

// memoDomainSum caches the reuse sketch of one client's reference stream.
// Stream generation is pure in (workload, slot) — see streamEntry — so
// sketches are keyed with an empty Config and shared across device
// configurations.
const memoDomainSum = "gpusim/sum"

// summaryEntry is the memoized sketch; immutable once published.
type summaryEntry struct{ sum phasesum.Summary }

// summarizeStream sketches client w's stream for slot ai from a transient
// copy: the stream is materialized into a pooled scratch arena, sketched,
// and dropped. The fast tier reads each stream exactly once, so publishing
// it to the "gpusim/stream" memo (8 bytes per sampled reference) would
// only crowd out entries that are read again.
func summarizeStream(w *trace.Workload, ai int) (phasesum.Summary, error) {
	scratch := scratchPool.Get().(*simScratch)
	defer scratchPool.Put(scratch)
	se, err := materializeStream(w, ai, scratch.grow(sampleCount(w)))
	if err != nil {
		return phasesum.Summary{}, err
	}
	return phasesum.Summarize(se.addrs, se.ends), nil
}

// streamSummaryFor returns the memoized reuse sketch of client w's stream
// at slot ai; only the sketch is published, never the stream.
func streamSummaryFor(memo *simcache.Cache, w *trace.Workload, ai int) (phasesum.Summary, error) {
	if memo == nil {
		return summarizeStream(w, ai)
	}
	key := simcache.Key{Domain: memoDomainSum, Workload: w.Fingerprint(), Slot: ai}
	v, _, err := memo.GetOrCompute(key, func() (any, int64, error) {
		sum, err := summarizeStream(w, ai)
		if err != nil {
			return nil, 0, err
		}
		return summaryEntry{sum: sum}, sum.Bytes(), nil
	})
	if err != nil {
		return phasesum.Summary{}, err
	}
	return v.(summaryEntry).sum, nil
}

// smSharesOf mirrors steadyFromMem's SM partitioning: equal split for nil
// shares, normalized weights otherwise.
func smSharesOf(cfg Config, n int, shares []float64) []float64 {
	out := make([]float64, n)
	if shares == nil {
		equal := float64(cfg.SMs) / float64(n)
		for i := range out {
			out[i] = equal
		}
		return out
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	for i, s := range shares {
		out[i] = float64(cfg.SMs) * (s / sum)
	}
	return out
}

// analyticGate is the steady evaluation's self-assessment: the combined
// model confidence after the share and bandwidth terms, and — when conf
// sits under phasesum.DefaultMinConfidence — which term pushed it there.
type analyticGate struct {
	conf   float64
	reason phasesum.FallbackReason
}

// runSteadyAnalytic is the analytic counterpart of runSteady: exact
// isolated anchors (memo hits), closed-form shared-L2 and shared-TLB miss
// estimates, then the identical timing tail. Returns the model's gate
// (combined confidence plus the would-be fallback reason); an isolated
// client is computed exactly (confidence 1).
func runSteadyAnalytic(cfg Config, memo *simcache.Cache, workloads []*trace.Workload, shares []float64) ([]Result, analyticGate, error) {
	if len(workloads) == 1 {
		res, err := runSteady(cfg, memo, workloads, shares)
		return res, analyticGate{conf: 1}, err
	}
	n := len(workloads)
	lineSums := make([][]phasesum.PhaseSum, n)
	pageSums := make([][]phasesum.PhaseSum, n)
	rates := make([]int, n)
	isoMems := make([][]phaseMem, n)
	for ai, w := range workloads {
		sum, err := streamSummaryFor(memo, w, ai)
		if err != nil {
			return nil, analyticGate{}, err
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
			return nil, analyticGate{}, err
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
	// device bandwidth trips a hard regime gate. See phasesum/shares.go.
	demands := make([]phasesum.BandwidthDemand, n)
	for ai, w := range workloads {
		cycles, bytes := appCycles(cfg, w, mem[ai], smShares[ai], n, 0)
		demands[ai] = phasesum.BandwidthDemand{Bytes: bytes, Sec: cycles / (cfg.FreqGHz * 1e9)}
	}
	gate := analyticGate{conf: conf}
	if phasesum.TotalBandwidthDemand(demands) > phasesum.BandwidthGateRatio*cfg.DRAMBandwidth {
		gate = analyticGate{conf: 0, reason: phasesum.FallbackBandwidthGate}
	} else {
		bwConf := phasesum.BandwidthConfidence(conf, phasesum.BandwidthBoundFrac(cfg.DRAMBandwidth, demands))
		// The share penalty replaces the former sub-SM hard refusal: a
		// continuous effective-capacity deflation by the thinnest client's
		// partition (phasesum.ShareConfidence), applied after the
		// bandwidth blend so extreme skew still demotes saturated bags.
		gate.conf = bwConf * phasesum.ShareConfidence(smShares)
		if gate.conf < phasesum.DefaultMinConfidence {
			if bwConf >= phasesum.DefaultMinConfidence {
				gate.reason = phasesum.FallbackSubSMShare
			} else {
				gate.reason = phasesum.FallbackLowConfidence
			}
		}
	}
	return steadyFromMem(cfg, workloads, shares, mem, l2Rates, tlbRates), gate, nil
}

// RunMemoSharesFidelity is RunMemoShares with a fidelity tier. Exact
// fidelity (and every single-client run) delegates to RunMemoShares
// unchanged — bit-identical to the legacy path. Fast estimates every
// contended co-run analytically; mixed does so only while the model's
// self-reported confidence clears phasesum.DefaultMinConfidence, falling
// back to exact simulation below it (extreme share skew and demand far
// past the device bandwidth land here by construction). The returned
// RunKind reports which simulator answered and, for mixed-tier
// fallbacks, which gate bounced the run.
func RunMemoSharesFidelity(cfg Config, memo *simcache.Cache, workloads []*trace.Workload, shares []float64, fid phasesum.Fidelity) ([]Result, phasesum.RunKind, error) {
	fid = fid.Effective()
	if !fid.Analytic() || len(workloads) == 1 {
		res, err := RunMemoShares(cfg, memo, workloads, shares)
		return res, phasesum.RunKind{UsedExact: true}, err
	}
	if err := validateRun(cfg, workloads, shares); err != nil {
		return nil, phasesum.RunKind{}, err
	}
	// Evaluate the full-contention steady state once: it is both the
	// schedule's first step and the confidence the mixed tier gates on
	// (the full client set is the most contended, so its confidence is
	// the run's worst case).
	steady, gate, err := runSteadyAnalytic(cfg, memo, workloads, shares)
	if err != nil {
		return nil, phasesum.RunKind{}, err
	}
	if fid == phasesum.Mixed && gate.conf < phasesum.DefaultMinConfidence {
		res, err := RunMemoShares(cfg, memo, workloads, shares)
		return res, phasesum.RunKind{UsedExact: true, Fallback: gate.reason}, err
	}
	first := true
	res, err := runPhased(cfg, workloads, shares, func(sub []*trace.Workload, subShares []float64) ([]Result, error) {
		if first && len(sub) == len(workloads) {
			first = false
			return steady, nil
		}
		r, _, err := runSteadyAnalytic(cfg, memo, sub, subShares)
		return r, err
	})
	return res, phasesum.RunKind{}, err
}
