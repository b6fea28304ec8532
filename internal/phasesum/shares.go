// Fractional-share and DRAM-bandwidth extensions of the contention model.
//
// # Fractional SM shares
//
// SharedMiss itself is share-independent by design: the exact simulators
// interleave reference streams in proportion to stream length regardless
// of how SMs are partitioned (an MPS partition changes *when* references
// issue, not *which* lines and pages they touch), so the closed-form miss
// thresholds must not depend on the share vector either — folding share
// weights into the interleave rates would move the estimates away from
// the exact co-run the oracle scores them against. What a partition does
// change is the timing model's regime: occupancy head-room, in-flight
// miss slots, and the divergence penalty all scale with the partition,
// and below roughly one SM's worth of resources they are dominated by
// granularity effects the reuse sketches cannot see. The old tier
// expressed that as a hard refusal (confidence zero below one SM), which
// cliff-rejected every skewed share vector. ShareConfidence replaces the
// cliff with a continuous effective-capacity deflation: each client's
// confidence factor falls linearly with its SM partition below one SM,
// and the thinnest client bounds the bag, because errors in its phase
// times dominate the phased schedule's makespan.
//
// # DRAM-bandwidth contention
//
// Aggregate miss traffic beyond the device bandwidth slows every client
// by the same saturation factor (the proportional interleave admits
// references in fixed ratio, so a uniform slowdown leaves each client's
// share r_i/R of the global stream — and hence every DeltaMax threshold —
// invariant). The timing tail already carries the saturated bytes/BW
// floor per phase; what saturation changes for the *model* is the
// sensitivity of the answer to miss error: a bandwidth-bound phase's time
// is pinned by bytes over bandwidth, deflating the anchored isolated
// issue rate until it saturates at the device bandwidth, so the
// threshold-straddling reuse mass that drives confidence down stops
// mattering. BandwidthConfidence therefore blends confidence toward 1 by
// the bandwidth-bound fraction. Far outside saturation the anchored
// isolated rates themselves stop ordering the phased schedule reliably;
// past BandwidthGateRatio the model reports zero confidence.
package phasesum

// ShareConfidence converts a bag's SM partitioning (absolute shares, in
// SMs) into a confidence factor in [0,1]: 1 while every client holds at
// least one full SM, deflating linearly with the thinnest client's
// partition below that. Multiplied into the run confidence, it replaces
// the former sub-SM hard refusal: near-integer partitions keep full
// confidence, while extreme skew (well under one SM) reports the run as
// outside the model's calibrated scope (under DefaultMinConfidence).
func ShareConfidence(smShares []float64) float64 {
	conf := 1.0
	for _, s := range smShares {
		if s <= 0 {
			return 0
		}
		if s < conf {
			conf = s
		}
	}
	return conf
}

// BandwidthDemand is one client's modelled DRAM pressure: Bytes of miss
// traffic (per-phase sampled refs x modelled L2 miss x line size, summed)
// spread over Sec, the anchored model time the traffic is issued in.
type BandwidthDemand struct {
	Bytes float64
	Sec   float64
}

// BandwidthBoundFrac returns the bag's bandwidth-bound fraction: the
// share of the aggregate demanded DRAM rate that exceeds the device
// bandwidth bw, i.e. 1 - bw/D for total demand D > bw and 0 when the bag
// fits. It is the degree to which phase times are pinned by bytes over
// bandwidth rather than by per-miss latency.
func BandwidthBoundFrac(bw float64, demands []BandwidthDemand) float64 {
	total := TotalBandwidthDemand(demands)
	if bw <= 0 || total <= bw {
		return 0
	}
	return 1 - bw/total
}

// TotalBandwidthDemand sums the clients' demanded DRAM rates in bytes/sec
// (clients with no modelled time contribute nothing).
func TotalBandwidthDemand(demands []BandwidthDemand) float64 {
	var total float64
	for _, d := range demands {
		if d.Sec > 0 {
			total += d.Bytes / d.Sec
		}
	}
	return total
}

// BandwidthConfidence folds DRAM saturation into the model confidence:
// conf + (1-conf)*boundFrac. A fully bandwidth-bound bag (boundFrac 1) is
// insensitive to which side of the LRU capacity threshold its boundary
// reuse mass lands on — its phase times are bytes/bandwidth either way —
// so the threshold-instability discount confidence encodes is forgiven in
// proportion to the bound fraction.
func BandwidthConfidence(conf, boundFrac float64) float64 {
	return conf + (1-conf)*Clamp01(boundFrac)
}

// BandwidthGateRatio bounds the DRAM-contention regime: once aggregate
// demand exceeds the device bandwidth by this factor, the anchored
// isolated rates the model spreads traffic over ignore so much queueing
// that the phased completion order itself becomes unreliable, and the
// model reports zero confidence. The vision suite's heaviest bags sit
// well under this; it is a pure regime guard.
const BandwidthGateRatio = 8.0
