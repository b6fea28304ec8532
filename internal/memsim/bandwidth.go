package memsim

// BandwidthShares apportions total bandwidth (bytes/second) among
// co-running clients by max-min fairness over their demanded rates:
// client i moves traffic[i] bytes in cycles[i] cycles at freqGHz when
// bandwidth is unconstrained (a client with no time demands nothing).
func BandwidthShares(total, freqGHz float64, cycles, traffic []float64) []float64 {
	demand := make([]float64, len(cycles))
	for i := range cycles {
		t := cycles[i] / (freqGHz * 1e9)
		if t > 0 {
			demand[i] = traffic[i] / t
		}
	}
	return Waterfill(total, demand)
}

// Waterfill apportions total bandwidth among clients with the given demands
// using max-min fairness (progressive filling): every client is guaranteed
// an equal share, clients that demand less than their share keep only what
// they need, and the surplus is redistributed among the still-unsatisfied
// clients. This mirrors how fair memory controllers arbitrate between
// co-running applications: light consumers are unaffected while heavy
// consumers absorb the squeeze — the asymmetry the fairness metric measures.
//
// The returned shares satisfy share[i] <= max(demand[i], equalShare) and
// sum(min(share, demand)) <= total. Clients with zero demand receive the
// full total (they are never bandwidth-bound).
func Waterfill(total float64, demand []float64) []float64 {
	share := make([]float64, len(demand))
	if total <= 0 || len(demand) == 0 {
		return share
	}
	var sum float64
	for _, d := range demand {
		sum += d
	}
	if sum <= total {
		// No congestion: everyone sees the full pipe.
		for i := range share {
			share[i] = total
		}
		return share
	}

	unsat := make([]int, 0, len(demand))
	for i, d := range demand {
		if d > 0 {
			unsat = append(unsat, i)
		} else {
			share[i] = total
		}
	}
	remaining := total
	for len(unsat) > 0 {
		fair := remaining / float64(len(unsat))
		progressed := false
		next := unsat[:0]
		for _, i := range unsat {
			if demand[i] <= fair {
				share[i] = demand[i]
				remaining -= demand[i]
				progressed = true
			} else {
				next = append(next, i)
			}
		}
		unsat = next
		if !progressed {
			// Everyone remaining wants more than the fair share:
			// split the remainder equally.
			for _, i := range unsat {
				share[i] = fair
			}
			break
		}
	}
	return share
}
