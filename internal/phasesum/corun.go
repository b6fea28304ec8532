package phasesum

// The co-run engine both simulators share. A contended co-run is phased:
// all clients contend while co-resident, and as each one finishes, the
// survivors are re-evaluated as a smaller client set (more SMs or cores,
// less cache and bandwidth interference) — real MPS behaviour, where a
// short job's exit releases its partition to the remaining clients. The
// schedule and the fidelity-tier dispatch around it live here once; each
// simulator contributes only its steady-state evaluators.

// Gate is an analytic steady evaluation's self-assessment: the model's
// combined confidence, and the fallback reason the mixed tier reports
// when Conf sits under DefaultMinConfidence (Reason is read only then).
type Gate struct {
	Conf   float64
	Reason FallbackReason
}

// CoRun describes one simulator's co-run of N clients to Run. The
// evaluators receive the active client indices in ascending order, build
// their own sub-lists from them, and must not retain the slice. Both
// return per-client steady-state results assuming the active set stays
// resident for the whole run.
type CoRun[R any] struct {
	N int
	// Exact is the exact steady-state evaluator.
	Exact func(active []int) ([]R, error)
	// Analytic is the closed-form evaluator with its gate. It is only
	// called with two or more active clients: a lone client is exact.
	Analytic func(active []int) ([]R, Gate, error)
	// Time reads a steady result's completion time in seconds.
	Time func(R) float64
	// Finish reports a full-contention steady result completed at t
	// seconds by the phased schedule.
	Finish func(r R, t float64) R
}

// Run is the tiered co-run. Exact fidelity (and every single-client run)
// drives the phased schedule with the exact evaluator. Fast drives it with
// the analytic evaluator; mixed does so only while the full client set's
// gate clears DefaultMinConfidence, and otherwise reruns exactly and
// reports the gate's reason. The returned RunKind says which simulator
// answered.
func Run[R any](fid Fidelity, c CoRun[R]) ([]R, RunKind, error) {
	all := make([]int, c.N)
	for i := range all {
		all[i] = i
	}
	fid = fid.Effective()
	if !fid.Analytic() || c.N == 1 {
		res, err := c.exact(all)
		return res, RunKind{UsedExact: true}, err
	}
	// Evaluate the full-contention steady state once: it is both the
	// schedule's first step and the confidence the mixed tier gates on
	// (the full client set is the most contended, so its confidence is
	// the run's worst case).
	steady, gate, err := c.Analytic(all)
	if err != nil {
		return nil, RunKind{}, err
	}
	if fid == Mixed && gate.Conf < DefaultMinConfidence {
		res, err := c.exact(all)
		return res, RunKind{UsedExact: true, Fallback: gate.Reason}, err
	}
	res, err := c.schedule(steady, func(active []int) ([]R, error) {
		r, _, err := c.Analytic(active)
		return r, err
	})
	return res, RunKind{}, err
}

// exact is the exact co-run, the reference every analytic estimate is
// scored against.
func (c CoRun[R]) exact(all []int) ([]R, error) {
	steady, err := c.Exact(all)
	if err != nil {
		return nil, err
	}
	return c.schedule(steady, c.Exact)
}

// schedule runs the phased completion schedule from steady, the full
// client set's steady state: progress every active client proportionally
// to its current rate; when the earliest finisher completes, re-evaluate
// the survivors with step (a lone survivor with Exact). Reported results
// carry the phased completion times and the full-contention rates and
// memory statistics (the shared-run counters a profiler attached to the
// co-run window would read). A single client's steady state is its run.
func (c CoRun[R]) schedule(steady []R, step func(active []int) ([]R, error)) ([]R, error) {
	n := c.N
	if n == 1 {
		return steady, nil
	}
	remaining := make([]float64, n) // fraction of work left
	finish := make([]float64, n)    // completion time (seconds)
	active := make([]int, n)
	for i := range active {
		active[i] = i
		remaining[i] = 1
	}
	cur := steady
	var clock float64
	for {
		// Earliest completion among active clients at current rates.
		best := -1
		bestDT := 0.0
		for k, ai := range active {
			dt := remaining[ai] * c.Time(cur[k])
			if best < 0 || dt < bestDT {
				best, bestDT = k, dt
			}
		}
		for k, ai := range active {
			if t := c.Time(cur[k]); t > 0 {
				remaining[ai] -= bestDT / t
			} else {
				remaining[ai] = 0
			}
		}
		clock += bestDT
		done := active[best]
		finish[done] = clock
		remaining[done] = 0
		active = append(active[:best], active[best+1:]...)
		if len(active) == 0 {
			break
		}
		eval := step
		if len(active) == 1 {
			eval = c.Exact
		}
		var err error
		if cur, err = eval(active); err != nil {
			return nil, err
		}
	}
	out := make([]R, n)
	for i := range out {
		out[i] = c.Finish(steady[i], finish[i])
	}
	return out, nil
}
