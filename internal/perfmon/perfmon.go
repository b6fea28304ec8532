// Package perfmon derives the runtime metrics the paper collects with Linux
// perf: per-application IPC in isolated and shared executions, slowdowns,
// and the fairness metric of Equation 2 that quantifies how evenly a bag of
// co-running tasks degrades on the multicore server.
package perfmon

import (
	"errors"
	"fmt"
)

// AppPerf holds one application's IPC measured alone and in the shared run.
type AppPerf struct {
	IPCAlone  float64
	IPCShared float64
}

// Slowdown returns IPCshared/IPCalone — 1.0 means unaffected, smaller means
// the app lost performance to contention.
func (a AppPerf) Slowdown() (float64, error) {
	if a.IPCAlone <= 0 {
		return 0, errors.New("perfmon: non-positive isolated IPC")
	}
	if a.IPCShared <= 0 {
		return 0, errors.New("perfmon: non-positive shared IPC")
	}
	return a.IPCShared / a.IPCAlone, nil
}

// Fairness implements Equation 2 of the paper for a bag of tasks:
//
//	fairness_T = min over task pairs (i, j) of (slowdown_i / slowdown_j)
//
// i.e. the minimum slowdown divided by the maximum slowdown. It is 1 when
// every task degrades equally and approaches 0 when contention is lopsided.
// A single-task bag has fairness 1 by definition.
func Fairness(apps []AppPerf) (float64, error) {
	if len(apps) == 0 {
		return 0, errors.New("perfmon: empty bag")
	}
	minS, maxS := 0.0, 0.0
	for i, a := range apps {
		s, err := a.Slowdown()
		if err != nil {
			return 0, fmt.Errorf("perfmon: task %d: %w", i, err)
		}
		if i == 0 || s < minS {
			minS = s
		}
		if i == 0 || s > maxS {
			maxS = s
		}
	}
	if maxS == 0 {
		return 0, errors.New("perfmon: zero maximum slowdown")
	}
	return minS / maxS, nil
}
