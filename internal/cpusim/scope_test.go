package cpusim

import (
	"testing"

	"mapc/internal/memsim"
	"mapc/internal/vision"
)

// TestL2MissStreamsNeverRepeatALine pins the scope of the CPU model's
// closed form. The simulator sends every L2 miss to DRAM with no shared
// LLC stage, which is exact only while no sampled L2-miss stream touches a
// line twice: then an LLC of any capacity sees compulsory misses alone,
// and co-runners, whose slots use disjoint address ranges, cannot hit on
// each other's lines either.
//
// Footprints come from the ≤ 3-image sample and are never scaled, so the
// sample count decides them; the batch size still picks the stream seed
// and its sampled length, and the slot and prefetch degree shape the
// stream too. Every registry benchmark is replayed at every sample count,
// at large batches up to vision.MaxBatch, at slots 0–3 and at prefetch
// degrees 0, 2 (the golden prefetch corpus) and 4 (the microarchitecture
// ablation), for the corpus's default image seed. The slot only moves the
// stream's seed and base and the degree only adds L2 fills, so each
// workload runs every degree at slot 0 and one degree at each other slot.
// Lines are collected across the slots of one degree, as one co-run's
// LLC would see them, so overlapping slot address ranges fail too.
func TestL2MissStreamsNeverRepeatALine(t *testing.T) {
	const seed = 42 // dataset.DefaultConfig().Seed
	batches := map[int][]int{1: {1}, 2: {2}, 3: {3, 320, vision.MaxBatch}}
	runs := []struct {
		degree int
		slots  []int
	}{{0, []int{0, 1}}, {2, []int{0, 2}}, {4, []int{0, 3}}}
	seen := make(map[uint64]struct{})
	for _, name := range vision.Names() {
		b, err := vision.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= 3; n++ {
			sample, err := vision.Sample(b, n, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range batches[n] {
				res, err := vision.Extrapolate(sample, batch)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range runs {
					cfg := DefaultConfig()
					cfg.PrefetchDegree = r.degree
					clear(seen)
					for _, slot := range r.slots {
						repeats := 0
						_, err := privateReplay(cfg, res.Workload, slot, func(addr uint64) {
							line := addr / memsim.LineSize
							if _, ok := seen[line]; ok {
								repeats++
							}
							seen[line] = struct{}{}
						})
						if err != nil {
							t.Fatal(err)
						}
						if repeats > 0 {
							t.Errorf("%s batch %d slot %d prefetch %d: %d L2 misses re-touch a line that already missed; "+
								"the closed form's scope is exceeded: a shared LLC would hit here, so the CPU model must replay one again",
								name, batch, slot, r.degree, repeats)
						}
					}
				}
			}
		}
	}
}
