package cpusim

import (
	"reflect"
	"testing"

	"mapc/internal/simcache"
)

// TestRunTreatsWorkloadsAsReadOnly enforces the read-only contract
// documented on App.Workload: the simulator never mutates its input
// workloads, so dataset.Generator may pass its cached workloads directly
// (no per-point clones). Checked two ways — the full-field Fingerprint
// digest and a structural DeepEqual against a pre-run Clone — across
// isolated runs, shared runs, and memoized runs under eviction pressure.
func TestRunTreatsWorkloadsAsReadOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrefetchDegree = 2 // exercise the prefetcher paths too

	wa, wb := memoryBound("a"), computeBound("b")
	fpA, fpB := wa.Fingerprint(), wb.Fingerprint()
	cloneA, cloneB := wa.Clone(), wb.Clone()

	check := func(stage string) {
		t.Helper()
		if wa.Fingerprint() != fpA || wb.Fingerprint() != fpB {
			t.Fatalf("%s: workload fingerprint changed; the simulator mutated its input", stage)
		}
		if !reflect.DeepEqual(wa, cloneA) || !reflect.DeepEqual(wb, cloneB) {
			t.Fatalf("%s: workload structure changed; the simulator mutated its input", stage)
		}
	}

	if _, err := RunMemo(cfg, nil, []App{{Workload: wa, Threads: 8}}); err != nil {
		t.Fatal(err)
	}
	check("isolated run")

	if _, err := RunMemo(cfg, nil, []App{{Workload: wa, Threads: 8}, {Workload: wb, Threads: 8}}); err != nil {
		t.Fatal(err)
	}
	check("shared run")

	// Memoized runs, including a tiny budget that forces evictions and
	// therefore recomputation through every cached code path.
	for _, budget := range []int64{64 << 20, 1 << 8} {
		memo := simcache.MustNew(budget)
		for i := 0; i < 3; i++ {
			if _, err := RunMemo(cfg, memo, []App{{Workload: wa, Threads: 8}}); err != nil {
				t.Fatal(err)
			}
			if _, err := RunMemo(cfg, memo, []App{{Workload: wa, Threads: 8}, {Workload: wb, Threads: 8}}); err != nil {
				t.Fatal(err)
			}
		}
		check("RunMemo")
	}
}
