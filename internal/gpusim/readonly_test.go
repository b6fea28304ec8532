package gpusim

import (
	"reflect"
	"testing"

	"mapc/internal/simcache"
	"mapc/internal/trace"
)

// TestRunTreatsWorkloadsAsReadOnly enforces the read-only contract
// documented on RunMemoSharesFidelity: no tier mutates its input workloads,
// so dataset.Generator may pass its cached workloads directly (no
// per-point clones). Checked two ways — the full-field Fingerprint digest
// and a structural DeepEqual against a pre-run Clone — across isolated,
// shared, and memoized runs under eviction pressure.
func TestRunTreatsWorkloadsAsReadOnly(t *testing.T) {
	cfg := DefaultConfig()

	wa, wb := memKernel("a"), computeKernel("b")
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

	if _, err := RunMemo(cfg, nil, []*trace.Workload{wa}); err != nil {
		t.Fatal(err)
	}
	check("isolated run")

	if _, err := RunMemo(cfg, nil, []*trace.Workload{wa, wb}); err != nil {
		t.Fatal(err)
	}
	check("shared run")

	for _, budget := range []int64{64 << 20, 1 << 12} {
		memo := simcache.MustNew(budget)
		for i := 0; i < 3; i++ {
			if _, err := RunMemo(cfg, memo, []*trace.Workload{wa}); err != nil {
				t.Fatal(err)
			}
			if _, err := RunMemo(cfg, memo, []*trace.Workload{wa, wb}); err != nil {
				t.Fatal(err)
			}
		}
		check("RunMemo")
	}
}
