package cpusim

import (
	"math"
	"reflect"
	"testing"

	"mapc/internal/phasesum"
	"mapc/internal/simcache"
)

func TestFidelityExactDelegatesBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	apps := []App{
		{Workload: computeBound("a"), Threads: 8},
		{Workload: memoryBound("b"), Threads: 8},
	}
	want, err := RunMemo(cfg, nil, apps)
	if err != nil {
		t.Fatal(err)
	}
	for _, fid := range []phasesum.Fidelity{"", phasesum.Exact} {
		got, kind, err := RunMemoFidelity(cfg, nil, apps, fid)
		if err != nil {
			t.Fatal(err)
		}
		if !kind.UsedExact {
			t.Fatalf("fidelity %q did not report the exact simulator", fid)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fidelity %q diverged from RunMemo", fid)
		}
	}
}

func TestFidelitySingleAppAlwaysExact(t *testing.T) {
	cfg := DefaultConfig()
	apps := []App{{Workload: memoryBound("solo"), Threads: 8}}
	want, err := RunMemo(cfg, nil, apps)
	if err != nil {
		t.Fatal(err)
	}
	got, kind, err := RunMemoFidelity(cfg, nil, apps, phasesum.Fast)
	if err != nil {
		t.Fatal(err)
	}
	if kind != (phasesum.RunKind{UsedExact: true, Conf: 1}) || !reflect.DeepEqual(got, want) {
		t.Fatalf("fast fidelity: isolated run must be the exact path (kind %+v)", kind)
	}
}

// TestFidelityFastBounded: the analytic co-run stays finite, in-range and
// within a sanity factor of the exact simulation for compute- and
// memory-bound mixes alike.
func TestFidelityFastBounded(t *testing.T) {
	cfg := DefaultConfig()
	memo := simcache.MustNew(128 << 20)
	apps := []App{
		{Workload: computeBound("a"), Threads: 8},
		{Workload: memoryBound("b"), Threads: 8},
		{Workload: memoryBound("c"), Threads: 8},
	}
	exact, err := RunMemo(cfg, memo, apps)
	if err != nil {
		t.Fatal(err)
	}
	fast, kind, err := RunMemoFidelity(cfg, memo, apps, phasesum.Fast)
	if err != nil {
		t.Fatal(err)
	}
	if kind.UsedExact {
		t.Fatal("fast fidelity must not fall back to exact")
	}
	if kind.Conf < 0 || kind.Conf > 1 {
		t.Fatalf("reported confidence %v out of [0,1]", kind.Conf)
	}
	for i, r := range fast {
		if r.TimeSec <= 0 || math.IsNaN(r.TimeSec) || math.IsInf(r.TimeSec, 0) {
			t.Fatalf("app %d: bad time %v", i, r.TimeSec)
		}
		if r.LLCMissRate < 0 || r.LLCMissRate > 1 {
			t.Fatalf("app %d: LLC miss rate %v out of [0,1]", i, r.LLCMissRate)
		}
		if ratio := r.TimeSec / exact[i].TimeSec; ratio < 0.5 || ratio > 2 {
			t.Fatalf("app %d: analytic time %v vs exact %v (ratio %.2f)", i, r.TimeSec, exact[i].TimeSec, ratio)
		}
		if r.Instructions != exact[i].Instructions {
			t.Fatalf("app %d: instruction count changed under the analytic tier", i)
		}
	}
}

func TestFidelityValidatesLikeExact(t *testing.T) {
	cfg := DefaultConfig()
	if _, _, err := RunMemoFidelity(cfg, nil, nil, phasesum.Fast); err == nil {
		t.Error("empty app list accepted")
	}
	apps := []App{{Workload: computeBound("a"), Threads: 0}, {Workload: memoryBound("b"), Threads: 8}}
	if _, _, err := RunMemoFidelity(cfg, nil, apps, phasesum.Fast); err == nil {
		t.Error("non-positive thread count accepted")
	}
}
