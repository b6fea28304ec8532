package cpusim

import (
	"math"
	"reflect"
	"testing"

	"mapc/internal/phasesum"
	"mapc/internal/simcache"
)

// TestFidelityExactDelegatesBitIdentical: the CPU co-run is one closed
// form at every tier, so every tier delegates to the exact evaluator and
// returns bit-identical results. Fast labels a co-run analytic at full
// confidence and a lone app exact.
func TestFidelityExactDelegatesBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrefetchDegree = 2
	memo := simcache.MustNew(64 << 20)
	a := App{Workload: computeBound("a"), Threads: 8}
	b := App{Workload: memoryBound("b"), Threads: 8}
	z := App{Workload: zeroRefWorkload("z"), Threads: 4}
	for _, apps := range [][]App{{b}, {a, b}, {a, b, z}} {
		want, err := RunMemo(cfg, nil, apps)
		if err != nil {
			t.Fatal(err)
		}
		wantKind := phasesum.RunKind{UsedExact: len(apps) == 1, Conf: 1}
		for _, fid := range []phasesum.Fidelity{"", phasesum.Exact, phasesum.Fast} {
			got, kind, err := RunMemoFidelity(cfg, memo, apps, fid)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d apps at fidelity %q: results diverge from exact\nexact: %+v\ngot:   %+v", len(apps), fid, want, got)
			}
			if fid.Analytic() && kind != wantKind {
				t.Fatalf("%d apps at fast: run kind %+v, want %+v", len(apps), kind, wantKind)
			}
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

// TestFidelityFastBounded: the fast co-run stays finite, in-range and
// within a sanity factor of the exact simulation for compute- and
// memory-bound mixes alike, and labels itself analytic.
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
		if ratio := r.TimeSec / exact[i].TimeSec; ratio < 0.5 || ratio > 2 {
			t.Fatalf("app %d: fast time %v vs exact %v (ratio %.2f)", i, r.TimeSec, exact[i].TimeSec, ratio)
		}
		if r.Instructions != exact[i].Instructions {
			t.Fatalf("app %d: instruction count changed under the fast tier", i)
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
