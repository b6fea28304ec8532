package gpusim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"mapc/internal/phasesum"
	"mapc/internal/simcache"
	"mapc/internal/trace"
)

// Fidelity-tier tests for RunMemoSharesFidelity, centred on the satellite
// requirement: under extreme share skew the mixed tier must degrade to
// exact simulation (bit-identical results) rather than emit out-of-bound
// analytic estimates.

func TestFidelityExactDelegatesBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	ws := []*trace.Workload{computeKernel("a"), memKernel("b")}
	want, err := exactShares(cfg, nil, ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, fid := range []phasesum.Fidelity{"", phasesum.Exact} {
		got, kind, err := RunMemoSharesFidelity(cfg, nil, ws, nil, fid)
		if err != nil {
			t.Fatal(err)
		}
		if !kind.UsedExact {
			t.Fatalf("fidelity %q did not report the exact simulator", fid)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fidelity %q diverged from the exact co-run", fid)
		}
	}
}

func TestFidelitySingleClientAlwaysExact(t *testing.T) {
	cfg := DefaultConfig()
	ws := []*trace.Workload{memKernel("solo")}
	want, err := exactShares(cfg, nil, ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, fid := range []phasesum.Fidelity{phasesum.Mixed, phasesum.Fast} {
		got, kind, err := RunMemoSharesFidelity(cfg, nil, ws, nil, fid)
		if err != nil {
			t.Fatal(err)
		}
		if !kind.UsedExact || !reflect.DeepEqual(got, want) {
			t.Fatalf("fidelity %q: isolated run must be the exact path", fid)
		}
	}
}

// TestFidelityMixedDegradesUnderShareSkew: a 0.99/0.01 split leaves the
// minority client 0.4 of an SM — outside the analytic model's regime — so
// mixed must fall back to exact simulation, bit-identically.
func TestFidelityMixedDegradesUnderShareSkew(t *testing.T) {
	cfg := DefaultConfig()
	memo := simcache.MustNew(64 << 20)
	ws := []*trace.Workload{computeKernel("big"), memKernel("small")}
	shares := []float64{0.99, 0.01}

	want, err := exactShares(cfg, memo, ws, shares)
	if err != nil {
		t.Fatal(err)
	}
	got, kind, err := RunMemoSharesFidelity(cfg, memo, ws, shares, phasesum.Mixed)
	if err != nil {
		t.Fatal(err)
	}
	if !kind.UsedExact {
		t.Fatal("mixed fidelity trusted the model on a sub-SM partition")
	}
	if kind.Fallback != phasesum.FallbackSubSMShare {
		t.Fatalf("fallback reason %q, want %q", kind.Fallback, phasesum.FallbackSubSMShare)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("mixed fallback diverged from the exact simulator")
	}
}

// checkSane asserts every per-app result is finite, positive and with miss
// ratios inside [0,1] — the "no out-of-bound estimates" half of the
// satellite, applied to the tiers that do use the model.
func checkSane(t *testing.T, results []Result, exact []Result) {
	t.Helper()
	for i, r := range results {
		if r.TimeSec <= 0 || math.IsNaN(r.TimeSec) || math.IsInf(r.TimeSec, 0) {
			t.Fatalf("app %d: bad time %v", i, r.TimeSec)
		}
		if r.L2MissRate < 0 || r.L2MissRate > 1 || r.TLBMissRate < 0 || r.TLBMissRate > 1 {
			t.Fatalf("app %d: miss rates out of [0,1]: l2=%v tlb=%v", i, r.L2MissRate, r.TLBMissRate)
		}
		if ratio := r.TimeSec / exact[i].TimeSec; ratio < 0.5 || ratio > 2 {
			t.Fatalf("app %d: analytic time %v vs exact %v (ratio %.2f)", i, r.TimeSec, exact[i].TimeSec, ratio)
		}
		if r.SMShare != exact[i].SMShare {
			t.Fatalf("app %d: SMShare %v vs exact %v", i, r.SMShare, exact[i].SMShare)
		}
	}
}

func TestFidelityFastBoundedUnderShareSkew(t *testing.T) {
	cfg := DefaultConfig()
	memo := simcache.MustNew(64 << 20)
	ws := []*trace.Workload{computeKernel("big"), memKernel("small")}
	shares := []float64{0.99, 0.01}

	exact, err := exactShares(cfg, memo, ws, shares)
	if err != nil {
		t.Fatal(err)
	}
	fast, kind, err := RunMemoSharesFidelity(cfg, memo, ws, shares, phasesum.Fast)
	if err != nil {
		t.Fatal(err)
	}
	if kind.UsedExact {
		t.Fatal("fast fidelity must not fall back to exact")
	}
	checkSane(t, fast, exact)
}

// TestFidelityK8Uniform: eight uniform clients (5 SMs each — inside the
// model's regime). Whichever way the confidence gate resolves, mixed must
// either be bit-identical to exact (fallback) or sane-and-bounded
// (trusted model); fast must be sane-and-bounded.
func TestFidelityK8Uniform(t *testing.T) {
	cfg := DefaultConfig()
	memo := simcache.MustNew(256 << 20)
	ws := make([]*trace.Workload, 8)
	for i := range ws {
		if i%2 == 0 {
			ws[i] = computeKernel(fmt.Sprintf("c%d", i))
		} else {
			ws[i] = memKernel(fmt.Sprintf("m%d", i))
		}
	}

	exact, err := exactShares(cfg, memo, ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	mixed, kind, err := RunMemoSharesFidelity(cfg, memo, ws, nil, phasesum.Mixed)
	if err != nil {
		t.Fatal(err)
	}
	if kind.UsedExact {
		if !reflect.DeepEqual(mixed, exact) {
			t.Fatal("mixed fallback diverged from the exact simulator at k=8")
		}
	} else {
		checkSane(t, mixed, exact)
	}
	fast, kind, err := RunMemoSharesFidelity(cfg, memo, ws, nil, phasesum.Fast)
	if err != nil {
		t.Fatal(err)
	}
	if kind.UsedExact {
		t.Fatal("fast fidelity must not fall back to exact")
	}
	checkSane(t, fast, exact)
}

func TestFidelityValidatesLikeExact(t *testing.T) {
	cfg := DefaultConfig()
	ws := []*trace.Workload{computeKernel("a"), memKernel("b")}
	if _, _, err := RunMemoSharesFidelity(cfg, nil, ws, []float64{1}, phasesum.Fast); err == nil {
		t.Error("share-length mismatch accepted")
	}
	if _, _, err := RunMemoSharesFidelity(cfg, nil, ws, []float64{1, math.NaN()}, phasesum.Fast); err == nil {
		t.Error("NaN share accepted")
	}
	if _, _, err := RunMemoSharesFidelity(cfg, nil, nil, nil, phasesum.Fast); err == nil {
		t.Error("empty workload list accepted")
	}
}
