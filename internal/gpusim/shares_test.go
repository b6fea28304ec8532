package gpusim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mapc/internal/phasesum"
	"mapc/internal/simcache"
	"mapc/internal/trace"
)

// exactShares is the exact-tier co-run with partition shares.
func exactShares(cfg Config, memo *simcache.Cache, ws []*trace.Workload, shares []float64) ([]Result, error) {
	res, _, err := RunMemoSharesFidelity(cfg, memo, ws, shares, phasesum.Exact)
	return res, err
}

// Tests for asymmetric SM partition shares (the exact tier of
// RunMemoSharesFidelity): nil shares
// are the bit-exact legacy equal split, explicit weights are normalized
// over the device, validation is loud, and giving an app a larger share
// never slows it down.

func TestRunMemoSharesNilIsEqualSplit(t *testing.T) {
	cfg := DefaultConfig()
	ws := []*trace.Workload{computeKernel("a"), memKernel("b"), computeKernel("c")}

	legacy, err := RunMemo(cfg, nil, ws)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := exactShares(cfg, nil, ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy, explicit) {
		t.Fatal("exactShares(..., nil) diverged from RunMemo: nil shares must be the exact equal split")
	}

	// Explicit uniform weights normalize to the same partition up to
	// floating-point rounding (SMs*(w/sum) vs SMs/n differ in the last
	// ulp for n=3); only the nil path promises bit-exact legacy output.
	for _, w := range []float64{1, 3, 0.25} {
		shares := []float64{w, w, w}
		got, err := exactShares(cfg, nil, ws, shares)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if rel := math.Abs(got[i].SMShare-legacy[i].SMShare) / legacy[i].SMShare; rel > 1e-12 {
				t.Errorf("uniform shares %v: app %d SMShare %v vs equal split %v", shares, i, got[i].SMShare, legacy[i].SMShare)
			}
			if rel := math.Abs(got[i].TimeSec-legacy[i].TimeSec) / legacy[i].TimeSec; rel > 1e-9 {
				t.Errorf("uniform shares %v: app %d time %v vs equal split %v", shares, i, got[i].TimeSec, legacy[i].TimeSec)
			}
		}
	}

	equal := float64(cfg.SMs) / float64(len(ws))
	for i, r := range legacy {
		if r.SMShare != equal {
			t.Errorf("app %d SMShare %v, want equal split %v", i, r.SMShare, equal)
		}
	}
}

func TestRunMemoSharesValidation(t *testing.T) {
	cfg := DefaultConfig()
	ws := []*trace.Workload{computeKernel("a"), memKernel("b")}

	if _, err := exactShares(cfg, nil, ws, []float64{1}); err == nil ||
		!strings.Contains(err.Error(), "partition shares") {
		t.Errorf("length mismatch: %v", err)
	}
	for _, bad := range [][]float64{
		{1, 0},
		{1, -2},
		{math.NaN(), 1},
		{1, math.Inf(1)},
	} {
		if _, err := exactShares(cfg, nil, ws, bad); err == nil {
			t.Errorf("shares %v accepted", bad)
		} else if !strings.Contains(err.Error(), "positive finite") {
			t.Errorf("shares %v: undescriptive error %v", bad, err)
		}
	}
}

// TestRunMemoSharesAsymmetry pins the semantics of unequal weights: the
// partition is proportional (weights [3,1] on a 40-SM device give 30/10),
// and the favored app finishes no later than under the equal split while
// the starved app finishes no earlier.
func TestRunMemoSharesAsymmetry(t *testing.T) {
	cfg := DefaultConfig()
	ws := []*trace.Workload{computeKernel("fav"), computeKernel("starved")}

	equal, err := exactShares(cfg, nil, ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := exactShares(cfg, nil, ws, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := skewed[0].SMShare, 0.75*float64(cfg.SMs); got != want {
		t.Errorf("favored SMShare %v, want %v", got, want)
	}
	if got, want := skewed[1].SMShare, 0.25*float64(cfg.SMs); got != want {
		t.Errorf("starved SMShare %v, want %v", got, want)
	}
	if skewed[0].TimeSec > equal[0].TimeSec {
		t.Errorf("favored app slowed down with a larger share: %v > %v",
			skewed[0].TimeSec, equal[0].TimeSec)
	}
	if skewed[1].TimeSec < equal[1].TimeSec {
		t.Errorf("starved app sped up with a smaller share: %v < %v",
			skewed[1].TimeSec, equal[1].TimeSec)
	}

	// Shares are weights, not SM counts: scaling every weight by a
	// constant is the identity.
	scaled, err := exactShares(cfg, nil, ws, []float64{30, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(skewed, scaled) {
		t.Error("scaling all weights by 10x changed results; shares must be normalized")
	}
}
