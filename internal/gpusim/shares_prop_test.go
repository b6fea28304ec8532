package gpusim

import (
	"fmt"
	"reflect"
	"testing"

	"mapc/internal/phasesum"
	"mapc/internal/simcache"
	"mapc/internal/trace"
)

// Property tests for the fractional-share extension: explicit uniform
// shares are the nil equal split (bit-identically, at every tier), and a
// client's bag time never improves as its share shrinks.

// TestUniformSharesBitIdenticalToNil: a 1/k share vector must reproduce
// the nil-shares result bit-for-bit at every fidelity tier. Power-of-two
// k keeps the float algebra exact: sum(1/k × k) == 1 and SMs·(1/k)/1 is
// a multiplication by an exact power of two, so the smShares agree to
// the last bit with SMs/k.
func TestUniformSharesBitIdenticalToNil(t *testing.T) {
	cfg := DefaultConfig()
	memo := simcache.MustNew(256 << 20)
	for _, k := range []int{2, 4, 8} {
		ws := make([]*trace.Workload, k)
		for i := range ws {
			if i%2 == 0 {
				ws[i] = computeKernel(fmt.Sprintf("c%d", i))
			} else {
				ws[i] = memKernel(fmt.Sprintf("m%d", i))
			}
		}
		uniform := make([]float64, k)
		for i := range uniform {
			uniform[i] = 1 / float64(k)
		}
		for _, fid := range []phasesum.Fidelity{phasesum.Exact, phasesum.Fast} {
			want, wantKind, err := RunMemoSharesFidelity(cfg, memo, ws, nil, fid)
			if err != nil {
				t.Fatal(err)
			}
			got, gotKind, err := RunMemoSharesFidelity(cfg, memo, ws, uniform, fid)
			if err != nil {
				t.Fatal(err)
			}
			if gotKind != wantKind {
				t.Fatalf("k=%d fidelity %s: uniform shares changed the run kind (%+v vs %+v)", k, fid, gotKind, wantKind)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d fidelity %s: explicit uniform shares diverged from nil", k, fid)
			}
		}
	}
}

// TestShareSkewMonotonic: shrinking a client's share must never improve
// its bag time, at the exact tier and at the analytic fast tier.
func TestShareSkewMonotonic(t *testing.T) {
	cfg := DefaultConfig()
	memo := simcache.MustNew(128 << 20)
	ws := []*trace.Workload{memKernel("victim"), computeKernel("rival")}
	weights := []float64{0.5, 0.4, 0.3, 0.2, 0.1, 0.05}
	for _, fid := range []phasesum.Fidelity{phasesum.Exact, phasesum.Fast} {
		prev := 0.0
		for _, w := range weights {
			res, _, err := RunMemoSharesFidelity(cfg, memo, ws, []float64{w, 1 - w}, fid)
			if err != nil {
				t.Fatal(err)
			}
			got := res[0].TimeSec
			if got < prev {
				t.Fatalf("fidelity %s: client 0 improved from %v to %v when its share shrank to %v", fid, prev, got, w)
			}
			prev = got
		}
	}
}
