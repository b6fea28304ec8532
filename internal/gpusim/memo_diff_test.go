package gpusim

import (
	"math/rand"
	"reflect"
	"testing"

	"mapc/internal/simcache"
	"mapc/internal/trace"
)

// TestMemoizedRunsAreBitIdentical is the differential oracle for the
// simulation memo on the GPU side: randomized sequences of isolated and
// shared MPS runs over a shared workload pool produce byte-identical
// []Result with the memo off, at an ample budget, and at a tiny budget
// that forces constant eviction and recomputation. Shared runs exercise
// the memoized-stream path (TLB flushes and cross-client L2 interference
// replayed over cached streams); isolated runs exercise the whole-run
// memo.
func TestMemoizedRunsAreBitIdentical(t *testing.T) {
	cfg := DefaultConfig()

	pool := []*trace.Workload{
		memKernel("a"),
		computeKernel("b"),
		memKernel("c"),
	}

	for _, tc := range []struct {
		name   string
		budget int64
	}{
		{"ample", 64 << 20},
		{"eviction-pressure", 1 << 14},
	} {
		t.Run(tc.name, func(t *testing.T) {
			memo := simcache.MustNew(tc.budget)
			rng := rand.New(rand.NewSource(11))
			for bag := 0; bag < 40; bag++ {
				var ws []*trace.Workload
				for _, wi := range rng.Perm(len(pool))[:1+rng.Intn(2)] {
					ws = append(ws, pool[wi])
				}
				cold, err := RunMemo(cfg, nil, ws)
				if err != nil {
					t.Fatal(err)
				}
				warm, err := RunMemo(cfg, memo, ws)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(cold, warm) {
					t.Fatalf("bag %d (%d clients): memoized results diverge from cold run\ncold: %+v\nwarm: %+v",
						bag, len(ws), cold, warm)
				}
			}
			st := memo.Stats()
			if st.Hits == 0 || st.Misses == 0 {
				t.Fatalf("memo never exercised: %+v", st)
			}
			if tc.name == "eviction-pressure" && st.Evictions == 0 {
				t.Fatalf("eviction-pressure budget produced no evictions: %+v", st)
			}
		})
	}
}
