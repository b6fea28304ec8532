package cpusim

import (
	"math/rand"
	"reflect"
	"testing"

	"mapc/internal/simcache"
	"mapc/internal/trace"
)

// TestMemoizedRunsAreBitIdentical is the differential oracle for the
// simulation memo: randomized multi-bag sequences (isolated and shared
// runs over a shared workload pool, the access pattern of corpus
// generation) produce byte-identical []Result with the memo off, at an
// ample budget, and at a tiny budget that forces constant eviction and
// recomputation. Cold results are computed fresh per bag — the reference
// the memo must reproduce exactly.
func TestMemoizedRunsAreBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrefetchDegree = 2 // exercise the prefetcher in the private replay

	pool := []*trace.Workload{
		memoryBound("a"),
		computeBound("b"),
		memoryBound("c"),
		zeroRefWorkload("z"), // zero-ref phases cross the memo boundary too
	}

	for _, tc := range []struct {
		name   string
		budget int64
	}{
		{"ample", 64 << 20},
		// Small enough that entries for one workload evict another's:
		// every lookup path (publish, hit, evict, recompute) cycles.
		{"eviction-pressure", 1 << 14},
	} {
		t.Run(tc.name, func(t *testing.T) {
			memo := simcache.MustNew(tc.budget)
			rng := rand.New(rand.NewSource(7))
			for bag := 0; bag < 40; bag++ {
				var apps []App
				for _, wi := range rng.Perm(len(pool))[:1+rng.Intn(2)] {
					apps = append(apps, App{Workload: pool[wi], Threads: 4 + rng.Intn(8)*2})
				}
				cold, err := RunMemo(cfg, nil, apps)
				if err != nil {
					t.Fatal(err)
				}
				warm, err := RunMemo(cfg, memo, apps)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(cold, warm) {
					t.Fatalf("bag %d (%d apps): memoized results diverge from cold run\ncold: %+v\nwarm: %+v",
						bag, len(apps), cold, warm)
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
