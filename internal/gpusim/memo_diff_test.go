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

// streamEntries counts the memo's "gpusim/stream" entries.
func streamEntries(memo *simcache.Cache) int {
	n := 0
	memo.Items(func(key simcache.Key, _ any, _ int64) bool {
		if key.Domain == memoDomainStream {
			n++
		}
		return true
	})
	return n
}

// TestIsolatedRunPublishesNoStream pins the memo's publication rule: an
// isolated run publishes its whole-run "gpusim/iso" entry and no
// "gpusim/stream" entry (it replays its one stream from pooled scratch),
// and its results are bit-identical to the memo-off run — also when read
// back after other isolated runs have reused the scratch arena.
func TestIsolatedRunPublishesNoStream(t *testing.T) {
	cfg := DefaultConfig()
	pool := []*trace.Workload{memKernel("a"), computeKernel("b"), memKernel("c")}
	memo := simcache.MustNew(64 << 20)
	cold := make([][]Result, len(pool))
	for i, w := range pool {
		var err error
		if cold[i], err = RunMemo(cfg, nil, []*trace.Workload{w}); err != nil {
			t.Fatal(err)
		}
		warm, err := RunMemo(cfg, memo, []*trace.Workload{w})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold[i], warm) {
			t.Fatalf("%s: memoized isolated run diverges from the memo-off run\ncold: %+v\nwarm: %+v", w.Benchmark, cold[i], warm)
		}
		key := simcache.Key{Domain: memoDomainIso, Config: configKey(cfg), Workload: w.Fingerprint()}
		if _, ok := memo.Peek(key); !ok {
			t.Errorf("%s: isolated run published no %s entry", w.Benchmark, memoDomainIso)
		}
	}
	if n := streamEntries(memo); n != 0 {
		t.Errorf("isolated runs published %d %s entries, want 0", n, memoDomainStream)
	}
	for i, w := range pool {
		hit, err := RunMemo(cfg, memo, []*trace.Workload{w})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold[i], hit) {
			t.Errorf("%s: memo-hit isolated run diverges after scratch reuse", w.Benchmark)
		}
	}
}

// TestCoRunAfterIsolatedRunIsBitIdentical: an exact two-client co-run
// after its members' isolated runs generates its own streams (the
// isolated runs left none behind), publishes one per client, and answers
// bit-identically to the same co-run on a fresh memo.
func TestCoRunAfterIsolatedRunIsBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	ws := []*trace.Workload{memKernel("a"), memKernel("c")}
	memo := simcache.MustNew(64 << 20)
	for _, w := range ws {
		if _, err := RunMemo(cfg, memo, []*trace.Workload{w}); err != nil {
			t.Fatal(err)
		}
	}
	if n := streamEntries(memo); n != 0 {
		t.Fatalf("isolated runs left %d %s entries for the co-run to reuse, want 0", n, memoDomainStream)
	}
	got, err := RunMemo(cfg, memo, ws)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunMemo(cfg, simcache.MustNew(64<<20), ws)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("co-run after isolated runs diverges from a fresh-memo co-run\ngot:  %+v\nwant: %+v", got, want)
	}
	if n := streamEntries(memo); n != len(ws) {
		t.Errorf("co-run published %d %s entries, want one per client (%d)", n, memoDomainStream, len(ws))
	}
}
