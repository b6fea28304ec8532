package cpusim

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"mapc/internal/isa"
	"mapc/internal/trace"
)

// zeroRefWorkload has one compute-only phase (MemRefs == 0) sandwiched
// between two memory phases: the divide-guard hazard case for
// simulateMemory's per-reference ratios.
func zeroRefWorkload(name string) *trace.Workload {
	var memCounts, aluCounts isa.Counts
	memCounts.Add(isa.MEM, 500_000)
	memCounts.Add(isa.ALU, 500_000)
	aluCounts.Add(isa.ALU, 2_000_000) // no MEM at all
	phase := func(n string, c isa.Counts) trace.Phase {
		return trace.Phase{
			Name: n, Counts: c, Footprint: 8 << 20, Pattern: trace.Random,
			StrideBytes: 64, Reuse: 0.1, Parallelism: 4096, VectorWidth: 1,
		}
	}
	return &trace.Workload{
		Benchmark: name,
		BatchSize: 1,
		Phases: []trace.Phase{
			phase("ld", memCounts),
			phase("compute-only", aluCounts),
			phase("st", memCounts),
		},
	}
}

// TestZeroRefPhaseMissRatesAreZero pins the explicit n == 0 guard style in
// simulateMemory (mirroring gpusim's pa.acc == 0 pattern): a phase with no
// memory references must report exactly zero miss ratios — never NaN from
// a 0/0 — and must not perturb its neighbours.
func TestZeroRefPhaseMissRatesAreZero(t *testing.T) {
	cfg := DefaultConfig()
	apps := []App{{Workload: zeroRefWorkload("zref"), Threads: 4}}
	mem, _, err := simulateMemory(cfg, nil, apps)
	if err != nil {
		t.Fatal(err)
	}
	pm := mem[0][1] // the compute-only phase
	if pm.l1Miss != 0 || pm.l2Miss != 0 || pm.llcMiss != 0 || pm.llcMissN != 0 {
		t.Fatalf("zero-ref phase has non-zero memory behaviour: %+v", pm)
	}
	for pi, pm := range mem[0] {
		for _, v := range []float64{pm.l1Miss, pm.l2Miss, pm.llcMiss} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
				t.Fatalf("phase %d has non-finite or out-of-range miss ratio: %+v", pi, pm)
			}
		}
	}
	// The memory phases around it still observed real traffic.
	if mem[0][0].l1Miss == 0 && mem[0][2].l1Miss == 0 {
		t.Fatal("memory phases report no misses; guard is skipping too much")
	}
	// End-to-end: RunMemo must produce a finite positive time.
	res, err := RunMemo(cfg, nil, apps)
	if err != nil {
		t.Fatal(err)
	}
	if !(res[0].TimeSec > 0) || math.IsInf(res[0].TimeSec, 0) {
		t.Fatalf("TimeSec = %v", res[0].TimeSec)
	}
}

// TestSimulateMemoryScratchReuse proves the pooled interleaving buffers are
// invisible: repeated and interleaved calls (different app counts, so the
// arena is re-partitioned each time) return identical results, serially
// and from concurrent goroutines (run under -race in CI).
func TestSimulateMemoryScratchReuse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrefetchDegree = 2 // exercise the Install path through the scratch loop
	solo := []App{{Workload: memoryBound("a"), Threads: 8}}
	duo := []App{
		{Workload: memoryBound("a"), Threads: 8},
		{Workload: computeBound("b"), Threads: 8},
	}

	type out struct {
		mem   [][]phaseMem
		stats interface{}
	}
	measure := func(apps []App) out {
		mem, stats, err := simulateMemory(cfg, nil, apps)
		if err != nil {
			t.Fatal(err)
		}
		return out{mem, stats}
	}
	wantSolo := measure(solo)
	wantDuo := measure(duo)
	for i := 0; i < 3; i++ {
		if got := measure(duo); !reflect.DeepEqual(got, wantDuo) {
			t.Fatalf("iteration %d: duo results drifted after scratch reuse", i)
		}
		if got := measure(solo); !reflect.DeepEqual(got, wantSolo) {
			t.Fatalf("iteration %d: solo results drifted after scratch reuse", i)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				var want, got out
				if (g+i)%2 == 0 {
					want, got = wantSolo, measure(solo)
				} else {
					want, got = wantDuo, measure(duo)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d iter %d: concurrent scratch reuse corrupted results", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
