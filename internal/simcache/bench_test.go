package simcache

import (
	"testing"
)

// BenchmarkSimCacheHit measures the steady-state hit path: one resident
// entry looked up repeatedly. This is the cost every memoized simulation
// prefix pays per reuse, so it must stay far below the microseconds the
// cold computation costs.
func BenchmarkSimCacheHit(b *testing.B) {
	c := MustNew(1 << 20)
	k := Key{Domain: "bench", Config: "cfg", Workload: 1}
	if _, _, err := GetOrCompute(c, k, func() (any, int64, error) { return 42, 64, nil }); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, hit, err := GetOrCompute[any](c, k, nil)
		if err != nil || !hit || v != 42 {
			b.Fatalf("v=%v hit=%v err=%v", v, hit, err)
		}
	}
}

// BenchmarkSimCacheHitRotating cycles lookups over a resident working set,
// exercising the map probe plus the LRU move-to-front on every access
// (the common pattern during corpus generation, where dozens of per-member
// prefixes stay hot simultaneously).
func BenchmarkSimCacheHitRotating(b *testing.B) {
	const keys = 64
	c := MustNew(keys * 128)
	for i := 0; i < keys; i++ {
		k := Key{Domain: "bench", Config: "cfg", Workload: uint64(i)}
		if _, _, err := GetOrCompute(c, k, func() (any, int64, error) { return i, 64, nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := Key{Domain: "bench", Config: "cfg", Workload: uint64(i % keys)}
		if _, hit, err := GetOrCompute[any](c, k, nil); err != nil || !hit {
			b.Fatalf("hit=%v err=%v", hit, err)
		}
	}
}

// BenchmarkSimCacheMissEvict measures the worst case: every lookup misses,
// computes, inserts, and evicts the previous tenant — the churn regime a
// starved budget produces. The compute closure is trivial so the number
// isolates the cache's own bookkeeping.
func BenchmarkSimCacheMissEvict(b *testing.B) {
	c := MustNew(96) // fits one 64-byte entry; every insert evicts
	// Seed a tenant so the very first timed insert already evicts (b.N can
	// be 1 during calibration).
	seed := Key{Domain: "bench", Config: "cfg", Workload: ^uint64(0)}
	if _, _, err := GetOrCompute(c, seed, func() (any, int64, error) { return 0, 64, nil }); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := Key{Domain: "bench", Config: "cfg", Workload: uint64(i)}
		if _, _, err := GetOrCompute(c, k, func() (any, int64, error) { return i, 64, nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := c.Stats(); st.Evictions == 0 {
		b.Fatalf("no evictions under churn: %+v", st)
	}
}
