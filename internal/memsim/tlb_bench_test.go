package memsim

import (
	"testing"

	"mapc/internal/xrand"
)

// The TLB microbenchmarks cover the three access regimes corpus generation
// actually produces (see DESIGN.md "Performance engineering"):
//
//   - hit-heavy: a working set smaller than the TLB, the steady state of a
//     phase whose footprint fits its translations;
//   - miss-heavy: a streaming page walk larger than the TLB, the worst case
//     (every access is a capacity miss + eviction);
//   - multi-source flush-interleaved: four MPS clients with periodic full
//     flushes, the shared-TLB contention pattern gpusim.simulateMemory
//     drives.
//
// CI's perf-gate job (scripts/benchjson -against <base>) fails on a >2x
// median ns/op regression against the same benchmarks at the base commit.

func benchTLBAddrs(pages int, seed uint64) []uint64 {
	rng := xrand.New(seed)
	addrs := make([]uint64, 1<<14)
	for i := range addrs {
		addrs[i] = (rng.Uint64() % uint64(pages)) * PageSize
	}
	return addrs
}

func BenchmarkTLBAccessHitHeavy(b *testing.B) {
	tlb, err := NewTLB(512, 1)
	if err != nil {
		b.Fatal(err)
	}
	addrs := benchTLBAddrs(256, 1) // working set = half the TLB
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tlb.Access(0, addrs[i&(len(addrs)-1)])
	}
}

func BenchmarkTLBAccessMissHeavy(b *testing.B) {
	tlb, err := NewTLB(512, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Strictly streaming pages: every access past warm-up misses and
		// evicts the LRU entry.
		tlb.Access(0, uint64(i)*PageSize)
	}
}

func BenchmarkTLBAccessMultiSourceFlush(b *testing.B) {
	const sources = 4
	tlb, err := NewTLB(512, sources)
	if err != nil {
		b.Fatal(err)
	}
	addrs := benchTLBAddrs(1024, 2) // 2x TLB capacity, shared by 4 clients
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%12000 == 11999 { // gpusim.DefaultConfig().TLBFlushPeriod
			tlb.Flush()
		}
		tlb.Access(i&(sources-1), addrs[i&(len(addrs)-1)])
	}
}
