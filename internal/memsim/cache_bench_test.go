package memsim

import (
	"testing"

	"mapc/internal/trace"
	"mapc/internal/xrand"
)

// Cache microbenchmarks mirror the TLB suite: hit-heavy (footprint fits),
// miss-heavy (streaming lines), and multi-source contention — the regimes
// the shared-LLC (cpusim) and shared-L2 (gpusim) interleaving loops drive —
// plus a co-run of real reference streams. Geometry matches
// gpusim.DefaultConfig's T4 L2 (4 MiB, 16 ways).

func benchCacheAddrs(lines int, seed uint64) []uint64 {
	rng := xrand.New(seed)
	addrs := make([]uint64, 1<<14)
	for i := range addrs {
		addrs[i] = (rng.Uint64() % uint64(lines)) * LineSize
	}
	return addrs
}

func benchCache(b *testing.B, sources int) *Cache {
	b.Helper()
	c, err := NewCache("bench-l2", 4<<20, 16, sources)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkCacheAccessHitHeavy(b *testing.B) {
	c := benchCache(b, 1)
	// Working set = 1/4 of capacity: after warm-up nearly every access hits.
	addrs := benchCacheAddrs((4<<20)/LineSize/4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0, addrs[i&(len(addrs)-1)])
	}
}

func BenchmarkCacheAccessMissHeavy(b *testing.B) {
	c := benchCache(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Streaming: distinct lines forever, every access past warm-up
		// misses and evicts.
		c.Access(0, uint64(i)*LineSize)
	}
}

func BenchmarkCacheAccessMultiSource(b *testing.B) {
	const sources = 4
	c := benchCache(b, sources)
	// 2x capacity shared by 4 clients: heavy cross-source eviction.
	addrs := benchCacheAddrs((4<<20)/LineSize*2, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(i&(sources-1), addrs[i&(len(addrs)-1)])
	}
}

// BenchmarkCacheAccessStream interleaves two real Stream clients one
// reference at a time through the shared L2, the schedule gpusim's co-run
// issues for equal-length streams. Unlike the uniform-random suites above it
// carries production locality: the reuse short-circuit re-touches recent
// lines, so most hits land near the front of their set.
func BenchmarkCacheAccessStream(b *testing.B) {
	const sources = 2
	c := benchCache(b, sources)
	var addrs [sources][]uint64
	for s, pc := range []struct {
		pattern trace.Pattern
		reuse   float64
	}{
		{trace.Windowed, 0.7}, // sliding-filter kernel
		{trace.Random, 0.3},   // scattered gathers
	} {
		p := benchPhase(pc.pattern)
		p.Reuse = pc.reuse
		st, err := NewStream(p, uint64(s+1)<<40, uint64(s)+7)
		if err != nil {
			b.Fatal(err)
		}
		// 4 MiB of references per client: longer than one pass over
		// the 8 MiB footprints, so replaying the buffer adds no reuse.
		addrs[s] = make([]uint64, 1<<19)
		st.Fill(addrs[s])
	}
	mask := len(addrs[0]) - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := i & (sources - 1)
		c.Access(s, addrs[s][(i>>1)&mask])
	}
}
