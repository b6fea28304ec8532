package memsim

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"mapc/internal/trace"
	"mapc/internal/xrand"
)

// Differential tests: drive millions of randomized accesses through the
// optimized structures and their retained pre-optimization references
// (reference_test.go) in lockstep, failing on the first diverging hit/miss
// outcome. Because a single wrong victim choice immediately skews every
// subsequent hit/miss result on a shared structure, per-access outcome
// equality over millions of eviction-heavy references is a proof of
// identical replacement sequences; the final full-state comparison makes
// the victim identity explicit entry by entry.

// tlbStateEqual asserts the fast TLB's full entry state matches the
// reference's: same valid slots, same (page, source) contents, and a
// recency order consistent with the reference's logical clocks.
func tlbStateEqual(t *testing.T, step int, fast *TLB, ref *refTLB) {
	t.Helper()
	for i := 0; i < fast.entries; i++ {
		valid := i < fast.nextFree
		if valid != ref.valid[i] {
			t.Fatalf("step %d: slot %d valid=%v, reference %v", step, i, valid, ref.valid[i])
		}
		if !valid {
			continue
		}
		page := fast.slots[i].key / fast.nSources
		src := int(fast.slots[i].key % fast.nSources)
		if page != ref.pages[i] || src != ref.srcs[i] {
			t.Fatalf("step %d: slot %d holds (page=%d src=%d), reference (page=%d src=%d)",
				step, i, page, src, ref.pages[i], ref.srcs[i])
		}
	}
	if fast.index.len() != fast.nextFree {
		t.Fatalf("step %d: index has %d keys, %d valid slots", step, fast.index.len(), fast.nextFree)
	}
	// Walking LRU -> MRU must visit strictly increasing reference clocks.
	last := uint64(0)
	seen := 0
	for i := fast.head; i >= 0; i = fast.slots[i].next {
		if ref.lru[i] <= last {
			t.Fatalf("step %d: recency list out of order at slot %d (clock %d after %d)",
				step, i, ref.lru[i], last)
		}
		last = ref.lru[i]
		seen++
	}
	if seen != fast.nextFree {
		t.Fatalf("step %d: recency list has %d slots, want %d", step, seen, fast.nextFree)
	}
}

func TestTLBDifferential(t *testing.T) {
	configs := []struct {
		name             string
		entries, sources int
		pages            uint64 // page pool; > entries forces evictions
		accesses         int
	}{
		{"small-evict-heavy", 48, 3, 160, 400_000},
		{"t4-geometry", 512, 4, 1400, 500_000},
		{"single-source", 64, 1, 200, 300_000},
	}
	totalAccesses := 0
	for _, cc := range configs {
		cc := cc
		t.Run(cc.name, func(t *testing.T) {
			fast, err := NewTLB(cc.entries, cc.sources)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefTLB(cc.entries, cc.sources)
			rng := xrand.New(uint64(cc.entries)*7919 + uint64(cc.sources))
			for i := 0; i < cc.accesses; i++ {
				switch r := rng.Uint64() % 10000; {
				case r == 0:
					// Rare full reset (statistics included).
					fast.Reset()
					ref.Reset()
				case r < 12:
					// MPS context-boundary flush.
					fast.Flush()
					ref.Flush()
				}
				src := rng.Intn(cc.sources)
				addr := (rng.Uint64()%cc.pages)*PageSize + rng.Uint64()%PageSize
				fh := fast.Access(src, addr)
				rh := ref.Access(src, addr)
				if fh != rh {
					t.Fatalf("access %d (src=%d addr=%#x): fast=%v reference=%v", i, src, addr, fh, rh)
				}
				if i%100_000 == 0 {
					tlbStateEqual(t, i, fast, ref)
				}
			}
			tlbStateEqual(t, cc.accesses, fast, ref)
			for s := 0; s < cc.sources; s++ {
				if fast.Stats(s) != ref.Stats(s) {
					t.Errorf("source %d stats: fast %+v, reference %+v", s, fast.Stats(s), ref.Stats(s))
				}
			}
			if fast.Flushes() != ref.Flushes() {
				t.Errorf("flushes: fast %d, reference %d", fast.Flushes(), ref.Flushes())
			}
		})
		totalAccesses += cc.accesses
	}
	if totalAccesses < 1_000_000 {
		t.Fatalf("differential coverage shrank to %d accesses; keep it >= 1M", totalAccesses)
	}
}

// cacheStateEqual asserts every set matches the reference exactly. The fast
// cache keeps each set in recency order, so front to back its ways must hold
// the reference set's valid ways sorted by descending LRU clock, as
// (tag, source) pairs, with every remaining way empty. installs counts the
// Install calls since the last Reset: with the per-source demand accesses it
// must account for every tick of the reference's clock.
func cacheStateEqual(t *testing.T, step int, fast *Cache, ref *refCache, installs uint64) {
	t.Helper()
	ops := installs
	for s := range fast.stats {
		ops += fast.stats[s].Accesses
	}
	if ops != ref.clock {
		t.Fatalf("step %d: fast saw %d accesses+installs, reference clock %d", step, ops, ref.clock)
	}
	valid := make([]int, 0, ref.ways)
	for set := 0; set < ref.sets; set++ {
		base := set * ref.ways
		valid = valid[:0]
		for i := base; i < base+ref.ways; i++ {
			if ref.valid[i] {
				valid = append(valid, i)
			}
		}
		sort.Slice(valid, func(a, b int) bool { return ref.lru[valid[a]] > ref.lru[valid[b]] })
		for w := 0; w < ref.ways; w++ {
			got := fast.lines[base+w]
			want := way{}
			if w < len(valid) {
				i := valid[w]
				want = way{key: ref.tags[i] | validBit, src: int32(ref.src[i])}
			}
			if got != want {
				t.Fatalf("step %d: set %d way %d fast={key:%#x src:%d} reference={key:%#x src:%d} (%d valid ways)",
					step, set, w, got.key, got.src, want.key, want.src, len(valid))
			}
		}
	}
}

// cacheLockstep pairs a production cache with the frozen reference, driving
// every operation through both and failing on the first diverging verdict.
type cacheLockstep struct {
	t        *testing.T
	fast     *Cache
	ref      *refCache
	installs uint64 // Install calls since the last Reset
}

func newCacheLockstep(t *testing.T, bytes int64, ways, sources int) *cacheLockstep {
	t.Helper()
	fast, err := NewCache("diff", bytes, ways, sources)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefCache(bytes, ways, sources)
	if fast.Sets() != ref.sets {
		t.Fatalf("geometry mismatch: fast %d sets, reference %d", fast.Sets(), ref.sets)
	}
	return &cacheLockstep{t: t, fast: fast, ref: ref}
}

func (l *cacheLockstep) access(step, src int, addr uint64) {
	l.t.Helper()
	fh := l.fast.Access(src, addr)
	rh := l.ref.Access(src, addr)
	if fh != rh {
		l.t.Fatalf("access %d (src=%d addr=%#x): fast=%v reference=%v", step, src, addr, fh, rh)
	}
}

// install takes the prefetch-fill path: it mutates state and returns nothing.
func (l *cacheLockstep) install(src int, addr uint64) {
	l.fast.Install(src, addr)
	l.ref.Install(src, addr)
	l.installs++
}

func (l *cacheLockstep) reset() {
	l.fast.Reset()
	l.ref.Reset()
	l.installs = 0
}

// check compares full set contents, per-source statistics and
// cross-evictions.
func (l *cacheLockstep) check(step int) {
	l.t.Helper()
	cacheStateEqual(l.t, step, l.fast, l.ref, l.installs)
	for s := range l.fast.stats {
		if l.fast.Stats(s) != l.ref.Stats(s) {
			l.t.Errorf("source %d stats: fast %+v, reference %+v", s, l.fast.Stats(s), l.ref.Stats(s))
		}
		if l.fast.CrossEvictions(s) != l.ref.CrossEvictions(s) {
			l.t.Errorf("source %d cross-evictions: fast %d, reference %d",
				s, l.fast.CrossEvictions(s), l.ref.CrossEvictions(s))
		}
	}
}

func TestCacheDifferential(t *testing.T) {
	configs := []struct {
		name     string
		bytes    int64
		ways     int
		sources  int
		lines    uint64 // line pool; > capacity forces evictions
		accesses int
	}{
		{"llc-like", 64 << 10, 11, 2, 3000, 400_000},
		{"l2-like-4src", 128 << 10, 16, 4, 5000, 400_000},
		{"direct-pressure", 8 << 10, 2, 3, 400, 300_000},
	}
	totalAccesses := 0
	for _, cc := range configs {
		cc := cc
		t.Run(cc.name, func(t *testing.T) {
			l := newCacheLockstep(t, cc.bytes, cc.ways, cc.sources)
			rng := xrand.New(uint64(cc.bytes) + uint64(cc.ways))
			for i := 0; i < cc.accesses; i++ {
				src := rng.Intn(cc.sources)
				addr := (rng.Uint64()%cc.lines)*LineSize + rng.Uint64()%LineSize
				switch r := rng.Uint64() % 10000; {
				case r == 0:
					l.reset()
				case r < 400:
					l.install(src, addr)
					continue
				}
				l.access(i, src, addr)
				if i%100_000 == 0 {
					l.check(i)
				}
			}
			l.check(cc.accesses)
		})
		totalAccesses += cc.accesses
	}
	if totalAccesses < 1_000_000 {
		t.Fatalf("differential coverage shrank to %d accesses; keep it >= 1M", totalAccesses)
	}
}

// TestCacheStreamLockstep drives the simulators' real reference streams —
// every trace.Pattern at no, moderate and heavy temporal reuse — through the
// production cache geometries and the reference in lockstep. Unlike the
// uniform-random differential test, these streams put most hits near the
// front of a set, the path the recency-ordered sets resolve without a scan.
// Each source reads its own stream, interleaved round-robin the way the
// gpusim co-run issues equal-length streams, with next-line prefetch fills
// mixed in.
func TestCacheStreamLockstep(t *testing.T) {
	geometries := []struct {
		name        string
		bytes       int64
		ways        int
		multiSource bool // shared structure: rotate through 2-4 sources
	}{
		{"cpu-l1", 32 << 10, 8, false},
		{"cpu-l2", 1 << 20, 16, false},
		{"llc", 16 << 20, 11, true},
		{"gpu-l2", 4 << 20, 16, true},
	}
	patterns := []trace.Pattern{trace.Sequential, trace.Strided, trace.Windowed, trace.Random}
	for _, g := range geometries {
		g := g
		t.Run(g.name, func(t *testing.T) {
			var misses, crossEvictions uint64
			var capacityLines uint64
			run := 0
			for _, pat := range patterns {
				for _, reuse := range []float64{0, 0.5, 0.9} {
					sources := 1
					if g.multiSource {
						sources = 2 + run%3
					}
					run++
					l := newCacheLockstep(t, g.bytes, g.ways, sources)
					capacityLines = uint64(l.fast.CapacityBytes() / LineSize)
					phase := &trace.Phase{
						Name:        "lockstep",
						Footprint:   2 * l.fast.CapacityBytes(),
						Pattern:     pat,
						StrideBytes: 3 * LineSize,
						Reuse:       reuse,
					}
					streams := make([]*Stream, sources)
					for s := range streams {
						st, err := NewStream(phase, uint64(s+1)<<40, StreamSeed(g.name, fmt.Sprint(pat, reuse, s)))
						if err != nil {
							t.Fatal(err)
						}
						streams[s] = st
					}
					rng := xrand.New(uint64(run))
					refs := int(max(3*capacityLines, 50_000))
					for i := 0; i < refs; i++ {
						src := i % sources
						addr := streams[src].Next()
						l.access(i, src, addr)
						if rng.Uint64()%32 == 0 {
							l.install(src, addr+LineSize)
						}
					}
					l.check(refs)
					for s := 0; s < sources; s++ {
						misses += l.fast.Stats(s).Misses
						crossEvictions += l.fast.CrossEvictions(s)
					}
				}
			}
			// Coverage: replacement must have run, and on shared
			// geometries sources must have evicted each other.
			if misses <= capacityLines {
				t.Errorf("%d misses never overflowed the %d-line capacity", misses, capacityLines)
			}
			if g.multiSource && crossEvictions == 0 {
				t.Error("no cross-source evictions on a shared geometry")
			}
		})
	}
}

// TestCacheEdgeAddresses checks the valid-bit key at the ends of the address
// space and at associativity extremes: address 0 (tag 0 must not read as an
// empty way), math.MaxUint64, a direct-mapped cache, a single set and
// non-power-of-two way counts, all in lockstep with the reference.
func TestCacheEdgeAddresses(t *testing.T) {
	for _, g := range []struct {
		name  string
		bytes int64
		ways  int
	}{
		{"1-way", 4 << 10, 1},
		{"3-way", 12 << 10, 3},
		{"5-way", 20 << 10, 5},
		{"1-set-4-way", 4 * LineSize, 4},
	} {
		g := g
		t.Run(g.name, func(t *testing.T) {
			l := newCacheLockstep(t, g.bytes, g.ways, 2)
			setStride := uint64(l.fast.Sets()) * LineSize
			var pool []uint64
			for k := uint64(0); k < uint64(g.ways)+2; k++ {
				// Lines sharing set 0 and the last set, from both ends.
				pool = append(pool, k*setStride, k*setStride+LineSize-1, math.MaxUint64-k*setStride)
			}
			rng := xrand.New(uint64(g.bytes) ^ uint64(g.ways))
			for i := 0; i < 20_000; i++ {
				src := rng.Intn(2)
				addr := pool[rng.Intn(len(pool))]
				switch r := rng.Uint64() % 1000; {
				case r == 0:
					l.reset()
				case r < 50:
					l.install(src, addr)
					continue
				}
				l.access(i, src, addr)
			}
			l.check(20_000)
		})
	}

	// A tag-0 line in a direct-mapped cache is a real resident line: a
	// conflicting access from another source evicts it as a cross-eviction.
	c := mustCache(t, 4<<10, 1, 2)
	for _, addr := range []uint64{0, math.MaxUint64} {
		c.Reset()
		if c.Access(0, addr) || !c.Access(0, addr) {
			t.Fatalf("addr %#x: want cold miss then hit", addr)
		}
		if c.Access(1, addr^uint64(c.Sets())*LineSize) {
			t.Fatalf("addr %#x: conflicting line hit", addr)
		}
		if got := c.CrossEvictions(0); got != 1 {
			t.Fatalf("addr %#x: cross-evictions of source 0 = %d, want 1", addr, got)
		}
	}
}

// TestStreamFillMatchesNext pins Fill's contract: batched generation draws
// exactly the same reference sequence as repeated Next calls.
func TestStreamFillMatchesNext(t *testing.T) {
	for _, pat := range []trace.Pattern{trace.Sequential, trace.Strided, trace.Windowed, trace.Random} {
		p := benchPhase(pat)
		a, err := NewStream(p, 1<<40, 99)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewStream(p, 1<<40, 99)
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]uint64, 4096)
		a.Fill(batch)
		for i, want := range batch {
			if got := b.Next(); got != want {
				t.Fatalf("pattern %d ref %d: Fill=%#x Next=%#x", pat, i, want, got)
			}
		}
	}
}
