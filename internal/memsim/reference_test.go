package memsim

import "math/bits"

// This file retains the pre-optimization TLB and Cache implementations
// verbatim (modulo renaming) as executable specifications. The production
// structures were rebuilt for throughput — an O(1) exact-LRU TLB, and a
// cache that keeps each set in recency order instead of per-way LRU clocks
// and precomputes its tag shift — under a bit-identity contract: same hits,
// same misses, same victim choices, same statistics. The differential tests
// in differential_test.go drive millions of randomized accesses and the
// simulators' real reference streams through both and fail on the first
// divergence.
//
// Do not "fix" or modernize this code: its value is being the frozen
// original. If simulation semantics are deliberately changed, change both
// implementations and re-record the golden corpus hashes in
// internal/dataset/golden_hash_test.go.

// refTLB is the original fully-associative linear-scan TLB with LRU
// replacement (smallest logical clock wins, lowest index on ties).
type refTLB struct {
	entries int
	pages   []uint64
	srcs    []int
	valid   []bool
	lru     []uint64
	clock   uint64
	stats   []CacheStats
	flushes uint64
}

func newRefTLB(entries, nSources int) *refTLB {
	return &refTLB{
		entries: entries,
		pages:   make([]uint64, entries),
		srcs:    make([]int, entries),
		valid:   make([]bool, entries),
		lru:     make([]uint64, entries),
		stats:   make([]CacheStats, nSources),
	}
}

func (t *refTLB) Access(source int, addr uint64) bool {
	page := addr / PageSize
	t.clock++
	t.stats[source].Accesses++
	lruIdx, lruClock := 0, ^uint64(0)
	for i := 0; i < t.entries; i++ {
		if t.valid[i] && t.pages[i] == page && t.srcs[i] == source {
			t.lru[i] = t.clock
			return true
		}
		if t.lru[i] < lruClock {
			lruClock = t.lru[i]
			lruIdx = i
		}
	}
	t.stats[source].Misses++
	t.pages[lruIdx] = page
	t.srcs[lruIdx] = source
	t.valid[lruIdx] = true
	t.lru[lruIdx] = t.clock
	return false
}

func (t *refTLB) Flush() {
	for i := range t.valid {
		t.valid[i] = false
		t.lru[i] = 0
	}
	t.flushes++
}

func (t *refTLB) Reset() {
	for i := range t.valid {
		t.valid[i] = false
		t.lru[i] = 0
	}
	for i := range t.stats {
		t.stats[i] = CacheStats{}
	}
	t.clock = 0
	t.flushes = 0
}

func (t *refTLB) Stats(source int) CacheStats { return t.stats[source] }
func (t *refTLB) Flushes() uint64             { return t.flushes }

// refCache is the original set-associative cache with parallel
// tags/valid/src/lru slices and the per-access bits.Len tag-shift
// recomputation (the hoisting of which is one of this PR's fixes).
type refCache struct {
	sets           int
	ways           int
	setShift       uint
	setMask        uint64
	tags           []uint64
	valid          []bool
	src            []int
	lru            []uint64
	clock          uint64
	stats          []CacheStats
	crossEvictions []uint64
}

func newRefCache(totalBytes int64, ways, nSources int) *refCache {
	lines := totalBytes / LineSize
	sets := int(lines) / ways
	if sets&(sets-1) != 0 {
		sets = 1 << (bits.Len(uint(sets)) - 1)
	}
	return &refCache{
		sets:           sets,
		ways:           ways,
		setShift:       uint(bits.TrailingZeros(uint(LineSize))),
		setMask:        uint64(sets - 1),
		tags:           make([]uint64, sets*ways),
		valid:          make([]bool, sets*ways),
		src:            make([]int, sets*ways),
		lru:            make([]uint64, sets*ways),
		stats:          make([]CacheStats, nSources),
		crossEvictions: make([]uint64, nSources),
	}
}

func (c *refCache) Access(source int, addr uint64) bool {
	line := addr >> c.setShift
	set := int(line & c.setMask)
	tag := line >> uint(bits.Len(uint(c.sets-1)))
	base := set * c.ways
	c.clock++
	c.stats[source].Accesses++

	lruWay, lruClock := 0, ^uint64(0)
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			c.lru[i] = c.clock
			return true
		}
		if c.lru[i] < lruClock {
			lruClock = c.lru[i]
			lruWay = w
		}
	}
	c.stats[source].Misses++
	i := base + lruWay
	if c.valid[i] && c.src[i] != source {
		c.crossEvictions[c.src[i]]++
	}
	c.tags[i] = tag
	c.valid[i] = true
	c.src[i] = source
	c.lru[i] = c.clock
	return false
}

func (c *refCache) Install(source int, addr uint64) {
	line := addr >> c.setShift
	set := int(line & c.setMask)
	tag := line >> uint(bits.Len(uint(c.sets-1)))
	base := set * c.ways
	c.clock++
	lruWay, lruClock := 0, ^uint64(0)
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			c.lru[i] = c.clock
			return
		}
		if c.lru[i] < lruClock {
			lruClock = c.lru[i]
			lruWay = w
		}
	}
	i := base + lruWay
	if c.valid[i] && c.src[i] != source {
		c.crossEvictions[c.src[i]]++
	}
	c.tags[i] = tag
	c.valid[i] = true
	c.src[i] = source
	c.lru[i] = c.clock
}

func (c *refCache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.lru[i] = 0
	}
	for i := range c.stats {
		c.stats[i] = CacheStats{}
		c.crossEvictions[i] = 0
	}
	c.clock = 0
}

func (c *refCache) Stats(source int) CacheStats      { return c.stats[source] }
func (c *refCache) CrossEvictions(source int) uint64 { return c.crossEvictions[source] }
