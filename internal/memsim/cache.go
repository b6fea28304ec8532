// Package memsim provides the microarchitectural memory-system components
// shared by the CPU and GPU simulators: set-associative caches with LRU
// replacement (each set kept in recency order), a TLB with flush support,
// and a synthetic address-stream generator that turns a trace.Phase's
// pattern/footprint/reuse descriptor into a concrete reference stream.
//
// These components replace the paper's physical memory hierarchies (Xeon
// private L1/L2, T4 L2/TLB). Contention between concurrent applications
// emerges the same way it does in hardware: interleaved streams from
// different sources evict each other's lines from shared structures.
//
// The cache and TLB are the hottest code in the system — every corpus
// point, LOOCV fold and serving-cache miss funnels millions of references
// through them — so both are engineered for throughput under a strict
// bit-identity contract with their original implementations (see
// reference_test.go and the differential tests).
package memsim

import (
	"fmt"
	"math/bits"
)

// LineSize is the cache line size in bytes used throughout the simulators.
const LineSize = 64

// way is one cache way: key is the line's tag with validBit set, or 0 for
// an empty way, so a tag-0 line still reads as valid.
type way struct {
	key uint64
	src int32 // source that installed the line
}

// validBit marks a way's key as occupied. Tags are at most 58 bits (a
// 64-bit address minus the line offset), so it never collides with one.
const validBit = 1 << 63

// Cache is a set-associative cache with true-LRU replacement. It tracks
// per-source hit/miss statistics so shared caches can attribute interference
// to individual applications. The zero value is not usable; call NewCache.
//
// Each set is kept in recency order: the most recently used way first, empty
// ways trailing. A hit at depth p shifts ways 0..p-1 down one slot and moves
// the line to the front; a miss evicts the last way and installs at the
// front. Lines are only ever dropped by Reset, so empty ways stay at the
// tail and the last way is exactly the victim the original per-way LRU clock
// scan chose (an empty way if any, else the least recently used line).
type Cache struct {
	name     string
	sets     int
	ways     int
	setShift uint
	setMask  uint64
	// tagShift is bits.Len(sets-1), hoisted to construction time; the
	// original recomputed it on every access.
	tagShift uint
	// lines[set*ways:(set+1)*ways] is one set, in recency order.
	lines []way

	stats []CacheStats // indexed by source id
	// crossEvictions[victim] counts lines lost to any other source.
	crossEvictions []uint64
}

// CacheStats accumulates per-source access results.
type CacheStats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses/accesses, or 0 for an idle source.
func (s CacheStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// NewCache builds a cache of totalBytes capacity and the given
// associativity, serving up to nSources distinct requestors.
func NewCache(name string, totalBytes int64, ways, nSources int) (*Cache, error) {
	if totalBytes <= 0 || ways <= 0 || nSources <= 0 {
		return nil, fmt.Errorf("memsim: invalid cache config %q (bytes=%d ways=%d sources=%d)",
			name, totalBytes, ways, nSources)
	}
	lines := totalBytes / LineSize
	if lines < int64(ways) {
		return nil, fmt.Errorf("memsim: cache %q too small for %d ways", name, ways)
	}
	sets := int(lines) / ways
	// Round sets down to a power of two for mask indexing.
	if sets&(sets-1) != 0 {
		sets = 1 << (bits.Len(uint(sets)) - 1)
	}
	c := &Cache{
		name:           name,
		sets:           sets,
		ways:           ways,
		setShift:       uint(bits.TrailingZeros(uint(LineSize))),
		setMask:        uint64(sets - 1),
		tagShift:       uint(bits.Len(uint(sets - 1))),
		lines:          make([]way, sets*ways),
		stats:          make([]CacheStats, nSources),
		crossEvictions: make([]uint64, nSources),
	}
	return c, nil
}

// Access looks up addr on behalf of source, installing the line on a miss.
// It returns true on a hit.
func (c *Cache) Access(source int, addr uint64) bool {
	c.stats[source].Accesses++
	if c.touch(source, addr) {
		return true
	}
	c.stats[source].Misses++
	return false
}

// Install inserts addr's line into the cache on behalf of source without
// touching the demand statistics — the path prefetch fills take.
func (c *Cache) Install(source int, addr uint64) { c.touch(source, addr) }

// touch moves addr's line to the front of its set, installing it over the
// set's least recently used way if absent, and reports whether it was
// resident.
func (c *Cache) touch(source int, addr uint64) bool {
	ln := addr >> c.setShift
	key := ln>>c.tagShift | validBit
	base := int(ln&c.setMask) * c.ways
	set := c.lines[base : base+c.ways : base+c.ways]
	if set[0].key == key {
		return true
	}
	for p := 1; p < len(set); p++ {
		if set[p].key == key {
			w := set[p]
			copy(set[1:p+1], set[:p])
			set[0] = w
			return true
		}
	}
	if v := set[len(set)-1]; v.key != 0 && v.src != int32(source) {
		c.crossEvictions[v.src]++
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = way{key: key, src: int32(source)}
	return false
}

// Stats returns the accumulated statistics for source.
func (c *Cache) Stats(source int) CacheStats { return c.stats[source] }
