package memsim

import (
	"fmt"
	"math/bits"
)

// PageSize is the translation granule used by the TLB model.
const PageSize = 4096

// TLB is a fully-associative translation lookaside buffer with exact-LRU
// replacement and per-source statistics. GPUs share TLBs across MPS clients
// (Section II of the paper), so entries from different applications evict
// one another; Flush models the context-switch flushes the paper identifies
// as a major multi-application overhead.
//
// The implementation is O(1) per access: an open-addressed hash table keyed
// on the packed (page, source) pair locates the entry (cheaper than a Go map
// on this single-uint64-key workload, and flushes clear it with one memclr),
// and an intrusive doubly-linked recency list threaded through the slot
// array yields the exact-LRU victim without scanning. The index is a pure
// lookup structure — hit/miss decisions depend only on membership — so the
// design is bit-identical to the original linear-scan design
// (retained as refTLB in reference_test.go and enforced by the differential
// tests): the original picked the entry with the smallest logical clock,
// breaking ties by lowest index. Because only Flush invalidates — and it
// invalidates everything — the tied (never-touched) entries are always
// exactly the slots above nextFree, claimed in ascending order, and among
// valid entries clock values are unique, so the list head *is* the
// original's victim.
type TLB struct {
	entries  int
	nSources uint64
	slots    []tlbSlot
	index    tlbIndex // packed (page, source) -> slot
	head     int32    // LRU end of the recency list (-1 when empty)
	tail     int32    // MRU end (-1 when empty)
	nextFree int      // slots[nextFree:] never used since the last Flush
	stats    []CacheStats
}

// tlbIndex is a linear-probed open-addressed hash table mapping a packed
// (page, source) key to a slot number. Keys are stored biased by +1 so a
// stored 0 means "empty" (the genuine key 0 — page 0, source 0 — is
// representable as 1; simulator keys sit far below the top of the uint64
// range, see TLB.key). Capacity is a power of two at most half full, so
// probe chains stay short; deletion uses backward-shift so no tombstones
// accumulate; Flush clears it with a single memclr.
type tlbIndex struct {
	keys  []uint64 // biased key + 1; 0 = empty
	vals  []int32
	mask  uint64
	shift uint // 64 - log2(len(keys)), for Fibonacci hashing
}

func newTLBIndex(capacity int) tlbIndex {
	// At least 2x the resident entry count, rounded up to a power of two.
	n := 4
	for n < capacity*2 {
		n <<= 1
	}
	return tlbIndex{
		keys:  make([]uint64, n),
		vals:  make([]int32, n),
		mask:  uint64(n - 1),
		shift: uint(64 - bits.TrailingZeros(uint(n))),
	}
}

// home returns the preferred table position of a biased key.
func (x *tlbIndex) home(bk uint64) uint64 {
	return (bk * 0x9E3779B97F4A7C15) >> x.shift
}

// get returns the slot stored for key, if present.
func (x *tlbIndex) get(key uint64) (int32, bool) {
	bk := key + 1
	for i := x.home(bk); ; i = (i + 1) & x.mask {
		switch x.keys[i] {
		case bk:
			return x.vals[i], true
		case 0:
			return 0, false
		}
	}
}

// put inserts or updates key -> val. The caller guarantees the table never
// exceeds half capacity (resident TLB entries <= capacity/2).
func (x *tlbIndex) put(key uint64, val int32) {
	bk := key + 1
	for i := x.home(bk); ; i = (i + 1) & x.mask {
		if x.keys[i] == bk || x.keys[i] == 0 {
			x.keys[i] = bk
			x.vals[i] = val
			return
		}
	}
}

// del removes key using backward-shift deletion, preserving every other
// entry's reachability without tombstones.
func (x *tlbIndex) del(key uint64) {
	bk := key + 1
	i := x.home(bk)
	for x.keys[i] != bk {
		if x.keys[i] == 0 {
			return
		}
		i = (i + 1) & x.mask
	}
	for {
		x.keys[i] = 0
		j := i
		for {
			j = (j + 1) & x.mask
			if x.keys[j] == 0 {
				return
			}
			h := x.home(x.keys[j])
			// Keep probing while j's entry still lies on its own probe
			// path if left in place, i.e. h is cyclically in (i, j].
			if i <= j {
				if i < h && h <= j {
					continue
				}
			} else if i < h || h <= j {
				continue
			}
			x.keys[i], x.vals[i] = x.keys[j], x.vals[j]
			i = j
			break
		}
	}
}

// clear empties the table (one memclr of the key array).
func (x *tlbIndex) clear() {
	clear(x.keys)
}

// len counts resident keys; O(capacity), used only by invariant checks in
// tests.
func (x *tlbIndex) len() int {
	n := 0
	for _, k := range x.keys {
		if k != 0 {
			n++
		}
	}
	return n
}

// tlbSlot is one TLB entry threaded onto the recency list.
type tlbSlot struct {
	key        uint64 // packed (page, source), see key()
	prev, next int32  // recency-list neighbours (-1 = none)
}

// NewTLB builds a TLB with the given number of entries serving nSources.
func NewTLB(entries, nSources int) (*TLB, error) {
	if entries <= 0 || nSources <= 0 {
		return nil, fmt.Errorf("memsim: invalid TLB config (entries=%d sources=%d)", entries, nSources)
	}
	return &TLB{
		entries:  entries,
		nSources: uint64(nSources),
		slots:    make([]tlbSlot, entries),
		index:    newTLBIndex(entries),
		head:     -1,
		tail:     -1,
		stats:    make([]CacheStats, nSources),
	}, nil
}

// key packs (page, source) into one map key. source < nSources, so the
// packing is collision-free; pages derived from simulator addresses stay
// far below the 2^64/nSources overflow bound.
func (t *TLB) key(source int, page uint64) uint64 {
	return page*t.nSources + uint64(source)
}

// Access translates addr for source, returning true on a TLB hit.
// Different sources never share translations (separate address spaces under
// MPS), so the (source, page) pair is the lookup key.
func (t *TLB) Access(source int, addr uint64) bool {
	page := addr / PageSize
	t.stats[source].Accesses++
	key := t.key(source, page)
	if i, ok := t.index.get(key); ok {
		t.touch(i)
		return true
	}
	t.stats[source].Misses++
	var i int32
	if t.nextFree < t.entries {
		// Original semantics: invalid entries all carry clock 0 and win
		// the victim scan at the lowest index — i.e. in ascending order.
		i = int32(t.nextFree)
		t.nextFree++
	} else {
		// All entries valid: evict the exact-LRU entry at the list head.
		i = t.head
		t.unlink(i)
		t.index.del(t.slots[i].key)
	}
	t.slots[i].key = key
	t.index.put(key, i)
	t.pushMRU(i)
	return false
}

// touch moves slot i to the MRU end of the recency list.
func (t *TLB) touch(i int32) {
	if t.tail == i {
		return
	}
	t.unlink(i)
	t.pushMRU(i)
}

// unlink removes slot i from the recency list.
func (t *TLB) unlink(i int32) {
	s := &t.slots[i]
	if s.prev >= 0 {
		t.slots[s.prev].next = s.next
	} else {
		t.head = s.next
	}
	if s.next >= 0 {
		t.slots[s.next].prev = s.prev
	} else {
		t.tail = s.prev
	}
}

// pushMRU appends slot i at the MRU end of the recency list.
func (t *TLB) pushMRU(i int32) {
	s := &t.slots[i]
	s.prev = t.tail
	s.next = -1
	if t.tail >= 0 {
		t.slots[t.tail].next = i
	} else {
		t.head = i
	}
	t.tail = i
}

// Flush invalidates every entry, modelling a full TLB shootdown at an MPS
// context boundary.
func (t *TLB) Flush() {
	t.index.clear()
	t.head, t.tail = -1, -1
	t.nextFree = 0
}

// Stats returns per-source access statistics.
func (t *TLB) Stats(source int) CacheStats { return t.stats[source] }

// Entries returns the TLB capacity in entries.
func (t *TLB) Entries() int { return t.entries }
