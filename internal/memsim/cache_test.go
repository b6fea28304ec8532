package memsim

import (
	"testing"
	"testing/quick"
)

func mustCache(t *testing.T, bytes int64, ways, sources int) *Cache {
	t.Helper()
	c, err := NewCache("test", bytes, ways, sources)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheConfigErrors(t *testing.T) {
	cases := []struct {
		bytes         int64
		ways, sources int
	}{
		{0, 1, 1}, {-64, 1, 1}, {1024, 0, 1}, {1024, 1, 0}, {64, 4, 1},
	}
	for _, c := range cases {
		if _, err := NewCache("bad", c.bytes, c.ways, c.sources); err == nil {
			t.Errorf("NewCache(%d,%d,%d) accepted", c.bytes, c.ways, c.sources)
		}
	}
}

func TestCacheHitOnRepeat(t *testing.T) {
	c := mustCache(t, 4096, 4, 1)
	if c.Access(0, 0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0, 0x1000) {
		t.Fatal("repeat access missed")
	}
	if !c.Access(0, 0x1000+LineSize-1) {
		t.Fatal("same-line access missed")
	}
	st := c.Stats(0)
	if st.Accesses != 3 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCacheCapacityEviction(t *testing.T) {
	// 8 lines total, 2 ways -> 4 sets. Touch 16 distinct lines, then
	// re-touch the first: it must have been evicted.
	c := mustCache(t, 8*LineSize, 2, 1)
	for i := uint64(0); i < 16; i++ {
		c.Access(0, i*LineSize)
	}
	if c.Access(0, 0) {
		t.Fatal("line survived capacity pressure beyond associativity")
	}
}

func TestCacheLRUOrder(t *testing.T) {
	// Two-way set: A, B fill it; touching A again then adding C must
	// evict B, not A.
	c := mustCache(t, 2*LineSize, 2, 1)
	sets := len(c.lines) / c.ways // 1 set expected
	if sets != 1 {
		t.Fatalf("expected 1 set, got %d", sets)
	}
	a, b, cc := uint64(0), uint64(LineSize), uint64(2*LineSize)
	c.Access(0, a)
	c.Access(0, b)
	c.Access(0, a)  // A is now MRU
	c.Access(0, cc) // evicts B
	if !c.Access(0, a) {
		t.Error("LRU evicted the MRU line")
	}
	if c.Access(0, b) {
		t.Error("LRU kept the LRU line")
	}
}

func TestCacheCrossEvictions(t *testing.T) {
	c := mustCache(t, 2*LineSize, 2, 2)
	c.Access(0, 0)
	c.Access(0, LineSize)
	// Source 1 floods the set: its lines stay, source 0's are gone.
	c.Access(1, 2*LineSize)
	c.Access(1, 3*LineSize)
	if !c.Access(1, 2*LineSize) || !c.Access(1, 3*LineSize) {
		t.Fatal("source 1 lost its own lines")
	}
	if c.Access(0, 0) {
		t.Fatal("source 0's line survived source 1's flood")
	}
	if st := c.Stats(0); st.Accesses != 3 || st.Misses != 3 {
		t.Fatalf("source 0 stats %+v, want 3 accesses, 3 misses", st)
	}
}

// Reset clears contents and statistics, keeping the geometry. The
// simulators build a fresh cache per run; only tests reuse one.
func (c *Cache) Reset() {
	clear(c.lines)
	clear(c.stats)
}

func TestCacheReset(t *testing.T) {
	c := mustCache(t, 4096, 4, 1)
	c.Access(0, 0)
	c.Reset()
	if st := c.Stats(0); st.Accesses != 0 || st.Misses != 0 {
		t.Fatalf("stats after reset %+v", st)
	}
	if c.Access(0, 0) {
		t.Fatal("line survived Reset")
	}
}

func TestCacheMissesNeverExceedAccesses(t *testing.T) {
	if err := quick.Check(func(seed uint64, addrs []uint16) bool {
		c, err := NewCache("q", 2048, 2, 1)
		if err != nil {
			return false
		}
		for _, a := range addrs {
			c.Access(0, uint64(a))
		}
		st := c.Stats(0)
		return st.Misses <= st.Accesses && st.Accesses == uint64(len(addrs))
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCacheCapacityRounding(t *testing.T) {
	// 3000 bytes with 64B lines and 4 ways: sets rounded down to a
	// power of two.
	c := mustCache(t, 3000, 4, 1)
	sets := len(c.lines) / c.ways
	if sets&(sets-1) != 0 {
		t.Fatalf("sets %d not a power of two", sets)
	}
	if capacity := int64(len(c.lines)) * LineSize; capacity > 3000 {
		t.Fatalf("capacity %d exceeds request", capacity)
	}
}

func TestMissRate(t *testing.T) {
	var s CacheStats
	if s.MissRate() != 0 {
		t.Error("idle MissRate != 0")
	}
	s = CacheStats{Accesses: 10, Misses: 3}
	if got := s.MissRate(); got != 0.3 {
		t.Errorf("MissRate = %v", got)
	}
}
