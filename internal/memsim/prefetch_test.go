package memsim

import "testing"

func TestPrefetcherDetectsStride(t *testing.T) {
	p := NewStridePrefetcher(2)
	if got := p.OnMiss(0); got != nil {
		t.Fatalf("first miss prefetched %v", got)
	}
	if got := p.OnMiss(2 * LineSize); got != nil {
		t.Fatalf("stride not yet confident, prefetched %v", got)
	}
	got := p.OnMiss(4 * LineSize) // second identical stride: confident
	if len(got) != 2 {
		t.Fatalf("confident miss prefetched %v", got)
	}
	if got[0] != 6*LineSize || got[1] != 8*LineSize {
		t.Fatalf("prefetch targets %v", got)
	}
	if p.issued != 2 {
		t.Fatalf("issued = %d", p.issued)
	}
}

func TestPrefetcherNegativeStride(t *testing.T) {
	p := NewStridePrefetcher(1)
	p.OnMiss(10 * LineSize)
	p.OnMiss(8 * LineSize)
	got := p.OnMiss(6 * LineSize)
	if len(got) != 1 || got[0] != 4*LineSize {
		t.Fatalf("descending prefetch %v", got)
	}
	// Near zero the prefetcher must not wrap.
	p2 := NewStridePrefetcher(4)
	p2.OnMiss(2 * LineSize)
	p2.OnMiss(1 * LineSize)
	got = p2.OnMiss(0)
	if len(got) != 0 {
		t.Fatalf("wrapped prefetch below zero: %v", got)
	}
}

func TestPrefetcherResetsOnStrideChange(t *testing.T) {
	p := NewStridePrefetcher(2)
	p.OnMiss(0)
	p.OnMiss(LineSize)
	if got := p.OnMiss(10 * LineSize); got != nil {
		t.Fatalf("stride change still prefetched %v", got)
	}
}

func TestPrefetcherDisabled(t *testing.T) {
	p := NewStridePrefetcher(0)
	for i := uint64(0); i < 10; i++ {
		if got := p.OnMiss(i * LineSize); got != nil {
			t.Fatalf("disabled prefetcher emitted %v", got)
		}
	}
	if NewStridePrefetcher(-3).degree != 0 {
		t.Error("negative degree not clamped")
	}
}

func TestInstallMakesLineResident(t *testing.T) {
	c := mustCache(t, 4096, 4, 1)
	c.Install(0, 0x2000)
	if !c.Access(0, 0x2000) {
		t.Fatal("installed line missed")
	}
	// Install must not count as a demand access.
	st := c.Stats(0)
	if st.Accesses != 1 || st.Misses != 0 {
		t.Fatalf("stats after install+hit: %+v", st)
	}
	// Installing a resident line refreshes recency without duplicating.
	c.Install(0, 0x2000)
	if !c.Access(0, 0x2000) {
		t.Fatal("re-install broke residency")
	}
}

func TestPrefetchingReducesStreamMisses(t *testing.T) {
	// A strided demand stream through a small cache: with prefetching
	// the demand miss rate must drop substantially.
	run := func(degree int) float64 {
		c, err := NewCache("c", 8<<10, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		pf := NewStridePrefetcher(degree)
		for i := uint64(0); i < 4096; i++ {
			a := i * 2 * LineSize // stride of two lines: every access a new line
			if !c.Access(0, a) {
				for _, pa := range pf.OnMiss(a) {
					c.Install(0, pa)
				}
			}
		}
		return c.Stats(0).MissRate()
	}
	off, on := run(0), run(4)
	if on >= off/2 {
		t.Fatalf("prefetching did not halve misses: %.3f -> %.3f", off, on)
	}
}
