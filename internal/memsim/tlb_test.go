package memsim

import "testing"

func mustTLB(t *testing.T, entries, sources int) *TLB {
	t.Helper()
	tlb, err := NewTLB(entries, sources)
	if err != nil {
		t.Fatal(err)
	}
	return tlb
}

func TestTLBConfigErrors(t *testing.T) {
	if _, err := NewTLB(0, 1); err == nil {
		t.Error("zero entries accepted")
	}
	if _, err := NewTLB(4, 0); err == nil {
		t.Error("zero sources accepted")
	}
}

func TestTLBHitMiss(t *testing.T) {
	tlb := mustTLB(t, 4, 1)
	if tlb.Access(0, 0) {
		t.Fatal("cold translation hit")
	}
	if !tlb.Access(0, PageSize-1) {
		t.Fatal("same-page translation missed")
	}
	if tlb.Access(0, PageSize) {
		t.Fatal("next-page translation hit")
	}
}

func TestTLBSourcesAreIsolated(t *testing.T) {
	// Under MPS each client has its own address space: the same page
	// number from another source must not hit.
	tlb := mustTLB(t, 8, 2)
	tlb.Access(0, 0)
	if tlb.Access(1, 0) {
		t.Fatal("cross-source translation hit")
	}
}

func TestTLBLRUReplacement(t *testing.T) {
	tlb := mustTLB(t, 2, 1)
	tlb.Access(0, 0)          // page 0
	tlb.Access(0, PageSize)   // page 1
	tlb.Access(0, 0)          // page 0 now MRU
	tlb.Access(0, 2*PageSize) // evicts page 1
	if !tlb.Access(0, 0) {
		t.Error("MRU page evicted")
	}
	if tlb.Access(0, PageSize) {
		t.Error("LRU page retained")
	}
}

func TestTLBFlush(t *testing.T) {
	tlb := mustTLB(t, 4, 1)
	tlb.Access(0, 0)
	tlb.Flush()
	if tlb.Access(0, 0) {
		t.Fatal("translation survived Flush")
	}
	if tlb.flushes != 1 {
		t.Fatalf("flushes = %d", tlb.flushes)
	}
}

// Reset clears contents and statistics. The simulators build a fresh TLB
// per run; only tests reuse one.
func (t *TLB) Reset() {
	t.index.clear()
	t.head, t.tail = -1, -1
	t.nextFree = 0
	for i := range t.stats {
		t.stats[i] = CacheStats{}
	}
	t.flushes = 0
}

func TestTLBReset(t *testing.T) {
	tlb := mustTLB(t, 4, 1)
	tlb.Access(0, 0)
	tlb.Flush()
	tlb.Reset()
	if st := tlb.Stats(0); st.Accesses != 0 {
		t.Fatalf("stats after reset %+v", st)
	}
	if tlb.flushes != 0 {
		t.Fatal("flush count survived Reset")
	}
	if tlb.Entries() != 4 {
		t.Fatal("geometry changed by Reset")
	}
}
