package simcache

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func key(i int) Key { return Key{Domain: "test", Config: "cfg", Workload: uint64(i), Slot: 0} }

func TestNewRejectsNonPositiveBudgets(t *testing.T) {
	for _, b := range []int64{0, -1, -1 << 30} {
		if _, err := New(b); err == nil {
			t.Fatalf("New(%d) succeeded; want error", b)
		}
	}
	if c := MustNew(1); c == nil {
		t.Fatal("MustNew(1) returned nil")
	}
}

func TestGetOrComputeMissThenHit(t *testing.T) {
	c := MustNew(1 << 20)
	calls := 0
	compute := func() (any, int64, error) { calls++; return "value", 5, nil }

	v, hit, err := GetOrCompute(c, key(1), compute)
	if err != nil || hit || v != "value" {
		t.Fatalf("first lookup: v=%v hit=%v err=%v", v, hit, err)
	}
	v, hit, err = GetOrCompute(c, key(1), compute)
	if err != nil || !hit || v != "value" {
		t.Fatalf("second lookup: v=%v hit=%v err=%v", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times; want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Bytes != 5 || st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v; want 0.5", got)
	}
}

func TestNilCacheRunsComputeEveryTime(t *testing.T) {
	var c *Cache
	calls := 0
	for i := 0; i < 3; i++ {
		v, hit, err := GetOrCompute(c, key(1), func() (any, int64, error) { calls++; return calls, 1, nil })
		if err != nil || hit {
			t.Fatalf("nil cache lookup %d: hit=%v err=%v", i, hit, err)
		}
		if v != calls {
			t.Fatalf("nil cache returned stale value %v on call %d", v, calls)
		}
	}
	if calls != 3 {
		t.Fatalf("compute ran %d times; want 3", calls)
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v; want zeros", st)
	}
	if c.Budget() != 0 || c.Len() != 0 {
		t.Fatal("nil cache budget/len non-zero")
	}
}

func TestErrorsAreNeverCached(t *testing.T) {
	c := MustNew(1 << 20)
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		_, hit, err := GetOrCompute(c, key(1), func() (any, int64, error) { calls++; return nil, 0, boom })
		if !errors.Is(err, boom) || hit {
			t.Fatalf("lookup %d: hit=%v err=%v", i, hit, err)
		}
	}
	if calls != 2 {
		t.Fatalf("failed compute ran %d times; want 2 (errors must not be cached)", calls)
	}
	// A subsequent success is cached normally.
	v, _, err := GetOrCompute(c, key(1), func() (any, int64, error) { return 7, 1, nil })
	if err != nil || v != 7 {
		t.Fatalf("recovery lookup: v=%v err=%v", v, err)
	}
	if _, hit, _ := GetOrCompute(c, key(1), func() (any, int64, error) { t.Fatal("recomputed"); return nil, 0, nil }); !hit {
		t.Fatal("recovered entry not cached")
	}
}

func TestLRUEvictionOrderAndAccounting(t *testing.T) {
	c := MustNew(100)
	put := func(i int, size int64) {
		t.Helper()
		if _, _, err := GetOrCompute(c, key(i), func() (any, int64, error) { return i, size, nil }); err != nil {
			t.Fatal(err)
		}
	}
	put(1, 40)
	put(2, 40)
	// Touch 1 so 2 becomes least-recently-used.
	if _, hit, _ := GetOrCompute(c, key(1), func() (any, int64, error) { return 1, 40, nil }); !hit {
		t.Fatal("key 1 missing")
	}
	put(3, 40) // exceeds 100: evicts key 2 (LRU), not key 1
	st := c.Stats()
	if st.Evictions != 1 || st.Bytes != 80 || st.Entries != 2 {
		t.Fatalf("after eviction: %+v", st)
	}
	if _, hit, _ := GetOrCompute(c, key(1), func() (any, int64, error) { return 1, 40, nil }); !hit {
		t.Fatal("recently-used key 1 was evicted; LRU order broken")
	}
	recomputed := false
	if _, hit, _ := GetOrCompute(c, key(2), func() (any, int64, error) { recomputed = true; return 2, 40, nil }); hit || !recomputed {
		t.Fatal("least-recently-used key 2 survived; LRU order broken")
	}
}

func TestOversizedEntryReturnedButNotRetained(t *testing.T) {
	c := MustNew(10)
	v, _, err := GetOrCompute(c, key(1), func() (any, int64, error) { return "big", 1000, nil })
	if err != nil || v != "big" {
		t.Fatalf("oversized compute: v=%v err=%v", v, err)
	}
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 || st.Evictions != 1 {
		t.Fatalf("oversized entry retained: %+v", st)
	}
}

func TestSingleflightComputesOnce(t *testing.T) {
	c := MustNew(1 << 20)
	var calls atomic.Int64
	start := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	const G = 16
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, _, err := GetOrCompute(c, key(1), func() (any, int64, error) {
				calls.Add(1)
				<-release // hold the flight open so everyone piles on
				return "shared", 8, nil
			})
			if err != nil || v != "shared" {
				t.Errorf("v=%v err=%v", v, err)
			}
		}()
	}
	close(start)
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times under contention; want 1", n)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != G-1 {
		t.Fatalf("stats = %+v; want 1 miss, %d hits", st, G-1)
	}
}

func TestPanickingComputePoisonsNobody(t *testing.T) {
	c := MustNew(1 << 20)
	entered := make(chan struct{})
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		GetOrCompute(c, key(1), func() (any, int64, error) {
			close(entered)
			<-release
			panic("kaboom")
		})
	}()

	// Capture the in-flight entry while the compute is provably still
	// running (it cannot panic until release closes): this is exactly the
	// entry any concurrent waiter would block on.
	<-entered
	c.mu.Lock()
	e := c.entries[key(1)]
	c.mu.Unlock()
	if e == nil {
		t.Fatal("no in-flight entry registered during compute")
	}
	close(release)

	if r := <-panicked; r == nil {
		t.Fatal("panic did not propagate to the computing caller")
	} else if r != "kaboom" {
		t.Fatalf("panic value %v; want kaboom", r)
	}
	// Waiters on the dead flight are woken with a retryable error, never a
	// zero value.
	<-e.done
	if e.err == nil {
		t.Fatal("waiter on a panicked flight would get nil error; want retryable error")
	}
	// The key is unpublished: the next lookup recomputes cleanly.
	v, hit, err := GetOrCompute(c, key(1), func() (any, int64, error) { return 42, 1, nil })
	if err != nil || hit || v != 42 {
		t.Fatalf("post-panic lookup: v=%v hit=%v err=%v", v, hit, err)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("post-panic stats: %+v; want exactly the recomputed entry", st)
	}
}

func TestConcurrentHammer(t *testing.T) {
	// Tiny budget + many keys: constant eviction and recomputation from
	// many goroutines. Run under -race in CI.
	c := MustNew(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				k := rng.Intn(32)
				v, _, err := GetOrCompute(c, key(k), func() (any, int64, error) {
					return fmt.Sprintf("v%d", k), 16, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if want := fmt.Sprintf("v%d", k); v != want {
					t.Errorf("key %d returned %v; want %v", k, v, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > 256 {
		t.Fatalf("resident bytes %d exceed budget 256", st.Bytes)
	}
	if st.Hits+st.Misses != 8*2000 {
		t.Fatalf("lookups %d != %d", st.Hits+st.Misses, 8*2000)
	}
}
