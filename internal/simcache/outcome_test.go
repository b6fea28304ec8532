package simcache

import (
	"sync"
	"testing"
	"time"
)

func okCompute(v any, bytes int64) func() (any, int64, error) {
	return func() (any, int64, error) { return v, bytes, nil }
}

// TestLookupOutcomes pins the three-way outcome: the computing caller sees
// Computed, a caller that joined the in-flight computation sees Waited, and
// a caller served by the published entry sees Hit. The distinction is what
// lets the serve layer's "cached" response field stop lying to clients.
func TestLookupOutcomes(t *testing.T) {
	c := MustNew(1 << 20)
	k := Key{Domain: "t/outcome", Config: "cfg", Workload: 1}

	entered := make(chan struct{})
	release := make(chan struct{})
	type res struct {
		v       any
		outcome Outcome
		err     error
	}
	first := make(chan res, 1)
	go func() {
		v, o, err := c.Lookup(k, func() (any, int64, error) {
			close(entered)
			<-release
			return "value", 8, nil
		})
		first <- res{v, o, err}
	}()
	<-entered

	second := make(chan res, 1)
	started := make(chan struct{})
	go func() {
		close(started)
		v, o, err := c.Lookup(k, okCompute("wrong", 8))
		second <- res{v, o, err}
	}()
	// The waiter must attach to the in-flight entry before release; its
	// attach point is not externally observable, so give the goroutine a
	// beat after it starts (attach-after-release would surface as a
	// spurious OutcomeHit failure, never a false pass).
	<-started
	time.Sleep(20 * time.Millisecond)
	close(release)

	r1, r2 := <-first, <-second
	if r1.err != nil || r2.err != nil {
		t.Fatalf("errors: %v / %v", r1.err, r2.err)
	}
	if r1.outcome != OutcomeComputed {
		t.Errorf("computing caller got outcome %v, want OutcomeComputed", r1.outcome)
	}
	if r2.outcome != OutcomeWaited {
		t.Errorf("waiting caller got outcome %v, want OutcomeWaited", r2.outcome)
	}
	if r2.v != "value" {
		t.Errorf("waiter received %v, want the winner's value", r2.v)
	}

	v, o, err := c.Lookup(k, okCompute("also wrong", 8))
	if err != nil || v != "value" || o != OutcomeHit {
		t.Errorf("published lookup: v=%v outcome=%v err=%v, want value/OutcomeHit/nil", v, o, err)
	}

	// Counter compatibility: Hit and Waited both count as hits (the compute
	// ran once), so stats report 2 hits / 1 miss.
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats %+v, want 2 hits / 1 miss", st)
	}
}

// TestGetOrComputeDelegates keeps the legacy two-way API consistent with
// Lookup: hit=false only for the computing caller.
func TestGetOrComputeDelegates(t *testing.T) {
	c := MustNew(1 << 20)
	k := Key{Domain: "t/legacy", Config: "cfg"}
	if _, hit, _ := GetOrCompute(c, k, okCompute(1, 8)); hit {
		t.Error("first GetOrCompute reported hit=true")
	}
	if _, hit, _ := GetOrCompute(c, k, okCompute(2, 8)); !hit {
		t.Error("second GetOrCompute reported hit=false")
	}
}

// TestSeed covers warm-start publication: a seeded value is a published
// entry (Peek and Lookup hit it), an existing resident wins over a seed,
// and seeding respects the byte budget.
func TestSeed(t *testing.T) {
	c := MustNew(64)
	k := Key{Domain: "t/seed", Config: "a"}

	if !c.Seed(k, "seeded", 16) {
		t.Fatal("seed into an empty cache not resident")
	}
	if v, ok := c.Peek(k); !ok || v != "seeded" {
		t.Fatalf("Peek after Seed: %v %v", v, ok)
	}
	v, o, err := c.Lookup(k, okCompute("computed", 16))
	if err != nil || v != "seeded" || o != OutcomeHit {
		t.Fatalf("Lookup after Seed: v=%v outcome=%v err=%v", v, o, err)
	}

	// An existing resident entry wins: re-seeding the same key with a
	// different value is a no-op (entries are immutable once published),
	// reported by the false return — the duplicate was not inserted.
	if c.Seed(k, "usurper", 16) {
		t.Error("re-seed of a resident key claimed an insertion")
	}
	if v, _ := c.Peek(k); v != "seeded" {
		t.Errorf("re-seed replaced the resident value with %v", v)
	}

	// The budget applies to seeds like any other insert: an oversized seed
	// is accepted but immediately evicted, reported by the false return.
	big := Key{Domain: "t/seed", Config: "big"}
	if c.Seed(big, "huge", 1<<20) {
		t.Error("oversized seed reported resident")
	}
	if _, ok := c.Peek(big); ok {
		t.Error("oversized seed still resident")
	}

	// Nil-safety: a disabled cache accepts and drops seeds.
	var nilCache *Cache
	if nilCache.Seed(k, "x", 8) {
		t.Error("nil cache reported a resident seed")
	}
}

// TestPeek pins the read-only contract: no counters move, no recency
// update, and in-flight entries are invisible.
func TestPeek(t *testing.T) {
	c := MustNew(1 << 20)
	k := Key{Domain: "t/peek", Config: "cfg"}
	if _, ok := c.Peek(k); ok {
		t.Fatal("Peek found a never-inserted key")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Peek moved counters: %+v", st)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = c.Lookup(k, func() (any, int64, error) {
			close(entered)
			<-release
			return "v", 8, nil
		})
	}()
	<-entered
	if _, ok := c.Peek(k); ok {
		t.Error("Peek observed an in-flight (unpublished) entry")
	}
	close(release)
	<-done
	if v, ok := c.Peek(k); !ok || v != "v" {
		t.Errorf("Peek after publication: %v %v", v, ok)
	}

	var nilCache *Cache
	if _, ok := nilCache.Peek(k); ok {
		t.Error("nil cache Peek reported ok")
	}
}

// TestItems pins the snapshot iteration: MRU-first order, published entries
// only, and early termination when fn returns false.
func TestItems(t *testing.T) {
	c := MustNew(1 << 20)
	keys := []Key{
		{Domain: "t/items", Config: "a"},
		{Domain: "t/items", Config: "b"},
		{Domain: "t/items", Config: "c"},
	}
	for i, k := range keys {
		if _, _, err := c.Lookup(k, okCompute(i, 8)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so recency is a,c,b (MRU-first).
	if _, _, err := c.Lookup(keys[0], okCompute(-1, 8)); err != nil {
		t.Fatal(err)
	}

	var got []string
	c.Items(func(k Key, val any, bytes int64) bool {
		if bytes != 8 {
			t.Errorf("entry %v carries %d bytes, want 8", k, bytes)
		}
		got = append(got, k.Config)
		return true
	})
	want := []string{"a", "c", "b"}
	if len(got) != len(want) {
		t.Fatalf("iterated %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iteration order %v, want MRU-first %v", got, want)
		}
	}

	// Early termination.
	var n int
	c.Items(func(Key, any, int64) bool { n++; return false })
	if n != 1 {
		t.Errorf("fn ran %d times after returning false, want 1", n)
	}

	// The callback runs outside the cache lock: mutating the cache from
	// inside fn must not deadlock.
	var wg sync.WaitGroup
	wg.Add(1)
	c.Items(func(k Key, _ any, _ int64) bool {
		defer wg.Done()
		c.Seed(Key{Domain: "t/items", Config: "from-fn"}, "x", 8)
		return false
	})
	wg.Wait()

	var nilCache *Cache
	nilCache.Items(func(Key, any, int64) bool { t.Fatal("nil cache iterated"); return false })
}
