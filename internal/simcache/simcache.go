// Package simcache is the cross-bag memoization layer for pure simulation
// prefixes: a concurrency-safe, byte-bounded, LRU-evicting cache shared by
// the CPU and GPU simulators.
//
// The corpus of Section V-B runs thousands of 2-application bags over the
// same handful of benchmark workloads, and large pieces of each bag's
// simulation are pure functions of a *single* member: synthetic stream
// generation, the private L1/L2 replay, and the entire isolated
// (single-client) memory simulation. This cache lets cpusim and gpusim
// compute each of those prefixes exactly once per (config, workload, slot)
// and replay only the genuinely shared structures (device L2, TLB) per
// bag — with guaranteed bit-identical outputs, because a cached value
// is exactly what its compute function returns and entries are immutable
// once published.
//
// Concurrency: lookups singleflight — concurrent requests for the same key
// block on one computation (the measurement worker pool frequently asks
// for the same member from several bags at once). Entries are published
// only after the compute function returns; waiters never observe partial
// values. A panicking compute poisons nobody: the entry is evicted, the
// panic propagates to the caller (where the worker pool's containment
// converts it into a typed error), and waiters receive a retryable error.
//
// Bounding: every entry carries a caller-reported byte size; when the
// total exceeds the configured budget the least-recently-used entries are
// dropped. Eviction changes only *when* values are recomputed, never what
// they are, so outputs are bit-identical at every budget — including zero,
// which is expressed as a nil *Cache: every lookup runs its compute
// function and nothing is retained, so callers keep one code path whether
// the memo is on, evicted or disabled.
package simcache

import (
	"fmt"
	"sync"
	"unsafe"
)

// Key identifies one memoized simulation prefix. All fields participate in
// equality:
//
//   - Domain separates caching sites ("cpusim/priv", "gpusim/iso", ...) so
//     different value types never collide.
//   - Config is the exact textual rendering of the simulator configuration
//     (fmt "%+v"): two configs reuse an entry only when every field of the
//     simulated machine is identical.
//   - Workload is trace.Workload.Fingerprint(): a 64-bit digest of every
//     field of the workload. Two distinct workloads share an entry only on
//     a fingerprint collision (~2^-64 per pair; the suite has tens of
//     workloads).
//   - Slot is the client index the workload occupies in the run: slots
//     determine the address-space base and the stream seeds, so the same
//     workload at slot 0 and slot 1 produces different streams.
type Key struct {
	Domain   string
	Config   string
	Workload uint64
	Slot     int
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      int64 // lookups served from a published entry (incl. singleflight waits)
	Misses    int64 // lookups that ran the compute function
	Evictions int64 // entries dropped by the LRU bound
	Bytes     int64 // resident entry bytes (caller-reported)
	Entries   int   // resident entry count
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// entry is one singleflight slot. done is closed exactly once, after val,
// bytes and err are final; waiters synchronize on it and then read those
// fields without the cache lock.
type entry struct {
	key   Key
	done  chan struct{}
	val   any
	bytes int64
	err   error

	// LRU intrusive list; only published (successful) entries are linked.
	prev, next *entry
}

// Cache is the bounded memo. The zero value is not usable; create with
// New. A nil *Cache is the documented "disabled" state: GetOrCompute and
// Lookup run the compute function every time and Stats returns zeros.
type Cache struct {
	budget int64 // bytes; > 0 (New rejects other values)

	mu        sync.Mutex
	entries   map[Key]*entry
	head      *entry // most recently used
	tail      *entry // least recently used
	bytes     int64
	hits      int64
	misses    int64
	evictions int64
}

// New returns a cache bounded to budgetBytes of caller-reported entry
// bytes. budgetBytes must be positive: "no cache" is spelled as a nil
// *Cache, not a zero budget, so disabled paths never pay for map upkeep.
func New(budgetBytes int64) (*Cache, error) {
	if budgetBytes <= 0 {
		return nil, fmt.Errorf("simcache: budget must be positive, got %d (disable by passing a nil *Cache instead)", budgetBytes)
	}
	return &Cache{budget: budgetBytes, entries: make(map[Key]*entry)}, nil
}

// MustNew is New for callers with a known-good constant budget.
func MustNew(budgetBytes int64) *Cache {
	c, err := New(budgetBytes)
	if err != nil {
		panic(err)
	}
	return c
}

// SliceBytes is the backing-array size s retains, cap(s) times the element
// size: the per-slice term of an entry's reported bytes. It counts
// capacity, not length, because the slack of an over-allocated slice is
// resident too.
func SliceBytes[E any](s []E) int64 {
	var e E
	return int64(cap(s)) * int64(unsafe.Sizeof(e))
}

// Outcome classifies how a Lookup was satisfied. Callers that only need
// "did I skip the compute?" use GetOrCompute; callers whose semantics
// distinguish a published entry from joining someone else's in-flight
// computation (e.g. serve's "cached" response field, which must not claim
// a hit for a request that waited out a full simulation) switch on this.
type Outcome int

const (
	// OutcomeComputed: no resident entry; this caller ran compute.
	OutcomeComputed Outcome = iota
	// OutcomeWaited: another goroutine's compute was in flight; this
	// caller blocked on it and shares its result (or error).
	OutcomeWaited
	// OutcomeHit: a published entry was served immediately.
	OutcomeHit
)

// GetOrCompute returns the memoized value for key, running compute at most
// once per resident generation of the key. compute reports the value and
// its approximate resident size in bytes; the value MUST be immutable
// after return (callers receive the same value concurrently). V is the
// caller's value type: each Key.Domain holds values of one type, so the
// cached value is returned as it was computed.
//
// The second return is true on a cache hit (including waiting on another
// goroutine's in-flight computation). Errors are never cached: a failed or
// panicked compute unpublishes the key so the next lookup retries.
//
// A nil cache runs compute on every call and retains nothing, so a
// disabled memo executes exactly the code a cache miss executes.
func GetOrCompute[V any](c *Cache, key Key, compute func() (V, int64, error)) (V, bool, error) {
	v, outcome, err := c.Lookup(key, func() (any, int64, error) { return compute() })
	val, _ := v.(V) // v is nil when another goroutine's compute failed
	return val, outcome != OutcomeComputed, err
}

// Lookup is GetOrCompute with the hit bool refined into an Outcome and the
// value left untyped; see Outcome for when the distinction matters.
// Counter semantics are the same: OutcomeHit and OutcomeWaited both count
// as hits, only OutcomeComputed counts as a miss. A nil cache runs compute
// and reports OutcomeComputed.
func (c *Cache) Lookup(key Key, compute func() (value any, bytes int64, err error)) (any, Outcome, error) {
	if c == nil {
		v, _, err := compute()
		return v, OutcomeComputed, err
	}

	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		select {
		case <-e.done:
			// Published: bump recency under the same lock.
			c.moveToFront(e)
			c.hits++
			c.mu.Unlock()
			return e.val, OutcomeHit, e.err
		default:
			// In flight: wait outside the lock.
			c.hits++
			c.mu.Unlock()
			<-e.done
			return e.val, OutcomeWaited, e.err
		}
	}
	e := &entry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	// Compute outside the lock. If compute panics, unpublish the entry and
	// hand waiters a retryable error before letting the panic propagate to
	// this caller (the measurement pool converts it to a PanicError).
	completed := false
	defer func() {
		if completed {
			return
		}
		c.mu.Lock()
		delete(c.entries, key)
		c.mu.Unlock()
		e.err = fmt.Errorf("simcache: compute for %v panicked in another goroutine; retry", key)
		close(e.done)
	}()
	val, bytes, err := compute()
	completed = true

	if err != nil {
		c.mu.Lock()
		delete(c.entries, key)
		c.mu.Unlock()
		e.err = err
		close(e.done)
		return nil, OutcomeComputed, err
	}
	if bytes < 0 {
		bytes = 0
	}
	e.val, e.bytes = val, bytes
	c.mu.Lock()
	c.pushFront(e)
	c.bytes += e.bytes
	// Evict least-recently-used published entries until we fit. The entry
	// just inserted is at the front, so it is evicted only if it alone
	// exceeds the whole budget — in which case it is returned to the
	// caller but not retained.
	for c.bytes > c.budget && c.tail != nil {
		c.evict(c.tail)
	}
	c.mu.Unlock()
	close(e.done)
	return val, OutcomeComputed, nil
}

// Peek returns the published value for key without waiting on an in-flight
// computation and without running anything. It does not move counters or
// recency — peeks serve cross-replica fill requests and must not distort
// the local working set. Nil-safe.
func (c *Cache) Peek(key Key) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	select {
	case <-e.done:
		if e.err != nil {
			return nil, false
		}
		return e.val, true
	default:
		return nil, false
	}
}

// Seed publishes a precomputed entry, as if compute had just returned it:
// the warm-start path for a fresh replica restoring a snapshot. The value
// must honour the same immutability contract as computed values. An
// existing resident entry (published or in flight) wins — a snapshot never
// clobbers live state — and the seed counts as neither hit nor miss. The
// LRU bound applies: seeding past the budget evicts from the cold end,
// so restoring a snapshot larger than the budget keeps its hottest
// (earliest-seeded) prefix. Nil-safe no-op. Reports whether this call
// inserted an entry that is still resident — false for duplicates, an
// immediately-evicted oversize seed, or a nil cache.
func (c *Cache) Seed(key Key, val any, bytes int64) bool {
	if c == nil {
		return false
	}
	if bytes < 0 {
		bytes = 0
	}
	e := &entry{key: key, done: make(chan struct{}), val: val, bytes: bytes}
	close(e.done)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.entries[key]; exists {
		return false
	}
	c.entries[key] = e
	c.pushFront(e)
	c.bytes += e.bytes
	for c.bytes > c.budget && c.tail != nil {
		c.evict(c.tail)
	}
	// The seed itself may have been evicted (alone over budget); report
	// whether it is resident.
	_, resident := c.entries[key]
	return resident
}

// Items visits every published entry from most- to least-recently used,
// stopping early when fn returns false. In-flight entries are skipped. The
// snapshot of (key, value, bytes) triples is taken under the lock, then fn
// runs outside it, so fn may take as long as it likes (e.g. stream a
// snapshot over HTTP) without stalling lookups; entries evicted after the
// snapshot are still visited.
func (c *Cache) Items(fn func(key Key, val any, bytes int64) bool) {
	if c == nil {
		return
	}
	type item struct {
		key   Key
		val   any
		bytes int64
	}
	c.mu.Lock()
	items := make([]item, 0, len(c.entries))
	for e := c.head; e != nil; e = e.next {
		items = append(items, item{e.key, e.val, e.bytes})
	}
	c.mu.Unlock()
	for _, it := range items {
		if !fn(it.key, it.val, it.bytes) {
			return
		}
	}
}

// moveToFront relinks e as most-recently-used. Caller holds mu.
func (c *Cache) moveToFront(e *entry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// pushFront links e at the head. Caller holds mu.
func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// unlink removes e from the recency list. Caller holds mu.
func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// evict drops a published entry. Caller holds mu.
func (c *Cache) evict(e *entry) {
	c.unlink(e)
	delete(c.entries, e.key)
	c.bytes -= e.bytes
	c.evictions++
}

// Stats returns a snapshot of the counters. Nil-safe: a disabled cache
// reports zeros.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Bytes:     c.bytes,
		Entries:   len(c.entries),
	}
}

// Len returns the resident entry count.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
