package serve

import (
	"fmt"
	"runtime/debug"
	"slices"

	"mapc/internal/dataset"
	"mapc/internal/phasesum"
	"mapc/internal/simcache"
)

// DefaultFeatureCacheMB bounds the cross-request feature cache. A cached
// bag costs ~(8*width + key) bytes, so even at k=8 (85 features, ~100-byte
// keys) 64 MiB holds ~80k distinct bags — far past any realistic hot set,
// while long-tail k-bag traffic (the keyspace is combinatorial in the
// benchmark registry) can no longer grow the map without bound.
const DefaultFeatureCacheMB = 64

// featureDomain namespaces exact-tier feature-cache keys inside the shared
// simcache.Key space. Every other tier gets its own namespace below it
// ("serve/features/fast" for the brownout tier), so an analytic answer can
// never be returned to (or snapshotted for) an exact-tier request.
const featureDomain = "serve/features"

// recoveredPanic is a panic caught inside the feature cache's compute
// path, converted to an error so a crashing measurement answers one 500
// instead of killing the server — and so the entry is never published
// rather than poisoned (see featureCache.get).
type recoveredPanic struct {
	Value any
	Stack []byte
}

func (p *recoveredPanic) Error() string {
	return fmt.Sprintf("serve: feature computation panicked: %v\n%s", p.Value, p.Stack)
}

// Unwrap exposes error panic values to errors.Is/As (mirrors
// parallel.PanicError).
func (p *recoveredPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// featureValue is one cached bag: its raw feature vector and fairness.
// Immutable once published (the simcache contract); PredictRaw copies
// before scaling, so sharing the slice across requests is safe.
type featureValue struct {
	x        []float64
	fairness float64
}

// sizeBytes is the caller-reported resident size charged against the LRU
// budget: the vector, the key string, and a fixed allowance for the entry
// bookkeeping (simcache entry + map cell + list links).
func (v *featureValue) sizeBytes(key string) int64 {
	return int64(8*len(v.x)) + int64(len(key)) + 128
}

// featureCache memoizes raw feature vectors per bag across requests, built
// on internal/simcache: a byte-bounded, LRU-evicting singleflight memo.
// Each bag's shared-CPU fairness simulation runs exactly once no matter
// how many concurrent requests ask for the same bag; when the resident
// bytes exceed the budget the least-recently-used bags are evicted (they
// cost re-simulation on next sight, never a wrong answer). The generator
// underneath additionally memoizes each member's isolated runs, so even a
// miss on a new combination of known members only pays for the shared run.
type featureCache struct {
	// compute is the miss path: the bag's features with its co-run at the
	// given tier.
	compute func(bag []dataset.Member, fid phasesum.Fidelity) ([]float64, float64, error)
	// tier is the generator's configured fidelity: the tier of every
	// answer outside brownout, and the only tier whose entries snapshots,
	// peek and peer fill carry.
	tier phasesum.Fidelity
	// canonical collapses every permutation of a bag's members into one
	// entry. Only safe when the generator's CanonicalOrder sorts members
	// itself, making BagFeatures permutation-invariant.
	canonical bool
	// fill, when set, is consulted on a miss before simulating: the peer
	// fill hook returns a bit-exact vector computed by another replica
	// (JSON float64 round-trips exactly), or ok=false to fall through to
	// the local simulation. It runs inside the singleflight slot, so
	// concurrent misses on one bag cost one peer probe.
	fill func(key string) (x []float64, fairness float64, ok bool)
	// shares qualifies every key with the generator's MPS share profile
	// (dataset Config.SharesLabel; "" for the equal split). Features are
	// share-independent today, but the share vector is generator state
	// that changes measured co-runs, so two profiles must never share a
	// cache namespace — the same reasoning that keeps the tiers apart.
	shares string
	// domains maps each tier to its share-qualified key domain, derived
	// once at construction so lookups build no strings.
	domains map[phasesum.Fidelity]string

	lru *simcache.Cache
}

// newFeatureCache builds the cache over gen with a budget of budgetMB MiB
// (0 means DefaultFeatureCacheMB; New validates negatives before here).
func newFeatureCache(gen *dataset.Generator, budgetMB int) *featureCache {
	if budgetMB <= 0 {
		budgetMB = DefaultFeatureCacheMB
	}
	cfg := gen.Config()
	return &featureCache{
		compute:   gen.BagFeaturesFidelity,
		tier:      cfg.Fidelity.Effective(),
		canonical: cfg.CanonicalOrder,
		shares:    cfg.SharesLabel(),
		domains:   tierDomains(cfg.SharesLabel()),
		lru:       simcache.MustNew(int64(budgetMB) << 20),
	}
}

// newStubFeatureCache is the test constructor: an arbitrary compute
// function and an explicit byte budget at the exact tier, no generator
// required.
func newStubFeatureCache(compute func(bag []dataset.Member, fid phasesum.Fidelity) ([]float64, float64, error), canonical bool, budgetBytes int64) *featureCache {
	return &featureCache{
		compute:   compute,
		tier:      phasesum.Exact,
		canonical: canonical,
		domains:   tierDomains(""),
		lru:       simcache.MustNew(budgetBytes),
	}
}

// key canonicalizes the bag when member order is irrelevant, returning the
// cache key and the member sequence to compute with.
func (c *featureCache) key(bag []dataset.Member) (string, []dataset.Member) {
	if c.canonical {
		bag = slices.Clone(bag)
		sortCanonical(bag)
	}
	return dataset.BagKeyOf(bag), bag
}

// tierDomains derives every tier's key domain: featureDomain for exact,
// featureDomain/<tier> otherwise, each qualified with the share profile.
// The equal split keeps the bare domain, identical to the pre-shares key
// shape; any explicit profile gets its own namespace by exact string
// append — no hashing, so distinct profiles can never collide.
func tierDomains(shares string) map[phasesum.Fidelity]string {
	out := make(map[phasesum.Fidelity]string, 3)
	for _, fid := range []phasesum.Fidelity{phasesum.Exact, phasesum.Mixed, phasesum.Fast} {
		d := featureDomain
		if fid != phasesum.Exact {
			d += "/" + string(fid)
		}
		if shares != "" {
			d += "?shares=" + shares
		}
		out[fid] = d
	}
	return out
}

// cacheKey maps the canonical bag key into the simcache key space of tier
// fid: the tier's share-qualified domain plus the bag key in the Config
// field.
func (c *featureCache) cacheKey(bagKey string, fid phasesum.Fidelity) simcache.Key {
	return simcache.Key{Domain: c.domains[fid.Effective()], Config: bagKey}
}

// get returns the bag's raw feature vector and fairness with its co-run at
// tier fid, computing them at most once per resident generation. Each
// tier has its own key namespace, so an answer never crosses tiers. hit
// reports whether a *published* entry answered immediately: a request
// that joined an in-progress first computation waited out a full
// simulation and must not claim "cached" (the pre-fix cache reported
// hit=true for those waiters). The returned slice is shared across
// requests — callers must not mutate it (core.Predictor.PredictRaw copies
// before scaling).
//
// A compute that panics must not poison the singleflight slot: the panic
// is recovered into a *recoveredPanic error, simcache never publishes
// errored entries, and the next request for the same bag computes fresh —
// the panicking bag costs exactly one 500 (plus the same error for any
// waiter that shared the slot).
func (c *featureCache) get(bag []dataset.Member, fid phasesum.Fidelity) (x []float64, fairness float64, hit bool, err error) {
	k, canon := c.key(bag)
	v, outcome, err := c.lru.Lookup(c.cacheKey(k, fid), func() (any, int64, error) {
		fv, err := c.computeValue(k, canon, fid)
		if err != nil {
			return nil, 0, err
		}
		return fv, fv.sizeBytes(k), nil
	})
	if err != nil {
		return nil, 0, false, err
	}
	fv := v.(*featureValue)
	return fv.x, fv.fairness, outcome == simcache.OutcomeHit, nil
}

// computeValue runs the miss path — peer fill first (configured tier only:
// peers publish only that tier's entries), local simulation as the
// fallback — with panics recovered into *recoveredPanic.
func (c *featureCache) computeValue(key string, canon []dataset.Member, fid phasesum.Fidelity) (fv *featureValue, err error) {
	defer func() {
		if r := recover(); r != nil {
			fv, err = nil, &recoveredPanic{Value: r, Stack: debug.Stack()}
		}
	}()
	if c.fill != nil && fid.Effective() == c.tier {
		if x, fairness, ok := c.fill(key); ok {
			return &featureValue{x: x, fairness: fairness}, nil
		}
	}
	x, fairness, err := c.compute(canon, fid)
	if err != nil {
		return nil, err
	}
	return &featureValue{x: x, fairness: fairness}, nil
}

// peek returns the configured tier's published entry for a canonical bag
// key without waiting, computing, or touching recency — the peer-fill
// serving side.
func (c *featureCache) peek(bagKey string) (*featureValue, bool) {
	v, ok := c.lru.Peek(c.cacheKey(bagKey, c.tier))
	if !ok {
		return nil, false
	}
	return v.(*featureValue), true
}

// seed publishes a precomputed entry (warm start); a live resident entry
// wins. Reports whether this call inserted a still-resident entry.
func (c *featureCache) seed(bagKey string, x []float64, fairness float64) bool {
	fv := &featureValue{x: x, fairness: fairness}
	return c.lru.Seed(c.cacheKey(bagKey, c.tier), fv, fv.sizeBytes(bagKey))
}

// entries lists the configured tier's published entries MRU-first (the
// snapshot body). Brownout entries of another tier are deliberately
// excluded: snapshots and peer fills carry only the tier the snapshot
// records.
func (c *featureCache) entries() []SnapshotEntry {
	domain := c.domains[c.tier]
	var out []SnapshotEntry
	c.lru.Items(func(key simcache.Key, val any, _ int64) bool {
		if key.Domain != domain {
			return true
		}
		if fv, ok := val.(*featureValue); ok {
			out = append(out, SnapshotEntry{Key: key.Config, X: fv.x, Fairness: fv.fairness})
		}
		return true
	})
	return out
}

// Stats exposes the LRU counters (hits/misses/evictions/bytes/entries).
func (c *featureCache) Stats() simcache.Stats { return c.lru.Stats() }

// Len returns the number of cached bags (including in-flight entries).
func (c *featureCache) Len() int {
	return c.lru.Len()
}
