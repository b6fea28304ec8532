package serve

import (
	"testing"

	"mapc/internal/dataset"
)

// Share-qualified cache namespaces: two caches measuring different MPS
// share profiles must never see each other's entries, the equal split
// must keep the legacy key shape, and snapshots carry the profile.

func TestShareDomainQualifiesKeys(t *testing.T) {
	if got := shareDomain(""); got != "serve/features" {
		t.Errorf("equal split rewrote the domain to %q", got)
	}
	if got := shareDomain("0.7/0.3"); got != "serve/features?shares=0.7/0.3" {
		t.Errorf("share-qualified domain %q", got)
	}
	if shareDomain("0.7/0.3") == shareDomain("0.3/0.7") {
		t.Error("two share profiles collided on one domain")
	}
}

// TestSharedLRUSeparatesShareProfiles: two featureCaches over one LRU
// (simulating profile-qualified replicas sharing key space) keep distinct
// entries per profile, and entries() only lists the cache's own profile.
func TestSharedLRUSeparatesShareProfiles(t *testing.T) {
	mk := func(shares string, val float64) *featureCache {
		c := newStubFeatureCache(func(bag []dataset.Member) ([]float64, float64, error) {
			return []float64{val}, val, nil
		}, false, 1<<20)
		c.shares = shares
		c.domain = shareDomain(shares)
		return c
	}
	equal := mk("", 1)
	skew := mk("0.7/0.3", 2)
	skew.lru = equal.lru

	bag := []dataset.Member{{Benchmark: "sift", Batch: 20}, {Benchmark: "surf", Batch: 20}}
	xe, _, _, err := equal.get(bag)
	if err != nil {
		t.Fatal(err)
	}
	xs, _, _, err := skew.get(bag)
	if err != nil {
		t.Fatal(err)
	}
	if xe[0] == xs[0] {
		t.Fatal("stub caches computed identical values; test is vacuous")
	}

	// Cross-seed: an entry published under one profile must not answer the
	// other profile's key.
	key := dataset.BagKeyOf([]dataset.Member{bag[0], bag[1]})
	if _, ok := equal.peek(key); !ok {
		t.Error("equal-split entry missing from its own namespace")
	}
	if fv, ok := skew.peek(key); !ok {
		t.Error("skewed entry missing from its own namespace")
	} else if fv.x[0] != 2 {
		t.Errorf("skewed namespace answered %v, want the skew-profile vector", fv.x)
	}

	if got := equal.entries(); len(got) != 1 || got[0].X[0] != 1 {
		t.Errorf("equal-split entries() = %+v, want exactly its own entry", got)
	}
	if got := skew.entries(); len(got) != 1 || got[0].X[0] != 2 {
		t.Errorf("skewed entries() = %+v, want exactly its own entry", got)
	}
}
