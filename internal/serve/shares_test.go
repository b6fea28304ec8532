package serve

import (
	"testing"

	"mapc/internal/dataset"
	"mapc/internal/phasesum"
)

// Share-qualified cache namespaces: two caches measuring different MPS
// share profiles must never see each other's entries, the equal split
// must keep the legacy key shape, and snapshots carry the profile.

func TestShareDomainQualifiesKeys(t *testing.T) {
	equal, skew := tierDomains(""), tierDomains("0.7/0.3")
	if got := equal[phasesum.Exact]; got != "serve/features" {
		t.Errorf("equal split rewrote the exact domain to %q", got)
	}
	if got := equal[phasesum.Fast]; got != "serve/features/fast" {
		t.Errorf("equal split rewrote the fast domain to %q", got)
	}
	if got := skew[phasesum.Exact]; got != "serve/features?shares=0.7/0.3" {
		t.Errorf("share-qualified exact domain %q", got)
	}
	if got := skew[phasesum.Fast]; got != "serve/features/fast?shares=0.7/0.3" {
		t.Errorf("share-qualified fast domain %q", got)
	}
	seen := map[string]phasesum.Fidelity{}
	for _, d := range []map[phasesum.Fidelity]string{equal, skew} {
		for fid, dom := range d {
			if other, dup := seen[dom]; dup {
				t.Errorf("tiers %s and %s collided on domain %q", fid, other, dom)
			}
			seen[dom] = fid
		}
	}
}

// TestSharedLRUSeparatesShareProfiles: two featureCaches over one LRU
// (simulating profile-qualified replicas sharing key space) keep distinct
// entries per profile, and entries() only lists the cache's own profile.
func TestSharedLRUSeparatesShareProfiles(t *testing.T) {
	mk := func(shares string, val float64) *featureCache {
		c := newStubFeatureCache(func(bag []dataset.Member, _ phasesum.Fidelity) ([]float64, float64, error) {
			return []float64{val}, val, nil
		}, false, 1<<20)
		c.shares = shares
		c.domains = tierDomains(shares)
		return c
	}
	equal := mk("", 1)
	skew := mk("0.7/0.3", 2)

	bag := []dataset.Member{{Benchmark: "sift", Batch: 20}, {Benchmark: "surf", Batch: 20}}
	xe, _, _, err := equal.get(bag, phasesum.Exact)
	if err != nil {
		t.Fatal(err)
	}
	xs, _, _, err := skew.get(bag, phasesum.Exact)
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
