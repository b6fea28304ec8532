package serve

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzBagList drives arbitrary request bodies through ReadBags, the decoder
// the server and the router share. It may not panic; on success every bag is
// non-empty and its CanonicalKey is the same when the members are
// reversed, which is what routes every permutation of a bag to one
// replica and one cache entry.
func FuzzBagList(f *testing.F) {
	for _, seed := range []string{
		`{"a":{"benchmark":"sift","batch":20},"b":{"benchmark":"surf","batch":20}}`,
		`{"bag":[{"benchmark":"sift","batch":20},{"benchmark":"surf","batch":40},{"benchmark":"knn","batch":80}]}`,
		`{"bags":[{"a":{"benchmark":"sift","batch":20},"b":{"benchmark":"surf","batch":20}},{"members":[{"benchmark":"knn","batch":20},{"benchmark":"hog","batch":40}]}]}`,
		`{"a":{"benchmark":"sift","batch":20},"b":{"benchmark":"surf","batch":20},"bags":[{"members":[{"benchmark":"orb","batch":20},{"benchmark":"orb","batch":20}]}]}`,
		`{"a":{"benchmark":"sift","batch":20}}`,
		`{"bags":[{"a":{"benchmark":"sift","batch":20},"members":[{"benchmark":"surf","batch":20}]}]}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		bags, err := ReadBags(bytes.NewReader(body))
		if err != nil {
			return
		}
		for i, bag := range bags {
			if len(bag) == 0 {
				t.Fatalf("bag %d of %q is empty", i, body)
			}
			rev := slices.Clone(bag)
			slices.Reverse(rev)
			if a, b := CanonicalKey(bag), CanonicalKey(rev); a != b {
				t.Fatalf("bag %d of %q: canonical key %q, reversed %q", i, body, a, b)
			}
		}
	})
}
