package serve

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"

	"mapc/internal/dataset"
)

// This file is the service's wire format, exported so the cluster router
// (internal/cluster) and the load generator (cmd/mapc-loadgen) speak
// exactly the structures the server decodes — one schema, three users.

// Resilience headers shared by router, serve, and loadgen.
const (
	// HeaderDeadline carries the caller's remaining time budget in integer
	// milliseconds. The router stamps it on every forward from the
	// per-attempt context; serve honors it (capped by its own
	// RequestTimeout) instead of the static default. A duration rather
	// than an absolute timestamp so clock skew between tiers is harmless.
	HeaderDeadline = "X-Mapc-Deadline"
	// HeaderDegradedOK on a request tells serve the client prefers a fast
	// possibly-degraded answer over waiting for the exact tier: admission
	// routes it straight to the analytic fast path.
	HeaderDegradedOK = "X-Mapc-Degraded-OK"
	// HeaderDegraded is set ("1") on responses answered from the degraded
	// fast tier, mirroring the body's "degraded" field so load generators
	// can count brownouts without parsing JSON.
	HeaderDegraded = "X-Mapc-Degraded"
)

// Member is one application instance in the wire format.
type Member struct {
	Benchmark string `json:"benchmark"`
	Batch     int    `json:"batch"`
}

func (m Member) member() dataset.Member {
	return dataset.Member{Benchmark: m.Benchmark, Batch: m.Batch}
}

// Bag is one bag: either the legacy 2-application {"a":…,"b":…} form
// or a k-member {"members":[…]} list. Exactly one form per bag.
type Bag struct {
	A       *Member  `json:"a,omitempty"`
	B       *Member  `json:"b,omitempty"`
	Members []Member `json:"members,omitempty"`
}

// MemberList flattens the bag to its member sequence, validating that
// exactly one of the two wire forms was used.
func (b Bag) MemberList() ([]Member, error) {
	if len(b.Members) > 0 {
		if b.A != nil || b.B != nil {
			return nil, errors.New(`mixes "members" with "a"/"b"; use one form per bag`)
		}
		return b.Members, nil
	}
	if b.A == nil || b.B == nil {
		return nil, errors.New(`requires both "a" and "b", or a "members" list`)
	}
	return []Member{*b.A, *b.B}, nil
}

// PredictRequest accepts a single bag inline — the legacy pair form
// ({"a":…,"b":…}) or a k-member list ({"bag":[…]}) — or a batch
// ({"bags":[…]}); combined forms are allowed and inline bags run first.
type PredictRequest struct {
	A    *Member  `json:"a,omitempty"`
	B    *Member  `json:"b,omitempty"`
	Bag  []Member `json:"bag,omitempty"`
	Bags []Bag    `json:"bags,omitempty"`
}

// BagList validates the request's structural form and flattens it into a
// list of member sequences, in response order. It performs no model- or
// registry-level validation (bag size, benchmark names, batch positivity)
// — the server layers those on top, and the router deliberately leaves
// them to the replica that owns each bag.
func (r *PredictRequest) BagList() ([][]Member, error) {
	var bags [][]Member
	switch {
	case r.A != nil && r.B != nil:
		bags = append(bags, []Member{*r.A, *r.B})
	case r.A != nil || r.B != nil:
		return nil, errors.New("single-bag form requires both \"a\" and \"b\"")
	}
	if len(r.Bag) > 0 {
		bags = append(bags, r.Bag)
	}
	for i, bag := range r.Bags {
		ms, err := bag.MemberList()
		if err != nil {
			return nil, fmt.Errorf("bags[%d] %v", i, err)
		}
		bags = append(bags, ms)
	}
	if len(bags) == 0 {
		return nil, errors.New("no bags: provide {\"a\":…,\"b\":…}, {\"bag\":[…]} or {\"bags\":[…]}")
	}
	return bags, nil
}

// ReadBags decodes one /v1/predict request body and flattens it with
// BagList. It is the front door the server and the cluster router share:
// unknown fields are rejected, and so is anything after the first JSON
// value ({"a":…}{"b":…}, {"a":…}garbage, …) — silently ignoring it would
// mask client bugs.
func ReadBags(r io.Reader) ([][]Member, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req PredictRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	// Token returns io.EOF only when nothing but whitespace remains.
	if tok, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("request body carries trailing data after the JSON value (next token %v); send exactly one JSON object", tok)
	}
	return req.BagList()
}

// WriteJSON writes v pretty-printed with the status code and returns the
// code; the router answers in the same shape as the replicas.
func WriteJSON(w http.ResponseWriter, code int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	return code
}

// CanonicalKey is the permutation-invariant identity of a bag on the wire:
// members sorted by (benchmark, batch) and joined into the canonical
// dataset bag key. The feature cache and the cluster router both key on
// it, which is what routes every permutation of the same multiset of
// members to the same replica and the same cache entry.
func CanonicalKey(ms []Member) string {
	s := make([]dataset.Member, len(ms))
	for i, m := range ms {
		s[i] = m.member()
	}
	sortCanonical(s)
	return dataset.BagKeyOf(s)
}

// sortCanonical sorts bag members by (benchmark, batch) in place: the
// canonical member order of CanonicalKey and the feature cache.
func sortCanonical(s []dataset.Member) {
	slices.SortFunc(s, func(a, b dataset.Member) int {
		if c := strings.Compare(a.Benchmark, b.Benchmark); c != 0 {
			return c
		}
		return cmp.Compare(a.Batch, b.Batch)
	})
}

// BagResult is one bag's answer; Members lists the bag in request order,
// whichever request form carried it.
type BagResult struct {
	Members      []Member `json:"members"`
	PredictedSec float64  `json:"predicted_gpu_bag_time_sec"`
	Fairness     float64  `json:"fairness"`
	Cached       bool     `json:"cached"`
}

// PredictResponse is the /v1/predict success body. Degraded is true when
// the answer came from the brownout fast tier rather than the exact
// simulation path (omitted when false, so pre-brownout clients and
// byte-identity tests see an unchanged encoding).
type PredictResponse struct {
	ModelScheme string      `json:"model_scheme"`
	Results     []BagResult `json:"results"`
	Degraded    bool        `json:"degraded,omitempty"`
}

// ErrorResponse is every non-2xx JSON body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// HealthResponse is the /healthz body.
type HealthResponse struct {
	Status          string  `json:"status"`
	ModelScheme     string  `json:"model_scheme"`
	ModelFeatures   int     `json:"model_features"`
	TrainedOnPoints int     `json:"trained_on_points"`
	CachedBags      int     `json:"cached_bags"`
	InFlight        int64   `json:"in_flight"`
	UptimeSec       float64 `json:"uptime_sec"`
	// Shares is the generator's MPS share profile (dataset
	// Config.SharesLabel), omitted for the equal split.
	Shares string `json:"shares,omitempty"`
}

// CacheEntryResponse is the GET /v1/cache/entry body: one published
// feature-cache entry, bit-exact (JSON float64 encoding round-trips
// exactly), served to peers filling a miss without re-simulating.
type CacheEntryResponse struct {
	Key      string    `json:"key"`
	X        []float64 `json:"x"`
	Fairness float64   `json:"fairness"`
}

// SnapshotFormat identifies the feature-cache snapshot schema.
const SnapshotFormat = "mapc-feature-snapshot-v1"

// Snapshot is the serialized feature cache: the warm-start unit a fresh
// replica restores from disk (via fsatomic) or fetches from a peer
// (GET /v1/cache/snapshot) so it doesn't re-simulate the hot working set.
// Entries are ordered most- to least-recently used, so restoring into a
// smaller budget keeps the hottest prefix.
type Snapshot struct {
	Format      string `json:"format"`
	ModelScheme string `json:"model_scheme"`
	K           int    `json:"k"`
	Width       int    `json:"width"`
	// Shares is the generator's MPS share profile (empty for the equal
	// split). Feature vectors are share-independent today, but the cache
	// namespace is share-qualified (see featureCache), so snapshots only
	// seed replicas measuring the same profile.
	Shares string `json:"shares,omitempty"`
	// Fidelity is the co-run tier the entries were measured at, empty for
	// exact (so exact snapshots keep their earlier encoding). Analytic
	// vectors must never seed a replica answering at another tier.
	Fidelity string          `json:"fidelity,omitempty"`
	Entries  []SnapshotEntry `json:"entries"`
}

// SnapshotEntry is one cached bag: its canonical key and raw features.
type SnapshotEntry struct {
	Key      string    `json:"key"`
	X        []float64 `json:"x"`
	Fairness float64   `json:"fairness"`
}
