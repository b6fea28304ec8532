package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"mapc/internal/dataset"
	"mapc/internal/phasesum"
)

// snapPredict asks the handler for one bag and returns the raw response.
func snapPredict(t *testing.T, h http.Handler, body string) string {
	t.Helper()
	rr := doJSON(t, h, http.MethodPost, "/v1/predict", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("predict answered %d: %s", rr.Code, rr.Body)
	}
	return rr.Body.String()
}

// TestSnapshotWarmStartBitIdentical round-trips the feature cache through
// a disk snapshot into a second server whose simulator is disabled, and
// asserts the warmed replica answers byte-identical predictions without
// ever simulating — the bit-exactness contract of the warm start (JSON
// encodes float64 with the shortest round-tripping representation).
func TestSnapshotWarmStartBitIdentical(t *testing.T) {
	s1 := newTestServer(t, nil)
	h1 := s1.Handler()
	bodies := []string{
		`{"a":{"benchmark":"sift","batch":20},"b":{"benchmark":"surf","batch":40}}`,
		`{"a":{"benchmark":"surf","batch":20},"b":{"benchmark":"surf","batch":20}}`,
		`{"bags":[{"members":[{"benchmark":"sift","batch":40},{"benchmark":"sift","batch":20}]}]}`,
	}
	want := make([]string, len(bodies))
	for i, b := range bodies {
		want[i] = snapPredict(t, h1, b)
	}

	path := filepath.Join(t.TempDir(), "features.snap")
	if err := s1.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, nil)
	// A warmed replica must not need its simulator for the snapshotted
	// working set: any compute is the test failing.
	s2.cache.compute = func(bag []dataset.Member) ([]float64, float64, error) {
		t.Errorf("warmed replica simulated bag %v", bag)
		return nil, 0, nil
	}
	seeded, err := s2.LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if wantN := s1.cache.Len(); seeded != wantN {
		t.Fatalf("seeded %d entries, source cache holds %d", seeded, wantN)
	}
	h2 := s2.Handler()
	for i, b := range bodies {
		got := snapPredict(t, h2, b)
		// The warmed replica answers from published entries, so its
		// "cached" field legitimately differs from the cold source's first
		// pass; everything else must match byte-for-byte.
		norm := func(s string) string { return strings.ReplaceAll(s, `"cached": true`, `"cached": false`) }
		if norm(got) != norm(want[i]) {
			t.Errorf("bag %d:\n  cold source: %s\n  warm replica: %s", i, want[i], got)
		}
		if !strings.Contains(got, `"cached": true`) {
			t.Errorf("bag %d: warmed replica did not answer from cache: %s", i, got)
		}
	}
}

// TestSeedSnapshotRejectsMismatches pins the validation: a snapshot from a
// different model shape or scheme must not seed meaningless vectors.
func TestSeedSnapshotRejectsMismatches(t *testing.T) {
	s := newTestServer(t, nil)
	good := s.Snapshot()
	if len(good.Entries) != 0 {
		t.Fatalf("fresh server snapshot carries %d entries", len(good.Entries))
	}
	width := s.cfg.Model.NumFeatures()
	entry := SnapshotEntry{Key: "sift/20+surf/20", X: make([]float64, width), Fairness: 0.5}

	cases := []struct {
		name    string
		mutate  func(*Snapshot)
		wantSub string
	}{
		{"wrong format", func(sn *Snapshot) { sn.Format = "mapc-other-v9" }, "format"},
		{"wrong scheme", func(sn *Snapshot) { sn.ModelScheme = "nosuch" }, "scheme"},
		{"wrong k", func(sn *Snapshot) { sn.K = 7 }, "does not match"},
		{"wrong width", func(sn *Snapshot) { sn.Width = width + 1 }, "does not match"},
		{"wrong shares", func(sn *Snapshot) { sn.Shares = "0.7/0.3" }, "share profile"},
		{"wrong fidelity", func(sn *Snapshot) { sn.Fidelity = "fast" }, "tier"},
		{"retired mixed tier", func(sn *Snapshot) { sn.Fidelity = "mixed" }, "mixed-tier"},
		{"empty key", func(sn *Snapshot) { sn.Entries = []SnapshotEntry{{X: make([]float64, width)}} }, "empty key"},
		{"short vector", func(sn *Snapshot) { sn.Entries = []SnapshotEntry{{Key: "k", X: make([]float64, 3)}} }, "features"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap := good
			snap.Entries = []SnapshotEntry{entry}
			tc.mutate(&snap)
			if _, err := s.SeedSnapshot(&snap); err == nil {
				t.Fatal("mismatched snapshot seeded without error")
			} else if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}

	snap := good
	snap.Entries = []SnapshotEntry{entry}
	if n, err := s.SeedSnapshot(&snap); err != nil || n != 1 {
		t.Fatalf("valid snapshot: seeded=%d err=%v", n, err)
	}
}

// TestWarmFromPeerAndPeerFill exercises the two HTTP warm paths end to
// end against a real peer over httptest: snapshot pull at join, then
// per-key peer fill on miss.
func TestWarmFromPeerAndPeerFill(t *testing.T) {
	peer := newTestServer(t, nil)
	hp := peer.Handler()
	hot := `{"a":{"benchmark":"sift","batch":20},"b":{"benchmark":"surf","batch":20}}`
	warmOnly := `{"a":{"benchmark":"sift","batch":40},"b":{"benchmark":"surf","batch":40}}`
	wantHot := snapPredict(t, hp, hot)
	ts := httptest.NewServer(hp)
	defer ts.Close()

	fresh := newTestServer(t, nil)
	var computes atomic.Int64
	realCompute := fresh.cache.compute
	fresh.cache.compute = func(bag []dataset.Member) ([]float64, float64, error) {
		computes.Add(1)
		return realCompute(bag)
	}

	// Join-time warm start: pull the peer's whole snapshot.
	n, err := fresh.WarmFromPeer(context.Background(), nil, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if n != peer.cache.Len() {
		t.Fatalf("warmed %d entries, peer holds %d", n, peer.cache.Len())
	}
	// Compare modulo the cached flag, which legitimately differs between a
	// cold first pass and a warmed replica; the numbers must be byte-equal.
	norm := func(s string) string {
		s = strings.ReplaceAll(s, `"cached": true`, `"cached": ?`)
		return strings.ReplaceAll(s, `"cached": false`, `"cached": ?`)
	}
	hf := fresh.Handler()
	got := snapPredict(t, hf, hot)
	if norm(got) != norm(wantHot) {
		t.Errorf("warmed prediction differs:\n  peer:  %s\n  fresh: %s", wantHot, got)
	}
	if computes.Load() != 0 {
		t.Fatalf("warmed replica simulated %d times for the snapshotted bag", computes.Load())
	}

	// Peer fill: the peer computes a new bag after the snapshot was taken;
	// the fresh replica's miss is answered by the peer's published entry,
	// not a local simulation.
	wantWarm := snapPredict(t, hp, warmOnly)
	fresh.SetPeerFill(nil, []string{ts.URL}, 0)
	got = snapPredict(t, hf, warmOnly)
	if norm(got) != norm(wantWarm) {
		t.Errorf("peer-filled prediction differs:\n  peer:  %s\n  fresh: %s", wantWarm, got)
	}
	if computes.Load() != 0 {
		t.Fatalf("peer fill fell through to %d local simulations", computes.Load())
	}
	if fresh.Metrics().peerFillHits.Load() != 1 {
		t.Errorf("peer-fill hits = %d, want 1", fresh.Metrics().peerFillHits.Load())
	}

	// A bag nobody holds falls through to the local simulator.
	cold := `{"a":{"benchmark":"sift","batch":80},"b":{"benchmark":"surf","batch":80}}`
	_ = snapPredict(t, hf, cold)
	if computes.Load() != 1 {
		t.Fatalf("cold bag ran %d local simulations, want 1", computes.Load())
	}
}

// TestCacheEntryEndpoint pins /v1/cache/entry semantics: published entries
// only, 404 otherwise, 400 without a key.
func TestCacheEntryEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	snapPredict(t, h, `{"a":{"benchmark":"sift","batch":20},"b":{"benchmark":"surf","batch":20}}`)

	// Bag keys carry "+" separators, so the query parameter must be
	// escaped — exactly what fetchPeerEntry does on the client side.
	key := CanonicalKey([]Member{{Benchmark: "surf", Batch: 20}, {Benchmark: "sift", Batch: 20}})
	rr := doJSON(t, h, http.MethodGet, "/v1/cache/entry?key="+url.QueryEscape(key), "")
	if rr.Code != http.StatusOK {
		t.Fatalf("published entry answered %d: %s", rr.Code, rr.Body)
	}
	if !strings.Contains(rr.Body.String(), `"x": [`) {
		t.Errorf("entry response carries no vector: %s", rr.Body)
	}

	if rr := doJSON(t, h, http.MethodGet, "/v1/cache/entry?key=nosuch/1%2Bnosuch/2", ""); rr.Code != http.StatusNotFound {
		t.Errorf("absent entry answered %d", rr.Code)
	}
	if rr := doJSON(t, h, http.MethodGet, "/v1/cache/entry", ""); rr.Code != http.StatusBadRequest {
		t.Errorf("missing key answered %d", rr.Code)
	}
	if rr := doJSON(t, h, http.MethodPost, "/v1/cache/entry?key="+key, "{}"); rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST answered %d", rr.Code)
	}
}

// TestSnapshotRecordsFidelity: a fast-tier replica's snapshot names its
// tier, so an exact replica refuses it (analytic vectors must never seed
// exact answers) while another fast replica accepts it; exact snapshots
// keep their encoding, with no fidelity key.
func TestSnapshotRecordsFidelity(t *testing.T) {
	gen, mod := fixture(t)
	cfg := gen.Config()
	cfg.Fidelity = phasesum.Fast
	fastGen, err := dataset.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	newFast := func() *Server {
		s, err := New(Config{Model: mod, Generator: fastGen, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	src := newFast()
	snapPredict(t, src.Handler(), `{"a":{"benchmark":"sift","batch":20},"b":{"benchmark":"surf","batch":40}}`)
	snap := src.Snapshot()
	if snap.Fidelity != "fast" || len(snap.Entries) != 1 {
		t.Fatalf("fast replica snapshot: fidelity %q, %d entries; want fast, 1", snap.Fidelity, len(snap.Entries))
	}

	exact := newTestServer(t, nil)
	if _, err := exact.SeedSnapshot(&snap); err == nil || !strings.Contains(err.Error(), "tier") {
		t.Fatalf("exact replica seeded a fast snapshot (err %v)", err)
	}
	if n := exact.CacheLen(); n != 0 {
		t.Errorf("refused snapshot left %d entries behind", n)
	}
	if n, err := newFast().SeedSnapshot(&snap); err != nil || n != 1 {
		t.Fatalf("fast replica refused a fast snapshot: seeded=%d err=%v", n, err)
	}

	var buf strings.Builder
	if err := exact.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "fidelity") {
		t.Errorf("exact snapshot carries a fidelity key: %s", buf.String())
	}
}
