// Warm-start: snapshot/restore of the feature cache, and peer fill.
//
// A fresh replica joining the serving tier starts with a cold feature
// cache and would re-simulate the entire hot working set — minutes of
// wasted compute for state a sibling already holds. Three complementary
// mechanisms avoid that, all bit-exact because JSON encodes float64 with
// the shortest round-tripping representation:
//
//  1. Disk snapshot: SaveSnapshotFile persists the cache (MRU-first)
//     through internal/fsatomic, so a crash mid-save leaves the previous
//     complete snapshot; LoadSnapshotFile seeds it back at boot.
//  2. Peer snapshot: GET /v1/cache/snapshot streams the same document over
//     HTTP; WarmFromPeer pulls and seeds it (mapc-serve -warm-from).
//  3. Peer fill: with SetPeerFill installed, a cache miss first asks each
//     peer's GET /v1/cache/entry?key=… for the published entry before
//     falling back to local simulation (mapc-serve -peers).
//
// Snapshots carry the model scheme, bag size, feature width, share profile
// and co-run tier; a replica refuses to seed entries from a mismatched
// model or measurement setup, since the vectors would be meaningless to
// its predictor or measured differently from its own.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"time"

	"mapc/internal/fsatomic"
	"mapc/internal/phasesum"
)

// Snapshot captures the current feature cache, most-recently-used first.
func (s *Server) Snapshot() Snapshot {
	return Snapshot{
		Format:      SnapshotFormat,
		ModelScheme: s.cfg.Model.Scheme().Name,
		K:           s.trainedK,
		Width:       s.cfg.Model.NumFeatures(),
		Shares:      s.cache.shares,
		Fidelity:    snapshotTier(s.cache.tier),
		Entries:     s.cache.entries(),
	}
}

// snapshotTier is the Snapshot.Fidelity label of tier fid: empty for
// exact, the tier name otherwise.
func snapshotTier(fid phasesum.Fidelity) string {
	if fid.Effective() == phasesum.Exact {
		return ""
	}
	return string(fid)
}

// WriteSnapshot streams the snapshot as JSON.
func (s *Server) WriteSnapshot(w io.Writer) error {
	return json.NewEncoder(w).Encode(s.Snapshot())
}

// SeedSnapshot validates snap against the loaded model and seeds every
// entry into the feature cache (resident entries win; the LRU budget
// applies, keeping the hottest prefix of an oversized snapshot). It
// returns how many entries were seeded and resident.
func (s *Server) SeedSnapshot(snap *Snapshot) (int, error) {
	if snap.Format != SnapshotFormat {
		return 0, fmt.Errorf("serve: snapshot format %q, want %q", snap.Format, SnapshotFormat)
	}
	if snap.ModelScheme != s.cfg.Model.Scheme().Name {
		return 0, fmt.Errorf("serve: snapshot from a scheme-%q model cannot seed a scheme-%q server",
			snap.ModelScheme, s.cfg.Model.Scheme().Name)
	}
	width := s.cfg.Model.NumFeatures()
	if snap.Width != width || snap.K != s.trainedK {
		return 0, fmt.Errorf("serve: snapshot shape (k=%d, width=%d) does not match the loaded model (k=%d, width=%d)",
			snap.K, snap.Width, s.trainedK, width)
	}
	if snap.Shares != s.cache.shares {
		return 0, fmt.Errorf("serve: snapshot from share profile %q cannot seed a server measuring profile %q",
			snap.Shares, s.cache.shares)
	}
	if want := snapshotTier(s.cache.tier); snap.Fidelity != want {
		return 0, fmt.Errorf("serve: snapshot of %s-tier features cannot seed a server answering at the %s tier",
			phasesum.Fidelity(snap.Fidelity), s.cache.tier)
	}
	seeded := 0
	for i, e := range snap.Entries {
		if e.Key == "" {
			return seeded, fmt.Errorf("serve: snapshot entry %d has an empty key", i)
		}
		if len(e.X) != width {
			return seeded, fmt.Errorf("serve: snapshot entry %d (%s) carries %d features, want %d", i, e.Key, len(e.X), width)
		}
		if s.cache.seed(e.Key, e.X, e.Fairness) {
			seeded++
		}
	}
	return seeded, nil
}

// ReadSnapshot decodes one snapshot document from r and seeds it.
func (s *Server) ReadSnapshot(r io.Reader) (int, error) {
	var snap Snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return 0, fmt.Errorf("serve: decoding snapshot: %w", err)
	}
	return s.SeedSnapshot(&snap)
}

// SaveSnapshotFile atomically persists the snapshot to path (temp + fsync
// + rename): a crash mid-save leaves the previous complete snapshot.
func (s *Server) SaveSnapshotFile(path string) error {
	return fsatomic.WriteFile(path, s.WriteSnapshot)
}

// LoadSnapshotFile seeds the cache from a SaveSnapshotFile document.
func (s *Server) LoadSnapshotFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return s.ReadSnapshot(f)
}

// WarmFromPeer pulls a peer replica's GET /v1/cache/snapshot and seeds the
// local cache — the join-time warm start of a fresh replica.
func (s *Server) WarmFromPeer(ctx context.Context, client *http.Client, baseURL string) (int, error) {
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/cache/snapshot", nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("serve: fetching snapshot from %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("serve: peer %s answered %d to the snapshot request", baseURL, resp.StatusCode)
	}
	return s.ReadSnapshot(resp.Body)
}

// SetPeerFill installs the peer-fill hook: a feature-cache miss asks each
// peer in turn for its published entry (GET /v1/cache/entry) before
// simulating locally. timeout bounds each probe; peers that error or miss
// are skipped silently — peer fill is an optimization, never a dependency.
// Call before serving begins.
func (s *Server) SetPeerFill(client *http.Client, peers []string, timeout time.Duration) {
	if len(peers) == 0 {
		return
	}
	if client == nil {
		client = http.DefaultClient
	}
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	width := s.cfg.Model.NumFeatures()
	s.cache.fill = func(key string) ([]float64, float64, bool) {
		for _, p := range peers {
			x, fairness, ok := fetchPeerEntry(client, p, key, timeout, width)
			if ok {
				s.metrics.PeerFillHit()
				return x, fairness, true
			}
		}
		s.metrics.PeerFillMiss()
		return nil, 0, false
	}
}

// fetchPeerEntry asks one peer for one published cache entry.
func fetchPeerEntry(client *http.Client, baseURL, key string, timeout time.Duration, width int) ([]float64, float64, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	u := baseURL + "/v1/cache/entry?key=" + url.QueryEscape(key)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, 0, false
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, false
	}
	var e CacheEntryResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		return nil, 0, false
	}
	if e.Key != key || len(e.X) != width {
		return nil, 0, false // a confused peer must not poison the cache
	}
	return e.X, e.Fairness, true
}

// handleCacheSnapshot serves GET /v1/cache/snapshot: the whole published
// feature cache, MRU-first, for peer warm starts.
func (s *Server) handleCacheSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.metrics.ObserveOther(writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{"GET only"}))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = s.WriteSnapshot(w)
	s.metrics.ObserveOther(http.StatusOK)
}

// handleCacheEntry serves GET /v1/cache/entry?key=<canonical bag key>: one
// published entry, or 404 when the bag is absent or still computing (peer
// fill must never block on another replica's in-flight simulation).
func (s *Server) handleCacheEntry(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.metrics.ObserveOther(writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{"GET only"}))
		return
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		s.metrics.ObserveOther(writeJSON(w, http.StatusBadRequest, ErrorResponse{"missing key parameter"}))
		return
	}
	fv, ok := s.cache.peek(key)
	if !ok {
		s.metrics.ObserveOther(writeJSON(w, http.StatusNotFound, ErrorResponse{fmt.Sprintf("bag %q is not cached here", key)}))
		return
	}
	s.metrics.ObserveOther(writeJSON(w, http.StatusOK, CacheEntryResponse{Key: key, X: fv.x, Fairness: fv.fairness}))
}
