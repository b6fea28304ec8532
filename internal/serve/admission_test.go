package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mapc/internal/dataset"
	"mapc/internal/phasesum"
)

// TestAdmissionBoundsBackgroundWork is the regression test for the
// admission-control leak: servePredict used to release its in-flight slot
// when the handler returned — including the 504 path — while the
// measurement goroutine kept simulating in the background, so a burst of
// slow bags grew actual concurrent computes far past MaxInFlight. Pre-fix
// this test observes up to `burst` concurrent computes; post-fix the slot
// is held until the measurement finishes and concurrency never exceeds
// MaxInFlight, with the overflow shed as 503s.
func TestAdmissionBoundsBackgroundWork(t *testing.T) {
	const maxInFlight = 2
	const burst = 10
	s := newTestServer(t, func(c *Config) {
		c.MaxInFlight = maxInFlight
		c.RequestTimeout = 25 * time.Millisecond
		c.Workers = 1
	})
	width := s.cfg.Model.NumFeatures()

	var cur, peak atomic.Int64
	block := make(chan struct{})
	s.featuresFn = func(bag []dataset.Member, _ phasesum.Fidelity) ([]float64, float64, bool, error) {
		v := cur.Add(1)
		for {
			p := peak.Load()
			if v <= p || peak.CompareAndSwap(p, v) {
				break
			}
		}
		<-block // a slow simulation that outlives the request deadline
		cur.Add(-1)
		x := make([]float64, width)
		return x, 0.5, false, nil
	}
	h := s.Handler()

	// Sequential burst of distinct slow bags (distinct so the feature
	// cache's singleflight cannot collapse them into one compute). Each
	// admitted request times out at 25ms with a 504 while its simulation
	// keeps running; once MaxInFlight simulations are stuck, the rest of
	// the burst must be shed with 503 *before* starting more work.
	var got504, got503 atomic.Int64
	for i := 0; i < burst; i++ {
		body := fmt.Sprintf(`{"a":{"benchmark":"sift","batch":%d},"b":{"benchmark":"surf","batch":%d}}`, i+1, i+1)
		rr := doJSON(t, h, http.MethodPost, "/v1/predict", body)
		switch rr.Code {
		case http.StatusGatewayTimeout:
			got504.Add(1)
		case http.StatusServiceUnavailable:
			got503.Add(1)
		default:
			t.Fatalf("request %d: unexpected status %d: %s", i, rr.Code, rr.Body)
		}
	}

	if p := peak.Load(); p > maxInFlight {
		t.Fatalf("admission leak: %d concurrent computes with MaxInFlight=%d", p, maxInFlight)
	}
	if got503.Load() == 0 {
		t.Errorf("no request was shed: 504s=%d 503s=%d (the limiter leaked capacity back)", got504.Load(), got503.Load())
	}
	if got504.Load() == 0 {
		t.Errorf("no request timed out; the fixture did not exercise the slow path")
	}

	// Releasing the stuck simulations frees the slots: the server accepts
	// and completes new work.
	close(block)
	waitFor(t, func() bool { return s.Metrics().InFlight() == 0 })
	rr := doJSON(t, h, http.MethodPost, "/v1/predict",
		`{"a":{"benchmark":"sift","batch":999},"b":{"benchmark":"surf","batch":999}}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("request after drain answered %d: %s", rr.Code, rr.Body)
	}
}

// TestPredictRejectsTrailingData pins the request-parsing fix: the decoder
// used to accept (and silently ignore) anything after the first JSON
// value, masking client bugs like concatenated bodies.
func TestPredictRejectsTrailingData(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	valid := `{"a":{"benchmark":"sift","batch":20},"b":{"benchmark":"surf","batch":20}}`
	cases := []struct {
		name     string
		body     string
		wantCode int
	}{
		{"clean body", valid, http.StatusOK},
		{"trailing whitespace ok", valid + " \n\t ", http.StatusOK},
		{"second JSON object", valid + `{"a":1}`, http.StatusBadRequest},
		{"trailing garbage word", valid + ` garbage`, http.StatusBadRequest},
		{"trailing bracket", valid + `]`, http.StatusBadRequest},
		{"trailing number", valid + ` 42`, http.StatusBadRequest},
		{"trailing null", valid + ` null`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := doJSON(t, h, http.MethodPost, "/v1/predict", tc.body)
			if rr.Code != tc.wantCode {
				t.Fatalf("code %d, want %d; body %s", rr.Code, tc.wantCode, rr.Body)
			}
			if tc.wantCode == http.StatusBadRequest && !strings.Contains(rr.Body.String(), "trailing data") {
				t.Errorf("400 body %q does not mention trailing data", rr.Body)
			}
		})
	}
}

// TestCachedFieldOnlyForPublishedEntries pins the "cached" response-field
// fix: a request that joined an in-progress first computation waited out a
// full simulation and must not report cached=true; only requests answered
// by a completed entry may.
func TestCachedFieldOnlyForPublishedEntries(t *testing.T) {
	s := newTestServer(t, nil)
	width := s.cfg.Model.NumFeatures()
	firstEntered := make(chan struct{})
	release := make(chan struct{})
	var computes atomic.Int64
	var entryOnce sync.Once
	s.cache.compute = func(bag []dataset.Member, _ phasesum.Fidelity) ([]float64, float64, error) {
		computes.Add(1)
		entryOnce.Do(func() { close(firstEntered) })
		<-release
		x := make([]float64, width)
		for i := range x {
			x[i] = 0.5
		}
		return x, 0.25, nil
	}
	h := s.Handler()
	body := `{"a":{"benchmark":"sift","batch":20},"b":{"benchmark":"surf","batch":20}}`

	cachedOf := func(rr fmt.Stringer, raw []byte) bool {
		t.Helper()
		var resp PredictResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("bad response %s: %v", rr, err)
		}
		if len(resp.Results) != 1 {
			t.Fatalf("%d results", len(resp.Results))
		}
		return resp.Results[0].Cached
	}

	type result struct {
		code   int
		cached bool
	}
	results := make(chan result, 2)
	// First request starts the computation…
	go func() {
		rr := doJSON(t, h, http.MethodPost, "/v1/predict", body)
		results <- result{rr.Code, cachedOf(rr.Body, rr.Body.Bytes())}
	}()
	<-firstEntered
	// …second request joins the in-flight singleflight slot: it waits out
	// the full simulation, so it must NOT claim "cached".
	go func() {
		rr := doJSON(t, h, http.MethodPost, "/v1/predict", body)
		results <- result{rr.Code, cachedOf(rr.Body, rr.Body.Bytes())}
	}()
	// Let the waiter actually attach before releasing (best effort: the
	// singleflight makes attach-after-release equivalent to a hit, which
	// would fail the assertion below only spuriously — so poll the cache
	// for the in-flight entry first).
	waitFor(t, func() bool { return s.cache.Len() == 1 })
	time.Sleep(10 * time.Millisecond)
	close(release)

	for i := 0; i < 2; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("request %d answered %d", i, r.code)
		}
		if r.cached {
			t.Errorf("request %d reported cached=true; neither the computing request nor the waiter hit a published entry", i)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1 (singleflight)", n)
	}

	// A third request now hits the published entry: cached=true.
	rr := doJSON(t, h, http.MethodPost, "/v1/predict", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("third request answered %d", rr.Code)
	}
	if !cachedOf(rr.Body, rr.Body.Bytes()) {
		t.Error("request against the published entry did not report cached=true")
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("published entry recomputed (computes=%d)", n)
	}
}

// TestFeatureCacheStaysBounded drives a randomized long-tail bag workload
// through a tightly bounded cache and asserts the resident bytes never
// exceed the configured budget while evictions occur — the regression test
// for the formerly unbounded entries map (fatal at k=8's combinatorial
// keyspace).
func TestFeatureCacheStaysBounded(t *testing.T) {
	const budget = 32 << 10 // 32 KiB: a few hundred entries at pair width
	var computes atomic.Int64
	c := newStubFeatureCache(func(bag []dataset.Member, _ phasesum.Fidelity) ([]float64, float64, error) {
		computes.Add(1)
		x := make([]float64, 21)
		for i := range x {
			x[i] = float64(bag[0].Batch) + float64(i)
		}
		return x, 0.5, nil
	}, true, budget)

	rng := rand.New(rand.NewSource(7))
	benchmarks := []string{"sift", "surf", "orb", "knn", "hog", "fast", "mog", "gmm", "svm"}
	const requests = 5000
	for i := 0; i < requests; i++ {
		// Long tail: mostly a small hot set, with a fat tail of unique
		// bags (zipf-ish via exponentiated uniform batch draws).
		var batch int
		if rng.Float64() < 0.3 {
			batch = 20 * (1 + rng.Intn(3)) // hot set
		} else {
			batch = 1 + rng.Intn(1<<16) // long tail
		}
		bag := []dataset.Member{
			{Benchmark: benchmarks[rng.Intn(len(benchmarks))], Batch: batch},
			{Benchmark: benchmarks[rng.Intn(len(benchmarks))], Batch: 20},
		}
		if _, _, _, err := c.get(bag, phasesum.Exact); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Bytes > budget {
			t.Fatalf("request %d: resident %d bytes exceeds the %d budget", i, st.Bytes, budget)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions after %d long-tail requests against a %d-byte budget (stats %+v)", requests, budget, st)
	}
	if st.Bytes > budget {
		t.Fatalf("final resident bytes %d exceed budget %d", st.Bytes, budget)
	}
	if st.Hits == 0 {
		t.Error("hot set never hit; workload generator is broken")
	}
	t.Logf("bounded cache: %d computes, %d hits, %d evictions, %d resident bytes (budget %d)",
		computes.Load(), st.Hits, st.Evictions, st.Bytes, budget)
}

// TestMetricsExposeFeatureCacheEvictions wires a tiny-budget server
// through the real handler and asserts the eviction counter surfaces on
// /metrics under the canonical name.
func TestMetricsExposeFeatureCacheEvictions(t *testing.T) {
	s := newTestServer(t, nil)
	// Swap in a 2 KiB cache so a handful of distinct bags forces eviction.
	s.cache = newStubFeatureCache(func(bag []dataset.Member, _ phasesum.Fidelity) ([]float64, float64, error) {
		return make([]float64, 21), 0.5, nil
	}, true, 2<<10)
	s.metrics.SetFeatureCacheSource(s.cache.Stats)
	h := s.Handler()

	for i := 0; i < 50; i++ {
		body := fmt.Sprintf(`{"a":{"benchmark":"sift","batch":%d},"b":{"benchmark":"surf","batch":%d}}`, i+1, i+1)
		if rr := doJSON(t, h, http.MethodPost, "/v1/predict", body); rr.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, rr.Code, rr.Body)
		}
	}
	if ev := s.cache.Stats().Evictions; ev == 0 {
		t.Fatal("no evictions despite the tiny budget")
	}
	rr := doJSON(t, h, http.MethodGet, "/metrics", "")
	body := rr.Body.String()
	for _, want := range []string{
		"mapc_feature_cache_evictions_total",
		"mapc_feature_cache_bytes",
		"mapc_feature_cache_entries",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "mapc_feature_cache_evictions_total 0\n") {
		t.Error("/metrics reports zero evictions despite forced churn")
	}
}
