package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mapc/internal/dataset"
)

// brownoutServer builds a server with brownout enabled and stubbed
// features: a sift-led bag (brownoutBody) blocks on `block`, so tests
// control in-flight pressure, and any other bag (quickBody) answers
// immediately. Counters record how many times each kind ran.
func brownoutServer(t *testing.T, mut func(*Config)) (s *Server, block chan struct{}, slowN, quickN *atomic.Int64) {
	t.Helper()
	s = newTestServer(t, func(c *Config) {
		c.BrownoutWatermark = 0.5
		c.Workers = 1
		if mut != nil {
			mut(c)
		}
	})
	width := s.cfg.Model.NumFeatures()
	block = make(chan struct{})
	slowN, quickN = new(atomic.Int64), new(atomic.Int64)
	s.featuresFn = func(bag []dataset.Member) ([]float64, float64, bool, error) {
		if bag[0].Benchmark == "sift" {
			slowN.Add(1)
			<-block
			return make([]float64, width), 0.5, false, nil
		}
		quickN.Add(1)
		x := make([]float64, width)
		for i := range x {
			x[i] = 1
		}
		return x, 0.75, false, nil
	}
	return s, block, slowN, quickN
}

// brownoutBody is a bag whose features block in brownoutServer.
func brownoutBody(i int) string {
	return fmt.Sprintf(`{"a":{"benchmark":"sift","batch":%d},"b":{"benchmark":"surf","batch":%d}}`, i+1, i+1)
}

// quickBody is a bag whose features answer at once in brownoutServer.
func quickBody(i int) string {
	return fmt.Sprintf(`{"a":{"benchmark":"knn","batch":%d},"b":{"benchmark":"hog","batch":%d}}`, i+1, i+1)
}

func decodePredict(t *testing.T, rr *httptest.ResponseRecorder) PredictResponse {
	t.Helper()
	var resp PredictResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response body %s: %v", rr.Body, err)
	}
	return resp
}

// TestBrownoutDegradesPastWatermark drives the pool past the watermark
// with blocked simulations and asserts a fresh admission answers at once
// with degraded=true (body and header) — the brownout label.
func TestBrownoutDegradesPastWatermark(t *testing.T) {
	s, block, slowN, quickN := brownoutServer(t, func(c *Config) {
		c.MaxInFlight = 4 // watermark 0.5 -> degrade at 2 in flight
	})
	blocked := true
	defer func() {
		if blocked {
			close(block)
		}
	}()
	h := s.Handler()

	// Two slow exact requests reach the watermark.
	got := make(chan *httptest.ResponseRecorder, 2)
	for i := 0; i < 2; i++ {
		i := i
		go func() { got <- doJSON(t, h, http.MethodPost, "/v1/predict", brownoutBody(i)) }()
	}
	waitFor(t, func() bool { return slowN.Load() == 2 })

	// The next request must brown out, not block: a degraded 200, fast.
	start := time.Now()
	rr := doJSON(t, h, http.MethodPost, "/v1/predict", quickBody(7))
	if rr.Code != http.StatusOK {
		t.Fatalf("browned-out request answered %d: %s", rr.Code, rr.Body)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("degraded answer took %v; it queued behind exact work", elapsed)
	}
	resp := decodePredict(t, rr)
	if !resp.Degraded {
		t.Errorf("response past the watermark has degraded=%v, want true", resp.Degraded)
	}
	if rr.Header().Get(HeaderDegraded) != "1" {
		t.Errorf("%s header = %q, want \"1\"", HeaderDegraded, rr.Header().Get(HeaderDegraded))
	}
	if quickN.Load() != 1 {
		t.Errorf("degraded request computed features %d times, want 1", quickN.Load())
	}
	if n := s.Metrics().degraded.Load(); n != 1 {
		t.Errorf("degraded = %d, want 1", n)
	}

	// /metrics exposes the counter.
	mr := doJSON(t, h, http.MethodGet, "/metrics", "")
	if !strings.Contains(mr.Body.String(), "mapc_degraded_total 1") {
		t.Errorf("/metrics missing mapc_degraded_total 1:\n%s", mr.Body)
	}

	// Release the exact work; both blocked requests complete exact.
	close(block)
	blocked = false
	for i := 0; i < 2; i++ {
		rr := <-got
		if rr.Code != http.StatusOK {
			t.Fatalf("exact request answered %d: %s", rr.Code, rr.Body)
		}
		if resp := decodePredict(t, rr); resp.Degraded {
			t.Error("below-watermark request reported degraded=true")
		}
	}
}

// TestBrownoutShedsWhenPoolFull: brownout only labels, so with it on the
// request after MaxInFlight blocked ones is shed 503 with Retry-After, not
// admitted to run beyond the bound.
func TestBrownoutShedsWhenPoolFull(t *testing.T) {
	s, block, slowN, _ := brownoutServer(t, func(c *Config) {
		c.MaxInFlight = 2
		c.RequestTimeout = 30 * time.Second
	})
	defer close(block)
	h := s.Handler()

	for i := 0; i < 2; i++ {
		i := i
		go func() { doJSON(t, h, http.MethodPost, "/v1/predict", brownoutBody(i)) }()
	}
	waitFor(t, func() bool { return slowN.Load() == 2 })

	rr := doJSON(t, h, http.MethodPost, "/v1/predict", quickBody(9))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("request with the pool full answered %d, want 503: %s", rr.Code, rr.Body)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After")
	}
	if n := s.Metrics().degraded.Load(); n != 0 {
		t.Errorf("degraded = %d, want 0: a shed request is not a brownout answer", n)
	}
}

// TestDeadlineHeaderHonored pins deadline propagation: a tight
// X-Mapc-Deadline answers 504 at the propagated budget, not the server's
// much larger RequestTimeout; garbage and oversized values fall back to
// RequestTimeout.
func TestDeadlineHeaderHonored(t *testing.T) {
	s, block, _, _ := brownoutServer(t, func(c *Config) {
		c.RequestTimeout = 30 * time.Second
	})
	defer close(block)
	h := s.Handler()

	start := time.Now()
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(brownoutBody(0)))
	req.Header.Set(HeaderDeadline, "50") // 50ms remaining
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	elapsed := time.Since(start)
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("tight-deadline request answered %d, want 504: %s", rr.Code, rr.Body)
	}
	if elapsed > 5*time.Second {
		t.Errorf("504 took %v; the propagated 50ms deadline was ignored", elapsed)
	}
	if !strings.Contains(rr.Body.String(), "50ms") {
		t.Errorf("504 body %q does not report the propagated deadline", rr.Body)
	}

	// A malformed header must not crash or zero the deadline: the request
	// proceeds under RequestTimeout (a blocking bag would hide whether the
	// deadline was zeroed, so a quick bag is sent instead).
	for _, hdr := range []string{"garbage", "-5", "0"} {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(quickBody(1)))
		req.Header.Set(HeaderDeadline, hdr)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			t.Errorf("deadline header %q: answered %d, want 200 under RequestTimeout", hdr, rr.Code)
		}
	}
}

// TestBrownoutConfigValidation pins New's brownout input checking.
func TestBrownoutConfigValidation(t *testing.T) {
	gen, mod := fixture(t)
	if _, err := New(Config{Model: mod, Generator: gen, BrownoutWatermark: 1.5}); err == nil {
		t.Error("watermark above 1 accepted")
	}
	if _, err := New(Config{Model: mod, Generator: gen, BrownoutWatermark: -0.1}); err == nil {
		t.Error("negative watermark accepted")
	}
	s, err := New(Config{Model: mod, Generator: gen, BrownoutWatermark: 0.5, MaxInFlight: 10})
	if err != nil {
		t.Fatal(err)
	}
	if s.watermark != 5 {
		t.Errorf("watermark = %d, want 5", s.watermark)
	}
	// Disabled by default: zero watermark leaves brownout off.
	s, err = New(Config{Model: mod, Generator: gen})
	if err != nil {
		t.Fatal(err)
	}
	if s.watermark != 0 {
		t.Errorf("zero watermark set a label threshold of %d; brownout must stay opt-in", s.watermark)
	}
}

// TestDegradedAnswerSharesExactEntry: a bag's features are the same at
// every fidelity tier, so a request labelled degraded past the watermark
// for a bag the exact path already cached answers from that entry, in
// either member order. It computes nothing, reports cached, predicts the
// same bits, and leaves one entry that snapshots and peer fill both carry.
func TestDegradedAnswerSharesExactEntry(t *testing.T) {
	for _, order := range [][2]string{{"sift", "surf"}, {"surf", "sift"}} {
		t.Run(order[0]+"-first", func(t *testing.T) {
			// MaxInFlight 2 at watermark 0.5 labels a request admitted
			// while one other is in flight.
			s := newTestServer(t, func(c *Config) {
				c.BrownoutWatermark = 0.5
				c.MaxInFlight = 2
			})
			// A knn-led bag blocks outside the feature cache, holding one
			// slot; every other bag goes through the cache as usual.
			width := s.cfg.Model.NumFeatures()
			block := make(chan struct{})
			var blockedN atomic.Int64
			s.featuresFn = func(bag []dataset.Member) ([]float64, float64, bool, error) {
				if bag[0].Benchmark == "knn" {
					blockedN.Add(1)
					<-block
					return make([]float64, width), 0.5, false, nil
				}
				return s.cachedFeatures(bag)
			}
			h := s.Handler()
			batch := map[string]int{"sift": 20, "surf": 40}
			body := func(a, b string) string {
				return fmt.Sprintf(`{"a":{"benchmark":%q,"batch":%d},"b":{"benchmark":%q,"batch":%d}}`, a, batch[a], b, batch[b])
			}

			rr := doJSON(t, h, http.MethodPost, "/v1/predict", body(order[0], order[1]))
			if rr.Code != http.StatusOK {
				t.Fatalf("exact request answered %d: %s", rr.Code, rr.Body)
			}
			exact := decodePredict(t, rr)

			blocker := make(chan *httptest.ResponseRecorder, 1)
			go func() { blocker <- doJSON(t, h, http.MethodPost, "/v1/predict", quickBody(0)) }()
			waitFor(t, func() bool { return blockedN.Load() == 1 })
			rr = doJSON(t, h, http.MethodPost, "/v1/predict", body(order[1], order[0]))
			close(block)
			if b := <-blocker; b.Code != http.StatusOK {
				t.Fatalf("blocking request answered %d: %s", b.Code, b.Body)
			}
			if rr.Code != http.StatusOK {
				t.Fatalf("degraded request answered %d: %s", rr.Code, rr.Body)
			}
			degraded := decodePredict(t, rr)
			if exact.Degraded || !degraded.Degraded {
				t.Fatalf("degraded flags %v/%v, want false/true", exact.Degraded, degraded.Degraded)
			}

			if m := s.Metrics(); m.cacheMisses.Load() != 1 || m.cacheHits.Load() != 1 {
				t.Errorf("feature cache misses=%d hits=%d, want one compute and one hit",
					m.cacheMisses.Load(), m.cacheHits.Load())
			}
			e, d := exact.Results[0], degraded.Results[0]
			if e.Cached || !d.Cached {
				t.Errorf("cached flags exact=%v degraded=%v, want false/true", e.Cached, d.Cached)
			}
			if math.Float64bits(e.PredictedSec) != math.Float64bits(d.PredictedSec) ||
				math.Float64bits(e.Fairness) != math.Float64bits(d.Fairness) {
				t.Errorf("degraded answer (%v, %v) differs from exact (%v, %v)",
					d.PredictedSec, d.Fairness, e.PredictedSec, e.Fairness)
			}

			key := CanonicalKey(e.Members)
			if snap := s.Snapshot(); len(snap.Entries) != 1 || snap.Entries[0].Key != key {
				t.Errorf("snapshot entries %+v, want the one entry %s", snap.Entries, key)
			}
			if n := s.CacheLen(); n != 1 {
				t.Errorf("cached_bags = %d, want 1", n)
			}
			rr = doJSON(t, h, http.MethodGet, "/v1/cache/entry?key="+url.QueryEscape(key), "")
			if rr.Code != http.StatusOK {
				t.Fatalf("/v1/cache/entry answered %d: %s", rr.Code, rr.Body)
			}
			var entry CacheEntryResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &entry); err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(entry.Fairness) != math.Float64bits(e.Fairness) {
				t.Errorf("peer-fill entry fairness %v, want %v", entry.Fairness, e.Fairness)
			}
		})
	}
}
