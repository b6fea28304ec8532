package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mapc/internal/dataset"
	"mapc/internal/phasesum"
)

// brownoutServer builds a server with brownout enabled and both fidelity
// tiers stubbed: exact computes block on `block` (so tests control
// in-flight pressure), fast (degraded) computes answer immediately.
// Counters record how many times each tier ran.
func brownoutServer(t *testing.T, mut func(*Config)) (s *Server, block chan struct{}, exactN, fastN *atomic.Int64) {
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
	exactN, fastN = new(atomic.Int64), new(atomic.Int64)
	s.featuresFn = func(bag []dataset.Member, fid phasesum.Fidelity) ([]float64, float64, bool, error) {
		if fid != phasesum.Fast {
			exactN.Add(1)
			<-block
			return make([]float64, width), 0.5, false, nil
		}
		fastN.Add(1)
		x := make([]float64, width)
		for i := range x {
			x[i] = 1
		}
		return x, 0.75, false, nil
	}
	return s, block, exactN, fastN
}

func brownoutBody(i int) string {
	return fmt.Sprintf(`{"a":{"benchmark":"sift","batch":%d},"b":{"benchmark":"surf","batch":%d}}`, i+1, i+1)
}

func decodePredict(t *testing.T, rr *httptest.ResponseRecorder) PredictResponse {
	t.Helper()
	var resp PredictResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response body %s: %v", rr.Body, err)
	}
	return resp
}

// TestBrownoutDegradesPastWatermark drives the exact pool past the
// watermark with blocked simulations and asserts fresh admissions answer
// from the fast tier with degraded=true (body and header) instead of
// queueing behind the stuck exact work — the tentpole brownout behavior.
func TestBrownoutDegradesPastWatermark(t *testing.T) {
	s, block, exactN, fastN := brownoutServer(t, func(c *Config) {
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
	waitFor(t, func() bool { return exactN.Load() == 2 })

	// The next request must brown out, not block: a degraded 200, fast.
	start := time.Now()
	rr := doJSON(t, h, http.MethodPost, "/v1/predict", brownoutBody(7))
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
	if fastN.Load() == 0 {
		t.Error("degraded request never reached the fast fidelity path")
	}
	if n := s.Metrics().DegradedTotal(); n != 1 {
		t.Errorf("DegradedTotal = %d, want 1", n)
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

// TestForcedDegradedHeader pins the client opt-in: X-Mapc-Degraded-OK on
// an idle server answers degraded immediately — the router forwards the
// header so a latency-sensitive caller can trade fidelity for speed even
// without pressure.
func TestForcedDegradedHeader(t *testing.T) {
	s, block, exactN, fastN := brownoutServer(t, nil)
	defer close(block)
	h := s.Handler()

	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(brownoutBody(0)))
	req.Header.Set(HeaderDegradedOK, "1")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("forced-degraded request answered %d: %s", rr.Code, rr.Body)
	}
	if resp := decodePredict(t, rr); !resp.Degraded {
		t.Error("forced-degraded response has degraded=false")
	}
	if exactN.Load() != 0 || fastN.Load() != 1 {
		t.Errorf("exact=%d fast=%d computes, want 0/1", exactN.Load(), fastN.Load())
	}
}

// TestBrownoutShedsOnlyWhenBothPoolsFull fills the exact pool with blocked
// work and the degraded pool with forced-degraded blocked work, then
// asserts the next request sheds 503 naming both pools — and that below
// that point degraded admissions kept succeeding.
func TestBrownoutShedsOnlyWhenBothPoolsFull(t *testing.T) {
	s, block, exactN, _ := brownoutServer(t, func(c *Config) {
		c.MaxInFlight = 2
		c.MaxDegradedInFlight = 2
		c.RequestTimeout = 30 * time.Second
		// Watermark at the full exact pool, so the two plain requests below
		// deterministically land exact and only saturation degrades.
		c.BrownoutWatermark = 1.0
	})
	defer close(block)
	// Degraded path blocks too, so degraded slots stay held.
	width := s.cfg.Model.NumFeatures()
	var fastEntered atomic.Int64
	exact := s.featuresFn
	s.featuresFn = func(bag []dataset.Member, fid phasesum.Fidelity) ([]float64, float64, bool, error) {
		if fid != phasesum.Fast {
			return exact(bag, fid)
		}
		fastEntered.Add(1)
		<-block
		return make([]float64, width), 0.75, false, nil
	}
	h := s.Handler()

	// 2 exact + 2 degraded-pool + 2 degraded-overflow-into-exact? No:
	// exact pool (2) is taken first by the two plain requests; then forced
	// degraded requests take the 2 degraded slots; the degraded overflow
	// path would take exact slots but they are full. So 4 blocked total
	// fills both pools.
	for i := 0; i < 2; i++ {
		i := i
		go func() { doJSON(t, h, http.MethodPost, "/v1/predict", brownoutBody(i)) }()
	}
	waitFor(t, func() bool { return exactN.Load() == 2 })
	for i := 2; i < 4; i++ {
		i := i
		go func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(brownoutBody(i)))
			req.Header.Set(HeaderDegradedOK, "1")
			h.ServeHTTP(httptest.NewRecorder(), req)
		}()
	}
	waitFor(t, func() bool { return fastEntered.Load() == 2 })

	rr := doJSON(t, h, http.MethodPost, "/v1/predict", brownoutBody(9))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("request with both pools full answered %d, want 503: %s", rr.Code, rr.Body)
	}
	if body := rr.Body.String(); !strings.Contains(body, "degraded") {
		t.Errorf("503 body %q does not mention the degraded pool", body)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After")
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
	// proceeds under RequestTimeout (it blocks, so cancel via deadline is
	// not observable here — instead verify a valid fast request works).
	for _, hdr := range []string{"garbage", "-5", "0"} {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(brownoutBody(1)))
		req.Header.Set(HeaderDeadline, hdr)
		req.Header.Set(HeaderDegradedOK, "1") // degraded path answers instantly
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
	if _, err := New(Config{Model: mod, Generator: gen, MaxDegradedInFlight: -1}); err == nil {
		t.Error("negative degraded bound accepted")
	}
	s, err := New(Config{Model: mod, Generator: gen, BrownoutWatermark: 0.5, MaxInFlight: 10})
	if err != nil {
		t.Fatal(err)
	}
	if s.watermark != 5 {
		t.Errorf("watermark = %d, want 5", s.watermark)
	}
	if cap(s.degradedSlots) != DefaultDegradedMultiplier*10 {
		t.Errorf("degraded pool cap = %d, want %d", cap(s.degradedSlots), DefaultDegradedMultiplier*10)
	}
	// Disabled by default: zero watermark leaves brownout off.
	s, err = New(Config{Model: mod, Generator: gen})
	if err != nil {
		t.Fatal(err)
	}
	if s.degradedSlots != nil {
		t.Error("zero watermark enabled brownout; it must stay opt-in")
	}
}

// TestDegradedCacheNamespaceIsolation pins the cache split: the same bag
// served exact then degraded computes once per tier (no cross-tier
// answers), peek reads only the exact tier, and snapshot entries carry
// only the exact tier.
func TestDegradedCacheNamespaceIsolation(t *testing.T) {
	var exactN, fastN atomic.Int64
	c := newStubFeatureCache(func(bag []dataset.Member, fid phasesum.Fidelity) ([]float64, float64, error) {
		if fid == phasesum.Fast {
			fastN.Add(1)
			return []float64{9, 9, 9}, 0.9, nil
		}
		exactN.Add(1)
		return []float64{1, 2, 3}, 0.5, nil
	}, true, 1<<20)
	bag := []dataset.Member{{Benchmark: "sift", Batch: 20}, {Benchmark: "surf", Batch: 20}}
	key, _ := c.key(bag)

	x, _, hit, err := c.get(bag, phasesum.Fast)
	if err != nil || hit || x[0] != 9 {
		t.Fatalf("degraded get: x=%v hit=%v err=%v", x, hit, err)
	}
	// Only the fast entry is resident: the exact key must not find it.
	if fv, ok := c.peek(key); ok {
		t.Fatalf("peek on the exact key returned the fast entry %v", fv.x)
	}
	x, _, hit, err = c.get(bag, phasesum.Exact)
	if err != nil || hit || x[0] != 1 {
		t.Fatalf("exact get answered x=%v hit=%v err=%v; it must not reuse the fast entry", x, hit, err)
	}
	if exactN.Load() != 1 || fastN.Load() != 1 {
		t.Fatalf("computes exact=%d fast=%d, want 1/1", exactN.Load(), fastN.Load())
	}
	// Second round hits each tier's own entry.
	if _, _, hit, _ := c.get(bag, phasesum.Exact); !hit {
		t.Error("exact entry not cached")
	}
	if _, _, hit, _ := c.get(bag, phasesum.Fast); !hit {
		t.Error("degraded entry not cached")
	}
	if exactN.Load() != 1 || fastN.Load() != 1 {
		t.Errorf("cache hit recomputed: exact=%d fast=%d", exactN.Load(), fastN.Load())
	}
	// With both tiers resident, peek still answers from the exact tier.
	if fv, ok := c.peek(key); !ok || fv.x[0] != 1 {
		t.Errorf("peek on the exact key: ok=%v entry=%v, want the exact entry", ok, fv)
	}
	// Snapshots must exclude the degraded namespace.
	entries := c.entries()
	if len(entries) != 1 {
		t.Fatalf("%d snapshot entries, want 1 (exact only)", len(entries))
	}
	if entries[0].X[0] != 1 {
		t.Errorf("snapshot entry carries degraded features %v", entries[0].X)
	}
}
