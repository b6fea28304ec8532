package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"mapc/internal/dataset"
	"mapc/internal/phasesum"
)

const predictBody = `{"a":{"benchmark":"sift","batch":20},"b":{"benchmark":"surf","batch":20}}`

// TestPredictTaskPanicReturns500AndProcessSurvives is the acceptance
// check: a panic injected into one measurement task answers HTTP 500,
// increments mapc_serve_panics_total, and the server keeps serving — the
// next (healthy) request succeeds.
func TestPredictTaskPanicReturns500AndProcessSurvives(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()

	var panicOnce sync.Once
	real := s.featuresFn
	s.featuresFn = func(bag []dataset.Member, fid phasesum.Fidelity) ([]float64, float64, bool, error) {
		var fired bool
		panicOnce.Do(func() { fired = true })
		if fired {
			panic(fmt.Sprintf("injected measurement crash for %s", dataset.BagKeyOf(bag)))
		}
		return real(bag, fid)
	}

	rr := doJSON(t, h, http.MethodPost, "/v1/predict", predictBody)
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("panicking bag answered %d, want 500 (body %s)", rr.Code, rr.Body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &er); err != nil {
		t.Fatalf("non-JSON 500 body: %v", err)
	}
	if strings.Contains(er.Error, "goroutine") {
		t.Errorf("stack leaked to the client: %q", er.Error)
	}
	if got := s.Metrics().PanicsTotal(); got != 1 {
		t.Fatalf("mapc_serve_panics_total = %d after one panic, want 1", got)
	}

	// The process is still serving: the same bag now computes cleanly.
	rr = doJSON(t, h, http.MethodPost, "/v1/predict", predictBody)
	if rr.Code != http.StatusOK {
		t.Fatalf("request after recovered panic answered %d: %s", rr.Code, rr.Body)
	}
	if got := s.Metrics().PanicsTotal(); got != 1 {
		t.Errorf("panic counter moved to %d on a healthy request", got)
	}

	// And the counter is exposed under the canonical metric name.
	rr = doJSON(t, h, http.MethodGet, "/metrics", "")
	if !strings.Contains(rr.Body.String(), "mapc_serve_panics_total 1") {
		t.Errorf("/metrics missing mapc_serve_panics_total 1:\n%s", rr.Body)
	}
}

// TestFeatureCachePanicIsNotPoisoned is the singleflight regression: a
// panicking compute must not mark the bag's cache entry done-with-zeroes
// (which would answer nil features forever). The panicking request errors
// once; the retry computes fresh and succeeds.
func TestFeatureCachePanicIsNotPoisoned(t *testing.T) {
	gen, _ := fixture(t)
	c := newFeatureCache(gen, 0)
	calls := 0
	c.compute = func(bag []dataset.Member, _ phasesum.Fidelity) ([]float64, float64, error) {
		calls++
		if calls == 1 {
			panic("first compute dies")
		}
		return []float64{1, 2, 3}, 0.5, nil
	}
	bag := []dataset.Member{
		{Benchmark: "sift", Batch: 20},
		{Benchmark: "surf", Batch: 20},
	}

	_, _, _, err := c.get(bag, phasesum.Exact)
	var rp *recoveredPanic
	if !errors.As(err, &rp) {
		t.Fatalf("first get returned %v, want *recoveredPanic", err)
	}
	if got := fmt.Sprint(rp.Value); got != "first compute dies" {
		t.Errorf("panic value %q", got)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("panicked entry still cached (Len=%d): cache poisoned", n)
	}

	x, fairness, hit, err := c.get(bag, phasesum.Exact)
	if err != nil {
		t.Fatalf("retry after panic failed: %v", err)
	}
	if hit {
		t.Error("retry reported a cache hit; it must have computed fresh")
	}
	if len(x) != 3 || fairness != 0.5 {
		t.Fatalf("retry got x=%v fairness=%v", x, fairness)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (once panicking, once fresh)", calls)
	}

	// Third get is a plain hit — the healthy entry stays cached.
	if _, _, hit, err := c.get(bag, phasesum.Exact); err != nil || !hit {
		t.Fatalf("third get hit=%v err=%v, want cached success", hit, err)
	}
	if calls != 2 {
		t.Fatalf("cached hit recomputed (calls=%d)", calls)
	}
}

// TestFullHandlerCachePanicComputesFreshOnRetry runs the poisoning
// regression end-to-end through the HTTP handler and the real shared
// cache: a panicking bag returns 500 once, and the retry serves a fresh
// (uncached) successful prediction.
func TestFullHandlerCachePanicComputesFreshOnRetry(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()

	realCompute := s.cache.compute
	calls := 0
	s.cache.compute = func(bag []dataset.Member, fid phasesum.Fidelity) ([]float64, float64, error) {
		calls++
		if calls == 1 {
			panic("cache compute crash")
		}
		return realCompute(bag, fid)
	}

	rr := doJSON(t, h, http.MethodPost, "/v1/predict", predictBody)
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("panicking compute answered %d: %s", rr.Code, rr.Body)
	}
	if got := s.Metrics().PanicsTotal(); got != 1 {
		t.Fatalf("panics total = %d, want 1", got)
	}
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("poisoned entry cached after panic (Len=%d)", n)
	}

	rr = doJSON(t, h, http.MethodPost, "/v1/predict", predictBody)
	if rr.Code != http.StatusOK {
		t.Fatalf("retry answered %d: %s", rr.Code, rr.Body)
	}
	var resp PredictResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Cached {
		t.Fatalf("retry result %+v, want one fresh (uncached) prediction", resp.Results)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want exactly 2", calls)
	}
}

// TestRecoverPanicsMiddleware covers the outer containment layer for
// panics outside the worker pool (decoding, handlers, metrics rendering):
// 500 JSON, counter bumped, no crash.
func TestRecoverPanicsMiddleware(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	}))
	rr := doJSON(t, h, http.MethodGet, "/anything", "")
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("middleware answered %d, want 500", rr.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &er); err != nil {
		t.Fatalf("non-JSON recovery body %q: %v", rr.Body, err)
	}
	if got := s.Metrics().PanicsTotal(); got != 1 {
		t.Errorf("panics total = %d, want 1", got)
	}

	// A panic after the response has started cannot rewrite the status;
	// the middleware must still swallow it and count it.
	h = s.recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		panic("late panic")
	}))
	rr = doJSON(t, h, http.MethodGet, "/late", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("late-panic status rewritten to %d", rr.Code)
	}
	if got := s.Metrics().PanicsTotal(); got != 2 {
		t.Errorf("panics total = %d, want 2", got)
	}
}
