package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mapc/internal/core"
	"mapc/internal/dataset"
	"mapc/internal/phasesum"
)

var (
	fixOnce sync.Once
	fixGen  *dataset.Generator
	fixMod  *core.Predictor
	fixErr  error
)

// fixture trains a tiny full-scheme model (sift+surf, 2 batch sizes) once
// per package: big enough to serve, fast enough for CI.
func fixture(t *testing.T) (*dataset.Generator, *core.Predictor) {
	t.Helper()
	fixOnce.Do(func() {
		cfg := dataset.DefaultConfig()
		cfg.Benchmarks = []string{"sift", "surf"}
		cfg.BatchSizes = []int{20, 40}
		cfg.MixedPairs = 0
		gen, err := dataset.NewGenerator(cfg)
		if err != nil {
			fixErr = err
			return
		}
		corpus, err := gen.Generate()
		if err != nil {
			fixErr = err
			return
		}
		fixMod, fixErr = core.Train(corpus, core.SchemeFull, core.DefaultTreeParams())
		fixGen = gen
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixGen, fixMod
}

func newTestServer(t *testing.T, mut func(*Config)) *Server {
	t.Helper()
	gen, mod := fixture(t)
	cfg := Config{Model: mod, Generator: gen, Workers: 2}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func doJSON(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func TestNewValidation(t *testing.T) {
	gen, mod := fixture(t)
	if _, err := New(Config{Generator: gen}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := New(Config{Model: mod}); err == nil {
		t.Error("nil generator accepted")
	}
	s, err := New(Config{Model: mod, Generator: gen})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.MaxInFlight != DefaultMaxInFlight || s.cfg.MaxBatch != DefaultMaxBatch ||
		s.cfg.RequestTimeout != DefaultRequestTimeout {
		t.Errorf("zero-value defaults not applied: %+v", s.cfg)
	}
}

func TestPredictHandlerTable(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxBatch = 2 })
	h := s.Handler()
	bag := func(a string, ab int, b string, bb int) string {
		return fmt.Sprintf(`{"a":{"benchmark":%q,"batch":%d},"b":{"benchmark":%q,"batch":%d}}`, a, ab, b, bb)
	}
	cases := []struct {
		name       string
		method     string
		body       string
		wantCode   int
		wantSubstr string
	}{
		{"get rejected", http.MethodGet, "", http.StatusMethodNotAllowed, "POST"},
		{"invalid json", http.MethodPost, `{`, http.StatusBadRequest, "decoding"},
		{"unknown field", http.MethodPost, `{"bagz":[]}`, http.StatusBadRequest, "unknown field"},
		{"no bags", http.MethodPost, `{}`, http.StatusBadRequest, "no bags"},
		{"half a bag", http.MethodPost, `{"a":{"benchmark":"sift","batch":20}}`, http.StatusBadRequest, "both"},
		{"unknown benchmark", http.MethodPost, bag("nosuch", 20, "surf", 20), http.StatusBadRequest, "bag 0"},
		{"empty benchmark", http.MethodPost, bag("", 20, "surf", 20), http.StatusBadRequest, "empty benchmark"},
		{"zero batch", http.MethodPost, bag("sift", 0, "surf", 20), http.StatusBadRequest, "non-positive batch"},
		{"negative batch", http.MethodPost, bag("sift", 20, "surf", -4), http.StatusBadRequest, "non-positive batch"},
		{"batch past MaxBatch", http.MethodPost, bag("sift", 1<<20+1, "surf", 20), http.StatusBadRequest, "exceeds the limit of 1048576 images"},
		{"batch 2^50", http.MethodPost, bag("sift", 20, "surf", 1<<50), http.StatusBadRequest, "exceeds the limit of 1048576 images"},
		{"batch 2^62", http.MethodPost, bag("sift", 1<<62, "surf", 20), http.StatusBadRequest, "exceeds the limit of 1048576 images"},
		{"oversized batch list", http.MethodPost,
			fmt.Sprintf(`{"bags":[%s,%s,%s]}`, bag("sift", 20, "surf", 20), bag("sift", 20, "surf", 40), bag("sift", 40, "surf", 40)),
			http.StatusBadRequest, "exceeds the limit of 2"},
		{"ok single", http.MethodPost, bag("sift", 20, "surf", 20), http.StatusOK, "predicted_gpu_bag_time_sec"},
		{"ok batch", http.MethodPost,
			fmt.Sprintf(`{"bags":[%s,%s]}`, bag("sift", 20, "surf", 20), bag("sift", 20, "sift", 20)),
			http.StatusOK, "predicted_gpu_bag_time_sec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := doJSON(t, h, tc.method, "/v1/predict", tc.body)
			if rr.Code != tc.wantCode {
				t.Fatalf("code %d, want %d; body %s", rr.Code, tc.wantCode, rr.Body)
			}
			if !strings.Contains(rr.Body.String(), tc.wantSubstr) {
				t.Errorf("body %q does not contain %q", rr.Body, tc.wantSubstr)
			}
		})
	}
}

// TestPredictParityAndCache proves the served value is exactly what the
// offline predict path (mapc-predict: Generator.BagFeatures → PredictRaw)
// computes, and that a repeated bag is answered from the feature cache.
func TestPredictParityAndCache(t *testing.T) {
	gen, mod := fixture(t)
	s := newTestServer(t, nil)
	h := s.Handler()

	a := dataset.Member{Benchmark: "sift", Batch: 20}
	b := dataset.Member{Benchmark: "surf", Batch: 20}
	x, fairness, err := gen.BagFeatures([]dataset.Member{a, b})
	if err != nil {
		t.Fatal(err)
	}
	want, err := mod.PredictRaw(x)
	if err != nil {
		t.Fatal(err)
	}

	body := `{"a":{"benchmark":"sift","batch":20},"b":{"benchmark":"surf","batch":20}}`
	var lastCached bool
	for i := 0; i < 2; i++ {
		rr := doJSON(t, h, http.MethodPost, "/v1/predict", body)
		if rr.Code != http.StatusOK {
			t.Fatalf("request %d: code %d body %s", i, rr.Code, rr.Body)
		}
		var resp PredictResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.ModelScheme != "full" {
			t.Errorf("model_scheme %q", resp.ModelScheme)
		}
		if len(resp.Results) != 1 {
			t.Fatalf("%d results", len(resp.Results))
		}
		got := resp.Results[0]
		if got.PredictedSec != want {
			t.Errorf("request %d: served %v, offline path computed %v", i, got.PredictedSec, want)
		}
		if got.Fairness != fairness {
			t.Errorf("request %d: fairness %v, want %v", i, got.Fairness, fairness)
		}
		lastCached = got.Cached
	}
	if !lastCached {
		t.Error("second identical request was not served from the feature cache")
	}
	if s.Metrics().CacheHitRate() == 0 {
		t.Error("cache hit rate still zero after a repeated bag")
	}
	// Reversed member order hits the same canonical cache entry.
	rev := `{"a":{"benchmark":"surf","batch":20},"b":{"benchmark":"sift","batch":20}}`
	rr := doJSON(t, h, http.MethodPost, "/v1/predict", rev)
	var resp PredictResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Results[0].Cached || resp.Results[0].PredictedSec != want {
		t.Errorf("reversed bag: cached=%v pred=%v, want cached hit of %v",
			resp.Results[0].Cached, resp.Results[0].PredictedSec, want)
	}
}

func TestPredictTimeout(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.RequestTimeout = 30 * time.Millisecond })
	s.featuresFn = func(bag []dataset.Member, _ phasesum.Fidelity) ([]float64, float64, bool, error) {
		time.Sleep(500 * time.Millisecond)
		return nil, 0, false, context.DeadlineExceeded
	}
	rr := doJSON(t, s.Handler(), http.MethodPost, "/v1/predict",
		`{"a":{"benchmark":"sift","batch":20},"b":{"benchmark":"surf","batch":20}}`)
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("code %d, want 504; body %s", rr.Code, rr.Body)
	}
	if !strings.Contains(rr.Body.String(), "deadline") {
		t.Errorf("body %q does not mention the deadline", rr.Body)
	}
}

func TestPredictSaturation(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxInFlight = 1 })
	release := make(chan struct{})
	s.featuresFn = func(bag []dataset.Member, _ phasesum.Fidelity) ([]float64, float64, bool, error) {
		<-release
		return nil, 0, false, fmt.Errorf("released")
	}
	h := s.Handler()
	body := `{"a":{"benchmark":"sift","batch":20},"b":{"benchmark":"surf","batch":20}}`

	firstDone := make(chan int, 1)
	go func() {
		rr := doJSON(t, h, http.MethodPost, "/v1/predict", body)
		firstDone <- rr.Code
	}()
	waitFor(t, func() bool { return s.Metrics().InFlight() == 1 })

	rr := doJSON(t, h, http.MethodPost, "/v1/predict", body)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated request got %d, want 503; body %s", rr.Code, rr.Body)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	close(release)
	if code := <-firstDone; code != http.StatusInternalServerError {
		t.Errorf("first request finished with %d", code)
	}
	if s.Metrics().InFlight() != 0 {
		t.Errorf("in-flight gauge %d after drain", s.Metrics().InFlight())
	}
}

// TestShutdownDrainsInFlight starts a real listener, parks a request inside
// the handler, shuts the server down, and asserts the parked request still
// completes with 200 while new connections are refused.
func TestShutdownDrainsInFlight(t *testing.T) {
	gen, mod := fixture(t)
	s := newTestServer(t, nil)
	inHandler := make(chan struct{}, 1)
	release := make(chan struct{})
	s.featuresFn = func(bag []dataset.Member, _ phasesum.Fidelity) ([]float64, float64, bool, error) {
		inHandler <- struct{}{}
		<-release
		// Real features so the response is a genuine 200.
		x, fairness, err := gen.BagFeatures(bag)
		return x, fairness, false, err
	}
	_ = mod

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/predict", "application/json",
			strings.NewReader(`{"a":{"benchmark":"sift","batch":20},"b":{"benchmark":"surf","batch":20}}`))
		if err != nil {
			reqDone <- -1
			return
		}
		defer resp.Body.Close()
		reqDone <- resp.StatusCode
	}()
	<-inHandler // the request is inside the handler

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- s.Shutdown(ctx)
	}()

	// The listener closes promptly; in-flight work keeps running.
	waitFor(t, func() bool {
		_, err := net.DialTimeout("tcp", ln.Addr().String(), 100*time.Millisecond)
		return err != nil
	})
	select {
	case code := <-reqDone:
		t.Fatalf("in-flight request finished with %d before release; shutdown did not wait", code)
	default:
	}

	close(release)
	if code := <-reqDone; code != http.StatusOK {
		t.Errorf("drained request finished with %d, want 200", code)
	}
	if err := <-shutDone; err != nil {
		t.Errorf("shutdown error: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

func TestHealthzAndMetricsEndpoints(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()

	rr := doJSON(t, h, http.MethodGet, "/healthz", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz code %d", rr.Code)
	}
	var hr HealthResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || hr.ModelScheme != "full" || hr.ModelFeatures != 21 || hr.TrainedOnPoints == 0 {
		t.Errorf("healthz %+v", hr)
	}
	if rr := doJSON(t, h, http.MethodPost, "/healthz", "{}"); rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz got %d", rr.Code)
	}

	// One served prediction, then metrics must be non-empty and carry the
	// request + cache series.
	doJSON(t, h, http.MethodPost, "/v1/predict",
		`{"a":{"benchmark":"sift","batch":20},"b":{"benchmark":"sift","batch":20}}`)
	rr = doJSON(t, h, http.MethodGet, "/metrics", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("metrics code %d", rr.Code)
	}
	body := rr.Body.String()
	for _, want := range []string{
		`mapc_requests_total{code="200"}`,
		"mapc_requests_inflight 0",
		`mapc_request_duration_seconds{quantile="0.5"}`,
		"mapc_request_duration_seconds_count",
		"mapc_predictions_total",
		"mapc_feature_cache_misses_total",
		"mapc_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
	if rr := doJSON(t, h, http.MethodPost, "/metrics", "{}"); rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics got %d", rr.Code)
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}
