package serve

import (
	"net/http"
	"strings"
	"testing"

	"mapc/internal/dataset"
	"mapc/internal/phasesum"
)

// TestFidelityMetricsExposition: /metrics labels the replica's configured
// tier and exposes no co-run counters. A bag's served features need no
// GPU co-run, the one co-run whose answer depends on the tier, so serving
// a fresh bag at the fast tier runs no analytic co-run to count.
func TestFidelityMetricsExposition(t *testing.T) {
	_, mod := fixture(t)
	cfg := dataset.DefaultConfig()
	cfg.Benchmarks = []string{"sift", "surf"}
	cfg.BatchSizes = []int{20, 40}
	cfg.MixedPairs = 0
	cfg.Fidelity = phasesum.Fast
	gen, err := dataset.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Model: mod, Generator: gen, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	body := `{"a":{"benchmark":"sift","batch":20},"b":{"benchmark":"surf","batch":40}}`
	if rr := doJSON(t, h, http.MethodPost, "/v1/predict", body); rr.Code != http.StatusOK {
		t.Fatalf("predict code %d body %s", rr.Code, rr.Body)
	}
	if st := gen.FidelityStats(); st.AnalyticRuns != 0 {
		t.Errorf("serving a bag ran %d analytic co-runs, want none", st.AnalyticRuns)
	}

	rr := doJSON(t, h, http.MethodGet, "/metrics", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics code %d", rr.Code)
	}
	exp := rr.Body.String()
	if !strings.Contains(exp, `mapc_fidelity_info{tier="fast"} 1`) {
		t.Errorf("fidelity tier label missing:\n%s", exp)
	}
	for _, gone := range []string{"mapc_fidelity_runs_total", "mapc_fidelity_low_confidence_total", "mapc_fidelity_fallbacks_total"} {
		if strings.Contains(exp, gone) {
			t.Errorf("co-run counter %s still exposed:\n%s", gone, exp)
		}
	}
}

// TestFidelityMetricsDefaultExact: the package fixture's generator runs at
// the zero-value (exact) tier and the exposition says so.
func TestFidelityMetricsDefaultExact(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	body := `{"a":{"benchmark":"sift","batch":20},"b":{"benchmark":"surf","batch":20}}`
	if rr := doJSON(t, h, http.MethodPost, "/v1/predict", body); rr.Code != http.StatusOK {
		t.Fatalf("predict code %d body %s", rr.Code, rr.Body)
	}
	rr := doJSON(t, h, http.MethodGet, "/metrics", "")
	exp := rr.Body.String()
	if !strings.Contains(exp, `mapc_fidelity_info{tier="exact"} 1`) {
		t.Errorf("default tier label missing:\n%s", exp)
	}
	// A bare Metrics, with no replica tier set, renders exact too.
	var buf strings.Builder
	if _, err := NewMetrics().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `mapc_fidelity_info{tier="exact"} 1`) {
		t.Errorf("zero-value Metrics tier label missing:\n%s", buf.String())
	}
}
