package serve

import (
	"net/http"
	"regexp"
	"strconv"
	"testing"

	"mapc/internal/dataset"
)

// metricValue extracts the value of a plain (unlabelled) metric from a
// Prometheus-style exposition.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s missing from exposition:\n%s", name, body)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s value %q: %v", name, m[1], err)
	}
	return v
}

// TestSimCacheMetricsAndMemoParity pins the acceptance criteria for the
// simulation memo on the serving path: /v1/predict answers are identical
// with the memo enabled (the fixture generator runs at the default
// budget) and disabled, and /metrics reports nonzero simcache hits after
// repeated identical requests.
func TestSimCacheMetricsAndMemoParity(t *testing.T) {
	gen, _ := fixture(t)
	s := newTestServer(t, nil)
	h := s.Handler()

	body := `{"a":{"benchmark":"sift","batch":20},"b":{"benchmark":"surf","batch":40}}`
	for i := 0; i < 3; i++ {
		if rr := doJSON(t, h, http.MethodPost, "/v1/predict", body); rr.Code != http.StatusOK {
			t.Fatalf("request %d: code %d body %s", i, rr.Code, rr.Body)
		}
	}

	rr := doJSON(t, h, http.MethodGet, "/metrics", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics code %d", rr.Code)
	}
	exp := rr.Body.String()
	if hits := metricValue(t, exp, "mapc_simcache_hits_total"); hits == 0 {
		t.Errorf("mapc_simcache_hits_total = 0 after repeated predictions; the memo is not wired into serving")
	}
	if misses := metricValue(t, exp, "mapc_simcache_misses_total"); misses == 0 {
		t.Errorf("mapc_simcache_misses_total = 0; cold prefixes were never computed")
	}
	if bytes := metricValue(t, exp, "mapc_simcache_bytes"); bytes <= 0 {
		t.Errorf("mapc_simcache_bytes = %v; no resident entries", bytes)
	}
	metricValue(t, exp, "mapc_simcache_evictions_total") // present, any value

	// Parity: a memo-disabled generator over the same config produces the
	// exact feature vector and fairness the serving (memo-on) generator
	// computed — the bit-identity guarantee observed end to end.
	cfg := gen.Config()
	cfg.SimCacheMB = 0
	coldGen, err := dataset.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := dataset.Member{Benchmark: "sift", Batch: 20}
	b := dataset.Member{Benchmark: "surf", Batch: 40}
	warmX, warmF, err := gen.BagFeatures([]dataset.Member{a, b})
	if err != nil {
		t.Fatal(err)
	}
	coldX, coldF, err := coldGen.BagFeatures([]dataset.Member{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if warmF != coldF {
		t.Errorf("fairness diverges: memo-on %v, memo-off %v", warmF, coldF)
	}
	if len(warmX) != len(coldX) {
		t.Fatalf("feature width diverges: %d vs %d", len(warmX), len(coldX))
	}
	for i := range warmX {
		if warmX[i] != coldX[i] {
			t.Errorf("feature %d diverges: memo-on %v, memo-off %v", i, warmX[i], coldX[i])
		}
	}
}
