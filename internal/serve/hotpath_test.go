package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// hitBody is a pair already published in the feature cache once
// warmHit has run: every request below is a cache hit.
const hitBody = `{"a":{"benchmark":"sift","batch":20},"b":{"benchmark":"surf","batch":40}}`

// warmHit returns the handler of a fixture server whose feature cache
// holds hitBody's bag.
func warmHit(tb testing.TB) http.Handler {
	tb.Helper()
	h := newTestServer(tb, nil).Handler()
	if rr := predictOnce(h); rr.Code != http.StatusOK {
		tb.Fatalf("warm-up request: code %d body %s", rr.Code, rr.Body)
	}
	return h
}

func predictOnce(h http.Handler) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(hitBody))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// BenchmarkPredictHit times one cache-hit /v1/predict through the full
// handler: decode, validation, admission, feature-cache hit, predict and
// the indented JSON encoding.
func BenchmarkPredictHit(b *testing.B) {
	h := warmHit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rr := predictOnce(h); rr.Code != http.StatusOK {
			b.Fatalf("code %d body %s", rr.Code, rr.Body)
		}
	}
}

// maxHitAllocs bounds the objects one cache-hit request allocates,
// request and recorder construction included: 63 on the sift/surf pair,
// against 125 when validating each member built all nine vision
// benchmarks, so a per-request registry rebuild fails the bound.
const maxHitAllocs = 85

func TestPredictHitAllocs(t *testing.T) {
	h := warmHit(t)
	allocs := testing.AllocsPerRun(200, func() {
		if rr := predictOnce(h); rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `"cached": true`) {
			t.Fatalf("not a cache hit: code %d body %s", rr.Code, rr.Body)
		}
	})
	t.Logf("%.0f allocs per cache-hit request", allocs)
	if allocs > maxHitAllocs {
		t.Errorf("%.0f allocs per cache-hit request, want at most %d", allocs, maxHitAllocs)
	}
}
