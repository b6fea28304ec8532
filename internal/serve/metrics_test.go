package serve

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestHistogramResolvesWarmRequests: warm cache hits take a few hundred
// microseconds, so the histogram must place 300µs in its own doubling
// bucket, (2^-12, 2^-11] s, rather than interpolating inside [0, 1ms].
func TestHistogramResolvesWarmRequests(t *testing.T) {
	h := newLatencyHistogram()
	for i := 0; i < 1000; i++ {
		h.observe(300e-6)
	}
	if q := h.quantile(0.5); q <= 0x1p-12 || q > 0x1p-11 {
		t.Errorf("p50 of 1000 observations of 300µs = %v s, want in (2^-12, 2^-11] s", q)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newLatencyHistogram()
	if q := h.quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile %v", q)
	}
	// 100 observations spread uniformly over (0, 1]s: the median estimate
	// must land near 0.5s and p99 near 1s, within bucket resolution.
	for i := 1; i <= 100; i++ {
		h.observe(float64(i) / 100)
	}
	if q := h.quantile(0.5); math.Abs(q-0.5) > 0.3 {
		t.Errorf("p50 %v far from 0.5", q)
	}
	if q := h.quantile(0.99); math.Abs(q-1.0) > 0.5 {
		t.Errorf("p99 %v far from 1.0", q)
	}
	if h.n != 100 {
		t.Errorf("count %d", h.n)
	}
	if math.Abs(h.sum-50.5) > 1e-9 {
		t.Errorf("sum %v", h.sum)
	}
	// Quantiles are monotone in q.
	prev := 0.0
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		v := h.quantile(q)
		if v < prev {
			t.Errorf("quantile(%v)=%v below quantile at lower q (%v)", q, v, prev)
		}
		prev = v
	}
	// Overflow bucket: an observation beyond the top bound still counts.
	h.observe(1000)
	if h.n != 101 {
		t.Errorf("overflow observation lost (n=%d)", h.n)
	}
}

func TestMetricsWriteTo(t *testing.T) {
	m := NewMetrics()
	m.ObserveRequest(200, 40*time.Millisecond)
	m.ObserveRequest(200, 60*time.Millisecond)
	m.ObserveRequest(400, time.Millisecond)
	m.ObserveOther(200)
	m.CacheHit()
	m.CacheMiss()
	m.CacheMiss()
	m.Predictions(3)
	m.RejectSaturated()
	m.IncInFlight()

	var sb strings.Builder
	if _, err := m.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`mapc_requests_total{code="200"} 3`,
		`mapc_requests_total{code="400"} 1`,
		"mapc_requests_inflight 1",
		"mapc_request_duration_seconds_count 3",
		"mapc_predictions_total 3",
		`mapc_rejected_total{reason="saturated"} 1`,
		"mapc_feature_cache_hits_total 1",
		"mapc_feature_cache_misses_total 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if got := m.CacheHitRate(); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("hit rate %v, want 1/3", got)
	}
	m.DecInFlight()
	if m.InFlight() != 0 {
		t.Errorf("in-flight gauge %d", m.InFlight())
	}
}

// TestMetricsSimCacheDomainBytes pins the per-domain memo residency
// series: one labelled line per domain, sorted by domain, and none
// without a source.
func TestMetricsSimCacheDomainBytes(t *testing.T) {
	m := NewMetrics()
	var sb strings.Builder
	if _, err := m.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "mapc_simcache_domain_bytes") {
		t.Errorf("per-domain series rendered without a source:\n%s", sb.String())
	}

	m.SetSimCacheDomainSource(func() map[string]int64 {
		return map[string]int64{"gpusim/iso": 4096, "cpusim/priv": 123456789}
	})
	sb.Reset()
	if _, err := m.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	priv := strings.Index(out, `mapc_simcache_domain_bytes{domain="cpusim/priv"} 123456789`+"\n")
	iso := strings.Index(out, `mapc_simcache_domain_bytes{domain="gpusim/iso"} 4096`+"\n")
	if priv < 0 || iso < 0 || priv > iso {
		t.Errorf("want both domain lines, cpusim/priv first, in:\n%s", out)
	}
}
