package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mapc/internal/dataset"
	"mapc/internal/simcache"
)

// Metrics is the service's stdlib-only instrumentation: request counters by
// status code, a latency histogram with quantile estimates, an in-flight
// gauge, and the shared feature cache's hit/miss counters. Everything is
// safe for concurrent use; rendering is a Prometheus-style text exposition
// so standard scrapers parse it unchanged.
type Metrics struct {
	start time.Time

	mu       sync.Mutex
	byCode   map[int]int64 // requests by HTTP status
	latency  histogram     // /v1/predict end-to-end seconds
	inFlight atomic.Int64

	predictions atomic.Int64 // bags predicted (a batched request counts each bag)
	rejected    struct {     // why requests were turned away
		saturated  atomic.Int64 // in-flight limiter full → 503
		timeout    atomic.Int64 // deadline exceeded → 504
		validation atomic.Int64 // malformed request → 4xx
	}
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	// degraded counts brownout answers (served from the fast fidelity
	// tier); degradedInFlight gauges currently-admitted degraded requests.
	degraded         atomic.Int64
	degradedInFlight atomic.Int64

	// peerFill counts miss-path consultations of sibling replicas: hits
	// skipped a local simulation entirely, misses fell through to it.
	peerFillHits   atomic.Int64
	peerFillMisses atomic.Int64

	// panics counts recovered request panics (middleware + measurement
	// pool): each one answered 500 while the process kept serving.
	panics atomic.Int64

	// simStats snapshots the generator's simulation-memo counters
	// (internal/simcache) at exposition time; nil until
	// SetSimCacheSource installs one, in which case zeros are rendered.
	simStats func() simcache.Stats

	// simDomains splits the memo's resident bytes by key domain at
	// exposition time; nil renders no per-domain series.
	simDomains func() map[string]int64

	// featStats snapshots the bounded feature cache's LRU counters
	// (evictions, resident bytes/entries); nil renders zeros.
	featStats func() simcache.Stats

	// fidelityStats snapshots the generator's fidelity-tier counters
	// (analytic and low-confidence co-runs, fast-tier exact fallbacks,
	// exact co-runs); nil
	// renders zeros with an "exact" tier label.
	fidelityStats func() dataset.FidelityStats
}

// NewMetrics returns a zeroed metrics set with the clock started.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now(), byCode: map[int]int64{}, latency: newLatencyHistogram()}
}

// ObserveRequest records one finished /v1/predict request.
func (m *Metrics) ObserveRequest(code int, d time.Duration) {
	m.mu.Lock()
	m.byCode[code]++
	m.latency.observe(d.Seconds())
	m.mu.Unlock()
}

// ObserveOther records a finished non-predict request (healthz, metrics).
func (m *Metrics) ObserveOther(code int) {
	m.mu.Lock()
	m.byCode[code]++
	m.mu.Unlock()
}

// histogram is a fixed-bucket latency histogram. Bounds are upper limits in
// seconds; counts[i] is the number of observations <= bounds[i], with a
// final overflow bucket. Quantiles are estimated by linear interpolation
// inside the bucket containing the target rank — the same estimate
// Prometheus's histogram_quantile computes server-side.
type histogram struct {
	bounds []float64
	counts []int64
	sum    float64
	n      int64
}

// newLatencyHistogram covers 2^-17 s (~7.6µs) to 64 s in doublings: a
// warm cache hit (a few hundred µs) resolves to within a factor of two,
// and cold multi-simulation requests land in the top buckets.
func newLatencyHistogram() histogram {
	var bounds []float64
	for b := 0x1p-17; b <= 64; b *= 2 {
		bounds = append(bounds, b)
	}
	return histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
}

// quantile estimates the q-quantile (0 < q < 1) of the observations, or 0
// when empty.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum int64
	lo := 0.0
	for i, c := range h.counts {
		hi := lo
		if i < len(h.bounds) {
			hi = h.bounds[i]
		} else {
			hi = lo * 2 // overflow bucket: extrapolate one doubling
		}
		if float64(cum+c) >= rank {
			if c == 0 {
				return hi
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += c
		lo = hi
	}
	return lo
}

// CacheHit / CacheMiss record feature-cache outcomes.
func (m *Metrics) CacheHit()  { m.cacheHits.Add(1) }
func (m *Metrics) CacheMiss() { m.cacheMisses.Add(1) }

// Predictions adds n served bag predictions.
func (m *Metrics) Predictions(n int) { m.predictions.Add(int64(n)) }

// RejectSaturated / RejectTimeout / RejectValidation count refusals.
func (m *Metrics) RejectSaturated()  { m.rejected.saturated.Add(1) }
func (m *Metrics) RejectTimeout()    { m.rejected.timeout.Add(1) }
func (m *Metrics) RejectValidation() { m.rejected.validation.Add(1) }

// Degraded records one brownout answer; the gauge pair tracks admitted
// degraded requests in flight.
func (m *Metrics) Degraded()            { m.degraded.Add(1) }
func (m *Metrics) IncDegradedInFlight() { m.degradedInFlight.Add(1) }
func (m *Metrics) DecDegradedInFlight() { m.degradedInFlight.Add(-1) }

// SetSimCacheSource installs the snapshot function behind the
// mapc_simcache_* metrics (typically dataset.Generator.SimCacheStats).
// Call before serving begins; the source itself must be concurrency-safe.
func (m *Metrics) SetSimCacheSource(src func() simcache.Stats) { m.simStats = src }

// SetSimCacheDomainSource installs the snapshot function behind
// mapc_simcache_domain_bytes (typically
// dataset.Generator.SimCacheDomainBytes). Call before serving begins.
func (m *Metrics) SetSimCacheDomainSource(src func() map[string]int64) { m.simDomains = src }

// SetFeatureCacheSource installs the snapshot function behind the
// feature-cache eviction/residency metrics (featureCache.Stats). Call
// before serving begins.
func (m *Metrics) SetFeatureCacheSource(src func() simcache.Stats) { m.featStats = src }

// SetFidelitySource installs the snapshot function behind the
// mapc_fidelity_* metrics (typically dataset.Generator.FidelityStats).
// Call before serving begins; the source itself must be concurrency-safe.
func (m *Metrics) SetFidelitySource(src func() dataset.FidelityStats) { m.fidelityStats = src }

// PeerFillHit / PeerFillMiss record peer-fill outcomes on the miss path.
func (m *Metrics) PeerFillHit()  { m.peerFillHits.Add(1) }
func (m *Metrics) PeerFillMiss() { m.peerFillMisses.Add(1) }

// Panic records one recovered request panic (the request got a 500; the
// process survived).
func (m *Metrics) Panic() { m.panics.Add(1) }

// IncInFlight / DecInFlight move the in-flight gauge.
func (m *Metrics) IncInFlight() { m.inFlight.Add(1) }
func (m *Metrics) DecInFlight() { m.inFlight.Add(-1) }

// InFlight returns the current gauge value.
func (m *Metrics) InFlight() int64 { return m.inFlight.Load() }

// CacheHitRate returns hits/(hits+misses), or 0 before any lookup.
func (m *Metrics) CacheHitRate() float64 {
	h, miss := m.cacheHits.Load(), m.cacheMisses.Load()
	if h+miss == 0 {
		return 0
	}
	return float64(h) / float64(h+miss)
}

// WriteTo renders the Prometheus-style text exposition.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	m.mu.Lock()
	codes := make([]int, 0, len(m.byCode))
	for c := range m.byCode {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	type codeCount struct {
		code  int
		count int64
	}
	byCode := make([]codeCount, len(codes))
	for i, c := range codes {
		byCode[i] = codeCount{c, m.byCode[c]}
	}
	q50, q90, q99 := m.latency.quantile(0.5), m.latency.quantile(0.9), m.latency.quantile(0.99)
	latSum, latN := m.latency.sum, m.latency.n
	m.mu.Unlock()

	var total int64
	p := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	for _, cc := range byCode {
		if err := p("mapc_requests_total{code=%q} %d\n", fmt.Sprint(cc.code), cc.count); err != nil {
			return total, err
		}
	}
	hits, misses := m.cacheHits.Load(), m.cacheMisses.Load()
	type metricLine struct {
		name string
		val  any
	}
	lines := []metricLine{
		{"mapc_requests_inflight", m.inFlight.Load()},
		{`mapc_request_duration_seconds{quantile="0.5"}`, q50},
		{`mapc_request_duration_seconds{quantile="0.9"}`, q90},
		{`mapc_request_duration_seconds{quantile="0.99"}`, q99},
		{"mapc_request_duration_seconds_sum", latSum},
		{"mapc_request_duration_seconds_count", latN},
		{"mapc_predictions_total", m.predictions.Load()},
		{`mapc_rejected_total{reason="saturated"}`, m.rejected.saturated.Load()},
		{`mapc_rejected_total{reason="timeout"}`, m.rejected.timeout.Load()},
		{`mapc_rejected_total{reason="validation"}`, m.rejected.validation.Load()},
		{"mapc_serve_panics_total", m.panics.Load()},
		{"mapc_degraded_total", m.degraded.Load()},
		{"mapc_degraded_inflight", m.degradedInFlight.Load()},
		{"mapc_feature_cache_hits_total", hits},
		{"mapc_feature_cache_misses_total", misses},
		{"mapc_feature_cache_hit_ratio", m.CacheHitRate()},
		{"mapc_peer_fill_hits_total", m.peerFillHits.Load()},
		{"mapc_peer_fill_misses_total", m.peerFillMisses.Load()},
		{"mapc_uptime_seconds", time.Since(m.start).Seconds()},
	}
	// Bounded feature cache residency: the eviction counter is the
	// regression alarm for the formerly unbounded map (a long-tail k-bag
	// workload now trades recomputation, never memory).
	var feat simcache.Stats
	if m.featStats != nil {
		feat = m.featStats()
	}
	lines = append(lines,
		metricLine{"mapc_feature_cache_evictions_total", feat.Evictions},
		metricLine{"mapc_feature_cache_bytes", feat.Bytes},
		metricLine{"mapc_feature_cache_entries", int64(feat.Entries)},
	)
	// Simulation-memo counters (internal/simcache): totals plus the
	// resident-bytes gauge.
	var sim simcache.Stats
	if m.simStats != nil {
		sim = m.simStats()
	}
	lines = append(lines,
		metricLine{"mapc_simcache_hits_total", sim.Hits},
		metricLine{"mapc_simcache_misses_total", sim.Misses},
		metricLine{"mapc_simcache_evictions_total", sim.Evictions},
		metricLine{"mapc_simcache_bytes", sim.Bytes},
		metricLine{"mapc_simcache_hit_ratio", sim.HitRate()},
	)
	// Resident bytes per memo domain, so the total can be attributed to
	// the simulation prefix that holds it.
	if m.simDomains != nil {
		domains := m.simDomains()
		names := make([]string, 0, len(domains))
		for d := range domains {
			names = append(names, d)
		}
		sort.Strings(names)
		for _, d := range names {
			lines = append(lines, metricLine{fmt.Sprintf("mapc_simcache_domain_bytes{domain=%q}", d), domains[d]})
		}
	}
	// Fidelity-tier counters: which simulator answered the contended
	// co-runs behind served features. A rising low-confidence count is the
	// live signal that the traffic mix strains the analytic model: answers
	// under phasesum.DefaultMinConfidence (sketch boundary mass, sub-SM
	// shares, or DRAM demand past the model's regime).
	fid := dataset.FidelityStats{Fidelity: "exact"}
	if m.fidelityStats != nil {
		fid = m.fidelityStats()
	}
	if err := p("mapc_fidelity_info{tier=%q} 1\n", fid.Fidelity); err != nil {
		return total, err
	}
	lines = append(lines,
		metricLine{`mapc_fidelity_runs_total{kind="analytic"}`, int64(fid.AnalyticRuns)},
		metricLine{`mapc_fidelity_runs_total{kind="exact_fallback"}`, int64(fid.ExactFallbacks)},
		metricLine{`mapc_fidelity_runs_total{kind="exact"}`, int64(fid.ExactRuns)},
		metricLine{`mapc_fidelity_low_confidence_total`, int64(fid.LowConfidenceRuns)},
	)
	for _, l := range lines {
		var err error
		switch v := l.val.(type) {
		case int64:
			err = p("%s %d\n", l.name, v)
		case float64:
			err = p("%s %g\n", l.name, v)
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
