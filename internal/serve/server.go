// Package serve is the production prediction service over the trained
// predictor: an HTTP layer that answers "how long will this k-application
// bag take on the GPU?" — the per-job query a multi-tenant scheduler issues
// (Section V's end product, framed as an online service). The bag size is
// inferred from the loaded model's feature width (the paper's models are
// 2-application); requests whose bag size differs from the trained k are
// rejected with a descriptive 400.
//
// The server warm-loads a persisted model (or the caller trains one at
// startup), validates every request against the benchmark registry and the
// model's feature contract, and serves:
//
//	POST /v1/predict  — single or batched bags, fanned out over the
//	                    measurement worker pool
//	GET  /healthz     — liveness + model identity
//	GET  /metrics     — Prometheus-style text metrics (stdlib only)
//
// Robustness: one bounded in-flight limiter sheds load with 503 before work
// is admitted, every request carries a deadline (504 on expiry), and
// Shutdown drains in-flight requests for graceful SIGTERM handling. With
// brownout on, a request admitted past a watermark is labelled degraded;
// it takes a slot from the same pool and gets the exact answer, so the
// label only tells a client the replica is near saturation. At a
// watermark of 1 no request is labelled, because the pool sheds first.
// Feature vectors are memoized across requests in a singleflight cache
// layered on dataset.Generator's per-member memo, so repeated bags skip
// re-simulation entirely.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"mapc/internal/core"
	"mapc/internal/dataset"
	"mapc/internal/features"
	"mapc/internal/parallel"
	"mapc/internal/vision"
)

// Defaults for Config zero values.
const (
	DefaultMaxInFlight    = 64
	DefaultMaxBatch       = 64
	DefaultRequestTimeout = 30 * time.Second
	// DefaultBrownoutWatermark is the in-flight fraction of MaxInFlight at
	// which fresh admissions start being labelled degraded.
	DefaultBrownoutWatermark = 0.75
	// maxBodyBytes bounds request bodies; a MaxBatch bag list is well
	// under 1 MiB.
	maxBodyBytes = 1 << 20
)

// Config configures a prediction server.
type Config struct {
	// Model is the trained predictor; required. Its feature width must be
	// a replicated bag vector (nApps*features.PerApp+1); the bag size it
	// was trained for is inferred from it at startup.
	Model *core.Predictor
	// Generator measures fresh bags; required. Its member-level memo is
	// shared with the feature cache, so one long-lived generator serves
	// every request.
	Generator *dataset.Generator
	// MaxInFlight bounds concurrently admitted /v1/predict requests;
	// excess requests are shed with 503. 0 means DefaultMaxInFlight.
	MaxInFlight int
	// MaxBatch bounds bags per request (400 beyond it). 0 means
	// DefaultMaxBatch.
	MaxBatch int
	// RequestTimeout is the per-request deadline (504 on expiry). 0 means
	// DefaultRequestTimeout.
	RequestTimeout time.Duration
	// Workers sizes the per-request fan-out over a request's bags
	// (parallel.ForEach semantics: 0 = NumCPU, 1 = serial). Each cold
	// bag also measures its members concurrently under the generator's
	// dataset.Config.Workers, so a request can run up to Workers ×
	// generator Workers measurement goroutines.
	Workers int
	// FeatureCacheMB bounds the cross-request feature cache in MiB; the
	// least-recently-used bags are evicted past it (an eviction costs
	// re-simulation on next sight, never a wrong answer). 0 means
	// DefaultFeatureCacheMB; negative values are rejected — the cache is
	// also the singleflight layer, so it cannot be disabled.
	FeatureCacheMB int
	// BrownoutWatermark is the in-flight fraction of MaxInFlight at which
	// admissions start being labelled: a request admitted while at least
	// that many others are in flight answers "degraded": true with the
	// X-Mapc-Degraded header and counts in mapc_degraded_total. It only
	// labels; the request takes a slot from the one MaxInFlight pool and
	// gets the exact answer, and a full pool sheds 503 either way. At 1.0
	// no request is labelled, because the pool sheds first. 0 disables
	// the label (the default); mapc-serve defaults its flag to
	// DefaultBrownoutWatermark. Negative values and values above 1 are
	// rejected.
	BrownoutWatermark float64
}

// Server is the HTTP prediction service. Create with New; all methods are
// safe for concurrent use.
type Server struct {
	cfg     Config
	metrics *Metrics
	cache   *featureCache
	// trainedK is the bag size the model was trained for, inferred from
	// its feature width at startup.
	trainedK int
	// featuresFn resolves a bag to its raw feature vector, the same for
	// exact and degraded answers; defaults to the shared cache and is
	// swappable in tests (e.g. to inject slowness).
	featuresFn func(bag []dataset.Member) (x []float64, fairness float64, hit bool, err error)
	inflight   chan struct{}
	// watermark is the in-flight count at which fresh admissions are
	// labelled degraded; 0 when brownout is disabled.
	watermark int

	mu      sync.Mutex
	httpSrv *http.Server
}

// New validates the config and returns a ready-to-serve server. The model's
// feature contract is checked against the replicated-bag featurizer here so
// a mismatched model is refused at startup, not at first request; the bag
// size it was trained for (k) is recovered from its feature width.
func New(cfg Config) (*Server, error) {
	if cfg.Model == nil {
		return nil, errors.New("serve: nil model")
	}
	if cfg.Generator == nil {
		return nil, errors.New("serve: nil generator")
	}
	trainedK, err := features.BagSizeForWidth(cfg.Model.NumFeatures())
	if err != nil {
		return nil, fmt.Errorf(
			"serve: model (scheme %q) was trained on an unrecognizable bag shape: %w",
			cfg.Model.Scheme().Name, err)
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.FeatureCacheMB < 0 {
		return nil, fmt.Errorf("serve: negative feature cache budget %d MB (0 means the %d MB default; the cache cannot be disabled)",
			cfg.FeatureCacheMB, DefaultFeatureCacheMB)
	}
	if cfg.BrownoutWatermark > 1 || cfg.BrownoutWatermark < 0 {
		return nil, fmt.Errorf("serve: brownout watermark %g outside [0, 1] (a fraction of MaxInFlight; 0 disables brownout)", cfg.BrownoutWatermark)
	}
	s := &Server{
		cfg:      cfg,
		metrics:  NewMetrics(),
		cache:    newFeatureCache(cfg.Generator, cfg.FeatureCacheMB),
		trainedK: trainedK,
		inflight: make(chan struct{}, cfg.MaxInFlight),
	}
	if cfg.BrownoutWatermark > 0 {
		s.watermark = max(1, int(cfg.BrownoutWatermark*float64(cfg.MaxInFlight)))
	}
	// /metrics reports the generator's simulation-memo counters alongside
	// the request-level feature cache: the feature cache dedupes repeated
	// bags, the simcache dedupes the pure simulation prefixes *inside*
	// fresh bags.
	s.metrics.SetSimCacheSource(cfg.Generator.SimCacheStats)
	s.metrics.SetSimCacheDomainSource(cfg.Generator.SimCacheDomainBytes)
	s.metrics.SetFeatureCacheSource(s.cache.Stats)
	s.metrics.tier = s.cache.tier
	s.featuresFn = s.cachedFeatures
	// A replica's live heap is a few MiB while each request allocates
	// ~25 KB, so at the runtime's default GOGC of 100 the collector runs
	// about every 80 cache hits and its pauses reach the latency tail.
	// Serving spends a few MiB on collections a third as often, unless the
	// operator set GOGC.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(servingGCPercent)
	}
	return s, nil
}

// servingGCPercent is the GOGC a server runs under when none is set: twice
// the runtime default, which also doubles its 4 MiB minimum heap goal.
const servingGCPercent = 200

// cachedFeatures is the default featuresFn: the cross-request singleflight
// cache with hit/miss accounting.
func (s *Server) cachedFeatures(bag []dataset.Member) ([]float64, float64, bool, error) {
	x, fairness, hit, err := s.cache.get(bag)
	if err == nil {
		if hit {
			s.metrics.CacheHit()
		} else {
			s.metrics.CacheMiss()
		}
	}
	return x, fairness, hit, err
}

// Metrics exposes the server's metrics (for tests and embedding callers).
func (s *Server) Metrics() *Metrics { return s.metrics }

// CacheLen returns the number of feature-cache entries (published and in
// flight) — the /healthz cached_bags figure, exported for cluster tests
// and snapshot logging.
func (s *Server) CacheLen() int { return s.cache.Len() }

// Handler returns the service's HTTP handler. Every route is wrapped in
// the panic-recovery middleware: a panicking request answers 500 and bumps
// mapc_serve_panics_total while the process keeps serving.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", s.handlePredict)
	mux.HandleFunc("/v1/cache/snapshot", s.handleCacheSnapshot)
	mux.HandleFunc("/v1/cache/entry", s.handleCacheEntry)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return s.recoverPanics(mux)
}

// statusTrackingWriter remembers whether a status line has been written,
// so the recovery middleware only attempts a 500 when the response is
// still unsent.
type statusTrackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *statusTrackingWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusTrackingWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// recoverPanics is the per-request panic containment layer: one crashing
// handler (or anything it calls outside the worker pool's own recovery)
// must cost one 500, never the process. The stack is logged server-side
// and kept out of the response body.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw := &statusTrackingWriter{ResponseWriter: w}
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.Panic()
				log.Printf("serve: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				if !tw.wrote {
					s.metrics.ObserveOther(WriteJSON(tw, http.StatusInternalServerError,
						ErrorResponse{"internal error: request handler panicked (see server logs)"}))
				}
			}
		}()
		next.ServeHTTP(tw, r)
	})
}

// panicRelated reports whether err stems from a recovered panic — either
// the measurement pool's parallel.PanicError or the feature cache's
// recoveredPanic — and therefore should count in mapc_serve_panics_total
// and answer with a generic 500 (stacks stay in the server log).
func panicRelated(err error) bool {
	var pe *parallel.PanicError
	var rp *recoveredPanic
	return errors.As(err, &pe) || errors.As(err, &rp)
}

// ListenAndServe serves on addr until Shutdown or a listener error. It
// always returns a non-nil error; after Shutdown it returns
// http.ErrServerClosed like the stdlib server.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve serves on an existing listener (tests use port 0 listeners).
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	s.mu.Lock()
	if s.httpSrv != nil {
		s.mu.Unlock()
		return errors.New("serve: Serve called twice")
	}
	s.httpSrv = srv
	s.mu.Unlock()
	return srv.Serve(ln)
}

// Shutdown gracefully stops the server: the listener closes immediately,
// in-flight requests drain until ctx expires. Safe to call before Serve
// (no-op) and concurrently with it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

// parseBags decodes the request body with ReadBags (the front door the
// cluster router shares) and layers the model- and registry-level checks
// on top: every bag's size must match the model's trained bag size.
func (s *Server) parseBags(body io.Reader) ([][]Member, error) {
	bags, err := ReadBags(body)
	if err != nil {
		return nil, err
	}
	if len(bags) > s.cfg.MaxBatch {
		return nil, fmt.Errorf("batch of %d bags exceeds the limit of %d", len(bags), s.cfg.MaxBatch)
	}
	for i, bag := range bags {
		if len(bag) != s.trainedK {
			return nil, fmt.Errorf(
				"bag %d carries %d application(s) but the loaded model was trained for %d-application bags; retrain with -k %d or resize the bag",
				i, len(bag), s.trainedK, len(bag))
		}
		for _, m := range bag {
			if strings.TrimSpace(m.Benchmark) == "" {
				return nil, fmt.Errorf("bag %d: empty benchmark name", i)
			}
			if err := vision.CheckName(m.Benchmark); err != nil {
				return nil, fmt.Errorf("bag %d: %v (known: %s)", i, err, strings.Join(vision.Names(), ", "))
			}
			if m.Batch <= 0 {
				return nil, fmt.Errorf("bag %d: non-positive batch %d for %s", i, m.Batch, m.Benchmark)
			}
			if m.Batch > vision.MaxBatch {
				return nil, fmt.Errorf("bag %d: batch %d for %s exceeds the limit of %d images", i, m.Batch, m.Benchmark, vision.MaxBatch)
			}
		}
	}
	return bags, nil
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	code := s.servePredict(w, r)
	s.metrics.ObserveRequest(code, time.Since(start))
}

// servePredict does the work and returns the status code written.
func (s *Server) servePredict(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		return WriteJSON(w, http.StatusMethodNotAllowed, ErrorResponse{"POST only"})
	}

	// Bounded admission: one pool of MaxInFlight slots, shedding 503 when
	// it is full. Brownout only labels: a request admitted while at least
	// watermark others are in flight answers degraded, with the same
	// features from the same cache entry as any other.
	degraded := s.watermark > 0 && len(s.inflight) >= s.watermark
	select {
	case s.inflight <- struct{}{}:
	default:
		s.metrics.RejectSaturated()
		w.Header().Set("Retry-After", "1")
		return WriteJSON(w, http.StatusServiceUnavailable,
			ErrorResponse{fmt.Sprintf("server saturated: %d requests in flight", s.cfg.MaxInFlight)})
	}
	// The slot tracks *work*, not the handler: simulations are not
	// cancellable mid-run, so a request that times out (504) leaves its
	// measurement goroutine running — the slot must stay held until that
	// work finishes, or a burst of slow bags would grow actual concurrent
	// computes far past the admission bound (each 504 freeing a slot for
	// the next admission while the previous simulation kept running).
	// Until the goroutine is handed the slot, the handler's own returns
	// release it.
	s.metrics.IncInFlight()
	release := func() {
		s.metrics.DecInFlight()
		<-s.inflight
	}
	handedOff := false
	defer func() {
		if !handedOff {
			release()
		}
	}()

	// Honor a propagated deadline (X-Mapc-Deadline, remaining budget in
	// milliseconds — the router stamps it per attempt) when it is tighter
	// than the server's own RequestTimeout: answering a caller that has
	// already given up is wasted simulation.
	timeout := s.cfg.RequestTimeout
	if hdr := r.Header.Get(HeaderDeadline); hdr != "" {
		if ms, err := strconv.ParseInt(hdr, 10, 64); err == nil && ms > 0 {
			if d := time.Duration(ms) * time.Millisecond; d < timeout {
				timeout = d
			}
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	bags, err := s.parseBags(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.metrics.RejectValidation()
		return WriteJSON(w, http.StatusBadRequest, ErrorResponse{err.Error()})
	}

	// Fan the bags out over the measurement worker pool, bounded by the
	// request deadline. Simulations are not cancellable mid-run; on
	// timeout the goroutine finishes in the background (still holding the
	// admission slot) and its results land in the cache for the retry.
	results := make([]BagResult, len(bags))
	done := make(chan error, 1)
	handedOff = true
	go func() {
		err := parallel.ForEach(s.cfg.Workers, len(bags), func(i int) error {
			if ctx.Err() != nil {
				return ctx.Err() // deadline hit: stop claiming new bags
			}
			bag := make([]dataset.Member, len(bags[i]))
			for j, m := range bags[i] {
				bag[j] = m.member()
			}
			x, fairness, hit, err := s.featuresFn(bag)
			if err != nil {
				return fmt.Errorf("bag %d (%s): %w", i, dataset.BagKeyOf(bag), err)
			}
			pred, err := s.cfg.Model.PredictRaw(x)
			if err != nil {
				return fmt.Errorf("bag %d (%s): %w", i, dataset.BagKeyOf(bag), err)
			}
			results[i] = BagResult{
				Members:      bags[i],
				PredictedSec: pred, Fairness: fairness, Cached: hit,
			}
			return nil
		})
		// Release the admission slot strictly before signalling
		// completion, so a caller that saw the response can never observe
		// the slot still held.
		release()
		done <- err
	}()

	select {
	case <-ctx.Done():
		s.metrics.RejectTimeout()
		return WriteJSON(w, http.StatusGatewayTimeout,
			ErrorResponse{fmt.Sprintf("deadline of %v exceeded", timeout)})
	case err := <-done:
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				s.metrics.RejectTimeout()
				return WriteJSON(w, http.StatusGatewayTimeout,
					ErrorResponse{fmt.Sprintf("deadline of %v exceeded", timeout)})
			}
			if panicRelated(err) {
				// A measurement task died mid-flight; the worker pool (or
				// the feature cache) contained it. Log the stack, keep it
				// out of the response, and keep serving.
				s.metrics.Panic()
				log.Printf("serve: recovered panic in /v1/predict: %v", err)
				return WriteJSON(w, http.StatusInternalServerError,
					ErrorResponse{"internal error: prediction task panicked (see server logs)"})
			}
			return WriteJSON(w, http.StatusInternalServerError, ErrorResponse{err.Error()})
		}
	}
	s.metrics.Predictions(len(bags))
	if degraded {
		s.metrics.Degraded()
		w.Header().Set(HeaderDegraded, "1")
	}
	return WriteJSON(w, http.StatusOK, PredictResponse{
		ModelScheme: s.cfg.Model.Scheme().Name,
		Results:     results,
		Degraded:    degraded,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.metrics.ObserveOther(WriteJSON(w, http.StatusMethodNotAllowed, ErrorResponse{"GET only"}))
		return
	}
	s.metrics.ObserveOther(WriteJSON(w, http.StatusOK, HealthResponse{
		Status:          "ok",
		ModelScheme:     s.cfg.Model.Scheme().Name,
		ModelFeatures:   s.cfg.Model.NumFeatures(),
		TrainedOnPoints: s.cfg.Model.TrainedOnPoints(),
		CachedBags:      s.cache.Len(),
		InFlight:        s.metrics.InFlight(),
		UptimeSec:       time.Since(s.metrics.start).Seconds(),
		Shares:          s.cache.shares,
	}))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.metrics.ObserveOther(WriteJSON(w, http.StatusMethodNotAllowed, ErrorResponse{"GET only"}))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = s.metrics.WriteTo(w)
	s.metrics.ObserveOther(http.StatusOK)
}
