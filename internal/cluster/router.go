package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mapc/internal/serve"
)

// Router defaults.
const (
	DefaultRouterTimeout = 60 * time.Second
	// DefaultAttemptTimeout bounds one forward to one replica — well under
	// the end-to-end Timeout, so a black-holed replica costs one attempt's
	// worth of latency before failover instead of the whole budget.
	DefaultAttemptTimeout = 10 * time.Second
	// DefaultRetryBudget is how many re-forwards (beyond each bag's first
	// attempt) one client request may spend across all its bags.
	DefaultRetryBudget = 8
	// DefaultRetryBaseDelay / DefaultRetryMaxDelay shape the jittered
	// exponential backoff between retry rounds: base*2^round, capped at
	// max, jittered uniformly over the upper half.
	DefaultRetryBaseDelay = 25 * time.Millisecond
	DefaultRetryMaxDelay  = 1 * time.Second
	routerMaxBodyBytes    = 1 << 20
)

// RouterConfig configures the sharding router.
type RouterConfig struct {
	// Pool is the replica membership; required.
	Pool *Pool
	// Client forwards prediction sub-batches; nil means a fresh client
	// with no global timeout (per-request contexts bound each forward).
	Client *http.Client
	// Timeout bounds one client request end-to-end across all forwards
	// and retries; 0 means DefaultRouterTimeout.
	Timeout time.Duration
	// AttemptTimeout bounds a single forward to a single replica; 0 means
	// DefaultAttemptTimeout. The remaining attempt budget is propagated to
	// the replica in the X-Mapc-Deadline header.
	AttemptTimeout time.Duration
	// RetryBudget caps failed forward attempts (beyond each group's first
	// try) per client request; 0 means DefaultRetryBudget. A hedge spends
	// one unit too. When the budget runs out with bags still unanswered
	// the request fails 502 instead of hammering a sick tier.
	RetryBudget int
	// RetryBaseDelay / RetryMaxDelay shape the backoff between retry
	// rounds; 0 means the defaults.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// HedgeDelay, when positive, enables tail-latency hedging for
	// single-bag requests: if the first replica hasn't answered within
	// HedgeDelay, a second attempt is raced against it on the next
	// candidate and the first answer wins. Each hedge spends one retry
	// budget unit. 0 disables hedging.
	HedgeDelay time.Duration
	// Logf reports forwarding errors; nil discards.
	Logf func(format string, args ...any)
}

// Router shards /v1/predict bags across replicas by canonical bag key and
// reassembles the answers in request order. It owns no model: every
// prediction comes verbatim from a replica, so routed answers are
// bit-identical to asking the owning replica directly.
type Router struct {
	cfg     RouterConfig
	pool    *Pool
	metrics *routerMetrics
	start   time.Time
}

// NewRouter validates the config and returns a ready router.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Pool == nil {
		return nil, errors.New("cluster: router needs a pool")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultRouterTimeout
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = DefaultAttemptTimeout
	}
	if cfg.AttemptTimeout > cfg.Timeout {
		cfg.AttemptTimeout = cfg.Timeout
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = DefaultRetryBudget
	}
	if cfg.RetryBaseDelay <= 0 {
		cfg.RetryBaseDelay = DefaultRetryBaseDelay
	}
	if cfg.RetryMaxDelay <= 0 {
		cfg.RetryMaxDelay = DefaultRetryMaxDelay
	}
	if cfg.RetryMaxDelay < cfg.RetryBaseDelay {
		cfg.RetryMaxDelay = cfg.RetryBaseDelay
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Router{cfg: cfg, pool: cfg.Pool, metrics: newRouterMetrics(), start: time.Now()}, nil
}

// Handler returns the router's HTTP mux.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", rt.handlePredict)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	return mux
}

// Pool exposes the membership (for probe wiring in cmd/mapc-router).
func (rt *Router) Pool() *Pool { return rt.pool }

// bagCall tracks one bag through forwarding: its original position, its
// canonical key's candidate replicas, which have been tried, how many of
// its attempts are still in flight, and whether one has answered it.
type bagCall struct {
	index    int
	members  []serve.Member
	cands    []string
	tried    []bool
	inflight int
	answered bool
}

func newBagCall(index int, members []serve.Member, cands []string) *bagCall {
	return &bagCall{index: index, members: members, cands: cands, tried: make([]bool, len(cands))}
}

// pick returns the next replica to try for this bag: the first untried
// candidate the breaker admits. When every untried candidate is
// breaker-rejected it falls back to the first untried one regardless — a
// tier whose breakers are all open degrades to the old try-everything
// behavior instead of turning a cooldown window into a total outage.
// Returns false when every candidate has been tried.
func (c *bagCall) pick(pool *Pool) (string, bool) {
	for i, cand := range c.cands {
		if !c.tried[i] && pool.Allow(cand) {
			c.tried[i] = true
			return cand, true
		}
	}
	for i, cand := range c.cands {
		if !c.tried[i] {
			c.tried[i] = true
			return cand, true
		}
	}
	return "", false
}

// forwardError is a sub-batch outcome that should be propagated to the
// client as-is (a replica answered non-200).
type forwardError struct {
	status     int
	body       serve.ErrorResponse
	retryAfter string
}

// outcome is one attempt's report: the replica and bags it carried, and
// exactly one of forward's three results.
type outcome struct {
	replica string
	group   []*bagCall
	resp    *serve.PredictResponse
	ferr    *forwardError
	err     error
}

func (rt *Router) handlePredict(w http.ResponseWriter, r *http.Request) {
	startTime := time.Now()
	code := rt.servePredict(w, r)
	rt.metrics.observe(code, time.Since(startTime))
}

// servePredict runs every forward of one client request from a single
// event loop. Each attempt is a goroutine reporting one outcome. A round
// sends every pending bag to its next candidate, grouped by replica, and
// ends when none of its attempts is in flight; the bags that failed in it
// back off and go again. A single-bag request with HedgeDelay > 0 also
// arms a timer that races the bag's next candidate against the first
// attempt. Retries and the hedge share the request's retry budget.
func (rt *Router) servePredict(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		return serve.WriteJSON(w, http.StatusMethodNotAllowed, serve.ErrorResponse{Error: "use POST"})
	}
	bags, err := serve.ReadBags(http.MaxBytesReader(w, r.Body, routerMaxBodyBytes))
	if err != nil {
		return serve.WriteJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: err.Error()})
	}

	// Cancelling ctx on return also abandons every attempt still running.
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.Timeout)
	defer cancel()

	calls := make([]*bagCall, len(bags))
	for i, ms := range bags {
		calls[i] = newBagCall(i, ms, rt.pool.Route(serve.CanonicalKey(ms)))
	}

	outcomes := make(chan outcome)
	inflight := 0
	launch := func(replica string, group []*bagCall) {
		inflight++
		for _, c := range group {
			c.inflight++
		}
		go func() {
			o := outcome{replica: replica, group: group}
			o.resp, o.ferr, o.err = rt.forward(ctx, replica, group)
			// Once the loop has answered nobody receives; ctx is then
			// cancelled, so an abandoned attempt never blocks here.
			select {
			case outcomes <- o:
			case <-ctx.Done():
			}
		}()
	}

	var hedge <-chan time.Time
	hedgedTo := ""
	if len(calls) == 1 && rt.cfg.HedgeDelay > 0 {
		t := time.NewTimer(rt.cfg.HedgeDelay)
		defer t.Stop()
		hedge = t.C
	}

	results := make([]serve.BagResult, len(calls))
	unanswered := len(calls)
	scheme := ""
	degraded := false
	budget := rt.cfg.RetryBudget
	pending := calls
	for round := 0; ; round++ {
		if round > 0 {
			if err := rt.backoff(ctx, round-1); err != nil {
				return serve.WriteJSON(w, http.StatusGatewayTimeout, serve.ErrorResponse{
					Error: fmt.Sprintf("request deadline (%s) exceeded during retry backoff", rt.cfg.Timeout)})
			}
		}
		// Group this round's bags by the replica each should try next.
		groups := make(map[string][]*bagCall)
		for _, c := range pending {
			replica, ok := c.pick(rt.pool)
			if !ok {
				return serve.WriteJSON(w, http.StatusBadGateway, serve.ErrorResponse{
					Error: fmt.Sprintf("bag %d: every replica failed; last candidate list %v", c.index, c.cands)})
			}
			groups[replica] = append(groups[replica], c)
		}
		for replica, group := range groups {
			launch(replica, group)
		}

		// The round lasts while an attempt is in flight or the hedge timer
		// can still launch one.
		for inflight > 0 || hedge != nil {
			var o outcome
			select {
			case o = <-outcomes:
				inflight--
				for _, c := range o.group {
					c.inflight--
				}
			case <-hedge:
				// The timer fires in round 0, before any failure has spent
				// budget, so the hedge's unit is always there to spend.
				hedge = nil
				if replica, ok := calls[0].pick(rt.pool); ok {
					budget--
					hedgedTo = replica
					rt.metrics.hedges.Add(1)
					rt.cfg.Logf("cluster: hedging bag to %s after %s", replica, rt.cfg.HedgeDelay)
					launch(replica, calls)
				}
				continue
			case <-ctx.Done():
				o.err = ctx.Err() // answered 504 below, charged to no replica
			}

			retryErr := o.err
			if retryErr == nil && o.ferr != nil && o.ferr.status >= 500 && o.ferr.status != http.StatusServiceUnavailable {
				// A non-503 5xx (replica panic, injected fault) is
				// replica-specific, not bag-specific: another candidate may
				// well answer. Treat it like a transport failure.
				retryErr = fmt.Errorf("replica answered %d: %s", o.ferr.status, o.ferr.body.Error)
			}
			switch {
			case retryErr != nil && ctx.Err() != nil:
				// The request's own deadline or the client's cancel ended
				// it, not the replica: report nothing to the pool. (An
				// attempt's own AttemptTimeout leaves ctx alive and is
				// charged below.)
				return serve.WriteJSON(w, http.StatusGatewayTimeout, serve.ErrorResponse{
					Error: fmt.Sprintf("request deadline (%s) exceeded", rt.cfg.Timeout)})
			case retryErr != nil:
				// Transport-class failure: report to the pool (passive
				// ejection + breaker) and retry the group's bags at their
				// next candidates, spending retry budget.
				rt.pool.ReportFailure(o.replica, retryErr)
				rt.metrics.retries.Add(int64(len(o.group)))
				rt.cfg.Logf("cluster: forward to %s failed (%v); retrying %d bag(s)", o.replica, retryErr, len(o.group))
				if o.group[0].inflight > 0 || hedge != nil {
					// Only a hedged single bag has a race partner. While it,
					// or the armed hedge timer, can still answer, spend
					// nothing yet.
					continue
				}
				// One failed forward spends one budget unit regardless of
				// how many bags rode in it: the cost to the tier is per
				// HTTP attempt, and a single sick replica must not burn a
				// large batch's whole budget in one round.
				if budget < 1 {
					rt.metrics.budgetExhausted.Add(1)
					return serve.WriteJSON(w, http.StatusBadGateway, serve.ErrorResponse{
						Error: fmt.Sprintf("retry budget (%d) exhausted; last error from %s: %v", rt.cfg.RetryBudget, o.replica, retryErr)})
				}
				budget--
			case o.ferr != nil:
				// The replica answered a client-class HTTP error or a 503:
				// propagate it as-is, without waiting for the rest of the
				// round — a 400 means the bag itself is invalid everywhere,
				// a 503 means the owner is shedding (the client's
				// backpressure signal; rerouting would defeat admission
				// control).
				rt.pool.ReportSuccess(o.replica)
				if o.ferr.retryAfter != "" {
					w.Header().Set("Retry-After", o.ferr.retryAfter)
				}
				return serve.WriteJSON(w, o.ferr.status, o.ferr.body)
			default:
				rt.pool.ReportSuccess(o.replica)
				if scheme == "" {
					scheme = o.resp.ModelScheme
				} else if scheme != o.resp.ModelScheme {
					return serve.WriteJSON(w, http.StatusBadGateway, serve.ErrorResponse{
						Error: fmt.Sprintf("replicas disagree on the model scheme (%q vs %q); the tier is misconfigured", scheme, o.resp.ModelScheme)})
				}
				if o.replica == hedgedTo {
					rt.metrics.hedgeWins.Add(1)
				}
				degraded = degraded || o.resp.Degraded
				for j, br := range o.resp.Results {
					results[o.group[j].index] = br
					o.group[j].answered = true
				}
				rt.metrics.forwarded(o.replica, len(o.group))
				unanswered -= len(o.group)
				if unanswered == 0 {
					rt.metrics.bags.Add(int64(len(results)))
					if degraded {
						w.Header().Set(serve.HeaderDegraded, "1")
					}
					return serve.WriteJSON(w, http.StatusOK, serve.PredictResponse{ModelScheme: scheme, Results: results, Degraded: degraded})
				}
			}
		}

		pending = nil
		for _, c := range calls {
			if !c.answered {
				pending = append(pending, c)
			}
		}
	}
}

// backoff sleeps the jittered exponential retry delay for round:
// base*2^round capped at max, jittered uniformly over [d/2, d]. Returns
// ctx's error if the deadline lands first.
func (rt *Router) backoff(ctx context.Context, round int) error {
	d := rt.cfg.RetryBaseDelay << uint(round)
	if d <= 0 || d > rt.cfg.RetryMaxDelay {
		d = rt.cfg.RetryMaxDelay
	}
	half := int64(d / 2)
	jittered := time.Duration(half + rand.Int63n(half+1))
	t := time.NewTimer(jittered)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// forward posts one sub-batch to one replica, bounded by the per-attempt
// timeout, propagating the remaining budget in X-Mapc-Deadline. Returns
// exactly one of: the decoded response (len(Results) == len(group)
// guaranteed), a forwardError to propagate, or a transport error to retry.
func (rt *Router) forward(ctx context.Context, baseURL string, group []*bagCall) (*serve.PredictResponse, *forwardError, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
	defer cancel()
	sub := serve.PredictRequest{Bags: make([]serve.Bag, len(group))}
	for i, c := range group {
		sub.Bags[i] = serve.Bag{Members: c.members}
	}
	payload, err := json.Marshal(sub)
	if err != nil {
		return nil, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/predict", bytes.NewReader(payload))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set(serve.HeaderDeadline, strconv.FormatInt(ms, 10))
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()

	if resp.StatusCode != http.StatusOK {
		var eresp serve.ErrorResponse
		if err := json.NewDecoder(io.LimitReader(resp.Body, routerMaxBodyBytes)).Decode(&eresp); err != nil {
			eresp.Error = fmt.Sprintf("replica %s answered %d with an unreadable body", baseURL, resp.StatusCode)
		}
		return nil, &forwardError{
			status:     resp.StatusCode,
			body:       eresp,
			retryAfter: resp.Header.Get("Retry-After"),
		}, nil
	}
	var pr serve.PredictResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, routerMaxBodyBytes)).Decode(&pr); err != nil {
		// A 200 with a garbled body is a transport-class failure: the
		// replica is sick, try the next candidate.
		return nil, nil, fmt.Errorf("decoding reply from %s: %w", baseURL, err)
	}
	if len(pr.Results) != len(group) {
		return nil, nil, fmt.Errorf("replica %s answered %d results for %d bags", baseURL, len(pr.Results), len(group))
	}
	return &pr, nil, nil
}

// RouterHealth is the router's /healthz body.
type RouterHealth struct {
	Status    string          `json:"status"`
	Healthy   int             `json:"healthy"`
	Replicas  []ReplicaStatus `json:"replicas"`
	UptimeSec float64         `json:"uptime_sec"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		serve.WriteJSON(w, http.StatusMethodNotAllowed, serve.ErrorResponse{Error: "GET only"})
		return
	}
	status := rt.pool.Status()
	healthy := 0
	for _, s := range status {
		if s.Healthy {
			healthy++
		}
	}
	// The router is "ok" while at least one replica is admitted; a tier
	// with zero healthy members reports degraded (503) so an outer load
	// balancer can fail away from it.
	code, state := http.StatusOK, "ok"
	if healthy == 0 {
		code, state = http.StatusServiceUnavailable, "degraded"
	}
	serve.WriteJSON(w, code, RouterHealth{
		Status:    state,
		Healthy:   healthy,
		Replicas:  status,
		UptimeSec: time.Since(rt.start).Seconds(),
	})
}

// routerMetrics is the router's stdlib-only instrumentation.
type routerMetrics struct {
	mu       sync.Mutex
	byCode   map[int]int64
	byTarget map[string]int64 // bags forwarded per replica
	latSum   float64
	latN     int64

	bags            atomic.Int64
	retries         atomic.Int64
	hedges          atomic.Int64
	hedgeWins       atomic.Int64
	budgetExhausted atomic.Int64
}

func newRouterMetrics() *routerMetrics {
	return &routerMetrics{byCode: map[int]int64{}, byTarget: map[string]int64{}}
}

func (m *routerMetrics) observe(code int, d time.Duration) {
	m.mu.Lock()
	m.byCode[code]++
	m.latSum += d.Seconds()
	m.latN++
	m.mu.Unlock()
}

func (m *routerMetrics) forwarded(replica string, bags int) {
	m.mu.Lock()
	m.byTarget[replica] += int64(bags)
	m.mu.Unlock()
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		serve.WriteJSON(w, http.StatusMethodNotAllowed, serve.ErrorResponse{Error: "GET only"})
		return
	}
	// The locked series are formatted into memory first: every request's
	// observe and forwarded take m.mu, so writing to a slow scraper under
	// it would stall the router.
	m := rt.metrics
	var locked bytes.Buffer
	m.mu.Lock()
	codes := make([]int, 0, len(m.byCode))
	for c := range m.byCode {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	targets := make([]string, 0, len(m.byTarget))
	for t := range m.byTarget {
		targets = append(targets, t)
	}
	sort.Strings(targets)
	for _, c := range codes {
		fmt.Fprintf(&locked, "mapc_router_requests_total{code=%q} %d\n", fmt.Sprint(c), m.byCode[c])
	}
	for _, t := range targets {
		fmt.Fprintf(&locked, "mapc_router_forwarded_bags_total{replica=%q} %d\n", t, m.byTarget[t])
	}
	fmt.Fprintf(&locked, "mapc_router_request_duration_seconds_sum %g\n", m.latSum)
	fmt.Fprintf(&locked, "mapc_router_request_duration_seconds_count %d\n", m.latN)
	m.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write(locked.Bytes())
	fmt.Fprintf(w, "mapc_router_bags_total %d\n", m.bags.Load())
	fmt.Fprintf(w, "mapc_router_retries_total %d\n", m.retries.Load())
	fmt.Fprintf(w, "mapc_router_hedges_total %d\n", m.hedges.Load())
	fmt.Fprintf(w, "mapc_router_hedge_wins_total %d\n", m.hedgeWins.Load())
	fmt.Fprintf(w, "mapc_router_budget_exhausted_total %d\n", m.budgetExhausted.Load())
	fmt.Fprintf(w, "mapc_router_breaker_skips_total %d\n", rt.pool.BreakerSkips())
	fmt.Fprintf(w, "mapc_router_replicas_healthy %d\n", rt.pool.HealthyCount())
	fmt.Fprintf(w, "mapc_router_ejections_total %d\n", rt.pool.Ejections())
	fmt.Fprintf(w, "mapc_router_readmissions_total %d\n", rt.pool.Readmissions())
	fmt.Fprintf(w, "mapc_router_uptime_seconds %g\n", time.Since(rt.start).Seconds())
}
