package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mapc/internal/faultinject"
	"mapc/internal/serve"
)

func pairBody(a string, ab int, b string, bb int) string {
	return fmt.Sprintf(`{"a":{"benchmark":%q,"batch":%d},"b":{"benchmark":%q,"batch":%d}}`, a, ab, b, bb)
}

// fixturePairs enumerates every pair the fixture model can serve, as
// member slices (for candidate discovery) and request bodies.
func fixturePairs() (bags [][]serve.Member, bodies []string) {
	for _, a := range []string{"sift", "surf"} {
		for _, b := range []string{"sift", "surf"} {
			for _, ab := range []int{20, 40} {
				for _, bb := range []int{20, 40} {
					bags = append(bags, []serve.Member{
						{Benchmark: a, Batch: ab}, {Benchmark: b, Batch: bb}})
					bodies = append(bodies, pairBody(a, ab, b, bb))
				}
			}
		}
	}
	return bags, bodies
}

// bagRoutedFirstTo returns a request body whose canonical key routes to
// wantURL as the first candidate, so tests can deterministically aim the
// first forward at a chosen replica.
func bagRoutedFirstTo(t *testing.T, pool *Pool, wantURL string) string {
	t.Helper()
	bags, bodies := fixturePairs()
	for i, ms := range bags {
		if cands := pool.Route(serve.CanonicalKey(ms)); len(cands) > 0 && cands[0] == wantURL {
			return bodies[i]
		}
	}
	t.Fatalf("no fixture bag routes first to %s", wantURL)
	return ""
}

// TestRouterPerAttemptTimeoutFailover is the satellite-1 regression test:
// a replica that accepts connections and then never answers used to stall
// a request for the full end-to-end Timeout (60s by default) because no
// per-attempt bound existed. With AttemptTimeout the router abandons the
// black-holed forward quickly and fails over to the live candidate.
func TestRouterPerAttemptTimeoutFailover(t *testing.T) {
	_, live := newReplica(t)
	dark := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server's client-disconnect watcher runs,
		// then sit dark until the router abandons the attempt (the timer is
		// only a leak guard for test teardown).
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(30 * time.Second):
		}
	}))
	t.Cleanup(dark.Close)

	pool, err := NewPool(PoolConfig{Replicas: []string{live.URL, dark.URL}, FailAfter: 1, ReviveAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{
		Pool:           pool,
		Timeout:        30 * time.Second,
		AttemptTimeout: 300 * time.Millisecond,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	body := bagRoutedFirstTo(t, pool, dark.URL)

	start := time.Now()
	rr := post(t, rt.Handler(), body)
	elapsed := time.Since(start)
	if rr.Code != http.StatusOK {
		t.Fatalf("request aimed at the dark replica answered %d: %s", rr.Code, rr.Body)
	}
	// One 300ms attempt + failover + a real simulation; nowhere near the
	// 30s end-to-end budget (and pre-fix this took the full Timeout).
	if elapsed > 10*time.Second {
		t.Fatalf("failover took %v; the per-attempt timeout is not bounding the dark forward", elapsed)
	}
	if elapsed < 300*time.Millisecond {
		t.Fatalf("request finished in %v without waiting out the dark attempt; the test routed wrong", elapsed)
	}
	// The dark replica was passively reported: FailAfter=1 ejects it.
	if got := pool.BreakerState(dark.URL); got != "open" {
		t.Errorf("dark replica breaker %q after the timed-out forward, want open", got)
	}
}

// chaosRouter builds a router over the given replica URLs whose forward
// client runs through a faultinject.Transport with the given plan.
func chaosRouter(t *testing.T, urls []string, plan faultinject.Plan, mut func(*RouterConfig)) (*Router, *faultinject.Transport) {
	t.Helper()
	pool, err := NewPool(PoolConfig{Replicas: urls, FailAfter: 3, ReviveAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := faultinject.NewTransport(nil, plan)
	cfg := RouterConfig{
		Pool:           pool,
		Client:         &http.Client{Transport: tr},
		Timeout:        30 * time.Second,
		AttemptTimeout: 300 * time.Millisecond,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  5 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt, tr
}

func hostOf(t *testing.T, rawURL string) string {
	t.Helper()
	return strings.TrimPrefix(rawURL, "http://")
}

// TestRouterChaosBlackholedReplica black-holes every request to one of two
// replicas at the transport and drives the full fixture mix through the
// router: every request must still answer 200 (failover), the sick
// replica's breaker must open, and the retry metric must move.
func TestRouterChaosBlackholedReplica(t *testing.T) {
	_, tsA := newReplica(t)
	_, tsB := newReplica(t)
	plan := faultinject.Plan{Faults: []faultinject.Fault{{
		Site:  faultinject.NetSite(hostOf(t, tsB.URL)),
		Index: faultinject.AnyIndex,
		Kind:  faultinject.KindBlackhole,
	}}}
	rt, tr := chaosRouter(t, []string{tsA.URL, tsB.URL}, plan, nil)
	h := rt.Handler()
	// Chosen before any traffic: Route moves an ejected replica last.
	darkFirst := bagRoutedFirstTo(t, rt.pool, tsB.URL)

	_, bodies := fixturePairs()
	for i, body := range bodies {
		rr := post(t, h, body)
		if rr.Code != http.StatusOK {
			t.Fatalf("request %d answered %d with one replica black-holed: %s", i, rr.Code, rr.Body)
		}
	}
	// The ring places the replicas by their random ports, so the mix may
	// aim fewer than FailAfter first attempts at the dark replica. Aim
	// FailAfter more there: each times out and counts against it (or,
	// once the breaker is open, goes straight to the live replica).
	for i := 0; i < rt.pool.cfg.FailAfter; i++ {
		if rr := post(t, h, darkFirst); rr.Code != http.StatusOK {
			t.Fatalf("dark-first request %d answered %d: %s", i, rr.Code, rr.Body)
		}
	}
	if got := rt.pool.BreakerState(tsB.URL); got != "open" {
		t.Errorf("black-holed replica breaker %q, want open", got)
	}
	if rt.metrics.retries.Load() == 0 {
		t.Error("no retries recorded despite a black-holed replica")
	}
	if tr.Requests(faultinject.NetSite(hostOf(t, tsB.URL))) == 0 {
		t.Error("chaos transport never saw traffic to the black-holed site")
	}
	// Once the breaker opened, pick() stops aiming first attempts at the
	// dark replica: a warm re-run completes without growing the retry
	// counter by more than the occasional half-open trial.
	before := rt.metrics.retries.Load()
	for _, body := range bodies {
		if rr := post(t, h, body); rr.Code != http.StatusOK {
			t.Fatalf("warm request answered %d: %s", rr.Code, rr.Body)
		}
	}
	if after := rt.metrics.retries.Load(); after-before > 2 {
		t.Errorf("retries grew %d→%d on the warm pass; the breaker is not steering traffic away", before, after)
	}
}

// TestRouterSeededChaosBitIdentity is the exactness gate under faults: a
// seeded random network plan (delays, resets, 5xx bursts, truncated
// bodies) injected into the forward path must never change an answer —
// every request still completes 200 and the bodies are bit-identical
// (modulo the cached flag) to a fault-free tier over the same replicas.
func TestRouterSeededChaosBitIdentity(t *testing.T) {
	_, tsA := newReplica(t)
	_, tsB := newReplica(t)
	urls := []string{tsA.URL, tsB.URL}

	// Fault-free baseline.
	rtClean, _ := chaosRouter(t, urls, faultinject.Plan{}, nil)
	_, bodies := fixturePairs()
	baseline := make([]string, len(bodies))
	for i, body := range bodies {
		rr := post(t, rtClean.Handler(), body)
		if rr.Code != http.StatusOK {
			t.Fatalf("baseline request %d answered %d: %s", i, rr.Code, rr.Body)
		}
		baseline[i] = normCached(rr.Body.String())
		if strings.Contains(rr.Body.String(), `"degraded": true`) {
			t.Fatalf("fault-free baseline answered degraded: %s", rr.Body)
		}
	}

	// Seeded chaos on both sites.
	var plan faultinject.Plan
	for _, u := range urls {
		p := faultinject.RandomNetworkPlan(42, faultinject.NetSite(hostOf(t, u)), 64)
		plan.Faults = append(plan.Faults, p.Faults...)
	}
	rtChaos, _ := chaosRouter(t, urls, plan, func(c *RouterConfig) {
		c.RetryBudget = 16
	})
	for i, body := range bodies {
		rr := post(t, rtChaos.Handler(), body)
		if rr.Code != http.StatusOK {
			t.Fatalf("chaos request %d answered %d: %s", i, rr.Code, rr.Body)
		}
		if got := normCached(rr.Body.String()); got != baseline[i] {
			t.Errorf("chaos request %d diverged from the fault-free answer:\nclean: %s\nchaos: %s", i, baseline[i], got)
		}
	}
}

// TestRouterRetryBudgetExhausted pins the give-up path: with every forward
// answering an injected 500 and a one-retry budget, the router fails 502
// naming the budget instead of hammering the tier, and the metric moves.
func TestRouterRetryBudgetExhausted(t *testing.T) {
	_, tsA := newReplica(t)
	_, tsB := newReplica(t)
	urls := []string{tsA.URL, tsB.URL}
	var plan faultinject.Plan
	for _, u := range urls {
		plan.Faults = append(plan.Faults, faultinject.Fault{
			Site:  faultinject.NetSite(hostOf(t, u)),
			Index: faultinject.AnyIndex,
			Kind:  faultinject.KindHTTPError,
			Code:  500,
		})
	}
	rt, _ := chaosRouter(t, urls, plan, func(c *RouterConfig) {
		c.RetryBudget = 1
	})
	rr := post(t, rt.Handler(), pairBody("sift", 20, "surf", 20))
	if rr.Code != http.StatusBadGateway {
		t.Fatalf("all-500 tier answered %d, want 502: %s", rr.Code, rr.Body)
	}
	if !strings.Contains(rr.Body.String(), "retry budget") {
		t.Errorf("502 body %q does not name the retry budget", rr.Body)
	}
	if rt.metrics.budgetExhausted.Load() != 1 {
		t.Errorf("budgetExhausted = %d, want 1", rt.metrics.budgetExhausted.Load())
	}
}

// TestRouterInjected5xxRetriesOtherReplica pins the retryable-5xx policy:
// a non-503 5xx from one replica is replica-specific and must fail over
// (unlike a 400 or a 503, which propagate — covered by the existing
// router tests).
func TestRouterInjected5xxRetriesOtherReplica(t *testing.T) {
	_, tsA := newReplica(t)
	_, tsB := newReplica(t)
	urls := []string{tsA.URL, tsB.URL}
	// The first request to site A 500s; everything else passes.
	plan := faultinject.Plan{Faults: []faultinject.Fault{{
		Site:  faultinject.NetSite(hostOf(t, tsA.URL)),
		Index: 0,
		Kind:  faultinject.KindHTTPError,
		Code:  500,
		Once:  true,
	}}}
	rt, _ := chaosRouter(t, urls, plan, nil)
	body := bagRoutedFirstTo(t, rt.pool, tsA.URL)
	rr := post(t, rt.Handler(), body)
	if rr.Code != http.StatusOK {
		t.Fatalf("request answered %d after an injected 500, want failover to 200: %s", rr.Code, rr.Body)
	}
	if rt.metrics.retries.Load() == 0 {
		t.Error("no retries recorded; the injected 500 was not treated as retryable")
	}
}

// TestRouterHedgeWinsOnSlowReplica pins tail-latency hedging: when the
// owning replica sits on a request past HedgeDelay, the hedge to the next
// candidate answers first and the request completes far sooner than the
// slow replica would allow, counting a hedge win.
func TestRouterHedgeWinsOnSlowReplica(t *testing.T) {
	_, live := newReplica(t)
	_, slowBackend := newReplica(t)
	const stall = 3 * time.Second
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(stall):
		case <-r.Context().Done():
			return
		}
		slowBackend.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)

	pool, err := NewPool(PoolConfig{Replicas: []string{live.URL, slow.URL}, FailAfter: 1, ReviveAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{
		Pool:       pool,
		Timeout:    30 * time.Second,
		HedgeDelay: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	body := bagRoutedFirstTo(t, pool, slow.URL)

	start := time.Now()
	rr := post(t, rt.Handler(), body)
	elapsed := time.Since(start)
	if rr.Code != http.StatusOK {
		t.Fatalf("hedged request answered %d: %s", rr.Code, rr.Body)
	}
	if elapsed >= stall {
		t.Fatalf("hedged request took %v (≥ the %v stall); the hedge never raced", elapsed, stall)
	}
	if rt.metrics.hedges.Load() == 0 || rt.metrics.hedgeWins.Load() == 0 {
		t.Errorf("hedges=%d hedgeWins=%d, want both ≥ 1", rt.metrics.hedges.Load(), rt.metrics.hedgeWins.Load())
	}
}

// stallingServer drains each request, then answers nothing until stall
// elapses or the caller goes away (draining first is what lets the server
// notice the disconnect).
func stallingServer(t *testing.T, stall time.Duration) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-time.After(stall):
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// closedURL returns the address of a listener that is already closed, so
// a forward to it fails fast with a refused connection.
func closedURL(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close()
	return ts.URL
}

// syntheticBagFor returns a bag of made-up benchmarks whose first
// candidate is url. The router never validates names, so tests whose
// replicas are stand-ins can aim any number of bags without depending on
// how the few fixture keys happen to hash.
func syntheticBagFor(t *testing.T, pool *Pool, url string) []serve.Member {
	t.Helper()
	for i := 0; i < 1000; i++ {
		ms := []serve.Member{{Benchmark: fmt.Sprintf("synthetic%d", i), Batch: 20}, {Benchmark: "synthetic", Batch: 20}}
		if pool.Route(serve.CanonicalKey(ms))[0] == url {
			return ms
		}
	}
	t.Fatalf("no synthetic bag routes first to %s", url)
	return nil
}

func batchBody(t *testing.T, bags ...[]serve.Member) string {
	t.Helper()
	req := serve.PredictRequest{}
	for _, ms := range bags {
		req.Bags = append(req.Bags, serve.Bag{Members: ms})
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRouterClientCancelDoesNotChargeReplica: a client that gives up while
// the owning replica is still working gets a 504, and the healthy replica
// is not reported — with FailAfter 1 a single wrongful report would eject
// it and open its breaker. Both with and without a (not yet fired) hedge.
func TestRouterClientCancelDoesNotChargeReplica(t *testing.T) {
	for _, hedge := range []time.Duration{0, time.Second} {
		t.Run(fmt.Sprintf("hedge=%v", hedge), func(t *testing.T) {
			_, live := newReplica(t)
			owner := stallingServer(t, 2*time.Second)
			pool, err := NewPool(PoolConfig{Replicas: []string{live.URL, owner.URL}, FailAfter: 1, ReviveAfter: 1})
			if err != nil {
				t.Fatal(err)
			}
			rt, err := NewRouter(RouterConfig{Pool: pool, HedgeDelay: hedge})
			if err != nil {
				t.Fatal(err)
			}
			body := batchBody(t, syntheticBagFor(t, pool, owner.URL))
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body)).WithContext(ctx)
			rr := httptest.NewRecorder()
			rt.Handler().ServeHTTP(rr, req)
			if rr.Code != http.StatusGatewayTimeout {
				t.Fatalf("cancelled request answered %d, want 504: %s", rr.Code, rr.Body)
			}
			if n := pool.Ejections(); n != 0 {
				t.Errorf("client cancel ejected %d replica(s): %+v", n, pool.Status())
			}
			if got := pool.BreakerState(owner.URL); got != "closed" {
				t.Errorf("owner breaker %q after a client cancel, want closed", got)
			}
		})
	}
}

// TestRouterHedgeFailureModes covers the hedged single-bag path beyond the
// slow-owner win: a dead owner replaced by the hedge, a tier where both
// candidates fail inside a one-unit budget, and a client error that comes
// back before the hedge timer.
func TestRouterHedgeFailureModes(t *testing.T) {
	dead := closedURL
	live := func(t *testing.T) string {
		_, ts := newReplica(t)
		return ts.URL
	}
	cases := []struct {
		name     string
		replicas []func(*testing.T) string // the first owns the request's bag
		budget   int
		body     string // "" means a fixture bag owned by the first replica
		wantCode int
		wantBody string
		hedges   int64
		wins     int64
		retries  int64
		spent    int64 // budgetExhausted
	}{
		{name: "dead owner, hedge answers", replicas: []func(*testing.T) string{dead, live},
			wantCode: http.StatusOK, wantBody: "predicted_gpu_bag_time_sec", hedges: 1, wins: 1, retries: 1},
		{name: "both fail, budget 1", replicas: []func(*testing.T) string{dead, dead}, budget: 1,
			wantCode: http.StatusBadGateway, wantBody: "retry budget (1) exhausted", hedges: 1, retries: 2, spent: 1},
		{name: "owner answers 400", replicas: []func(*testing.T) string{live, live},
			body:     pairBody("nosuch", 20, "surf", 20),
			wantCode: http.StatusBadRequest, wantBody: "nosuch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			urls := make([]string, len(tc.replicas))
			for i, mk := range tc.replicas {
				urls[i] = mk(t)
			}
			pool, err := NewPool(PoolConfig{Replicas: urls, FailAfter: 1, ReviveAfter: 1})
			if err != nil {
				t.Fatal(err)
			}
			rt, err := NewRouter(RouterConfig{
				Pool:           pool,
				Timeout:        30 * time.Second,
				RetryBudget:    tc.budget,
				RetryBaseDelay: time.Millisecond,
				RetryMaxDelay:  5 * time.Millisecond,
				HedgeDelay:     50 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			body := tc.body
			if body == "" {
				body = bagRoutedFirstTo(t, pool, urls[0])
			}
			rr := post(t, rt.Handler(), body)
			if rr.Code != tc.wantCode || !strings.Contains(rr.Body.String(), tc.wantBody) {
				t.Fatalf("answered %d, want %d containing %q: %s", rr.Code, tc.wantCode, tc.wantBody, rr.Body)
			}
			m := rt.metrics
			if m.hedges.Load() != tc.hedges || m.hedgeWins.Load() != tc.wins ||
				m.retries.Load() != tc.retries || m.budgetExhausted.Load() != tc.spent {
				t.Errorf("hedges=%d wins=%d retries=%d budgetExhausted=%d, want %d/%d/%d/%d",
					m.hedges.Load(), m.hedgeWins.Load(), m.retries.Load(), m.budgetExhausted.Load(),
					tc.hedges, tc.wins, tc.retries, tc.spent)
			}
		})
	}
}

// TestRouterClientErrorDoesNotWaitForStalledGroup: in a batch, a group
// whose replica answers 400 goes back to the client at once; a sibling
// group stalled on another replica is abandoned rather than waited out to
// its AttemptTimeout, and its replica is not charged for the abandonment.
func TestRouterClientErrorDoesNotWaitForStalledGroup(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		serve.WriteJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: "bag rejected"})
	}))
	t.Cleanup(bad.Close)
	stalled := stallingServer(t, 30*time.Second)
	pool, err := NewPool(PoolConfig{Replicas: []string{bad.URL, stalled.URL}, FailAfter: 1, ReviveAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	const attempt = 5 * time.Second
	rt, err := NewRouter(RouterConfig{Pool: pool, Timeout: 30 * time.Second, AttemptTimeout: attempt})
	if err != nil {
		t.Fatal(err)
	}
	body := batchBody(t, syntheticBagFor(t, pool, stalled.URL), syntheticBagFor(t, pool, bad.URL))

	start := time.Now()
	rr := post(t, rt.Handler(), body)
	elapsed := time.Since(start)
	if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), "bag rejected") {
		t.Fatalf("answered %d, want the replica's 400: %s", rr.Code, rr.Body)
	}
	if elapsed > attempt/4 {
		t.Errorf("400 took %v; the router waited for the stalled group (AttemptTimeout %v)", elapsed, attempt)
	}
	if got := pool.BreakerState(stalled.URL); got != "closed" {
		t.Errorf("stalled replica breaker %q after being abandoned, want closed", got)
	}
}
