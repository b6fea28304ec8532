package cluster

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fakeClock drives the pool's injectable now() deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// breakerPool builds a pool over fake URLs (no servers: these tests drive
// state through ReportFailure/ReportSuccess, never the prober) with a fake
// clock installed.
func breakerPool(t *testing.T, mut func(*PoolConfig)) (*Pool, *fakeClock) {
	t.Helper()
	cfg := PoolConfig{
		Replicas:        []string{"http://replica-a:1", "http://replica-b:1"},
		FailAfter:       3,
		ReviveAfter:     2,
		BreakerCooldown: 5 * time.Second,
	}
	if mut != nil {
		mut(&cfg)
	}
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	p.now = clk.now
	return p, clk
}

// TestBreakerLifecycle walks the full state machine on a fake clock:
// closed → (FailAfter request failures) → open → (cooldown) → half-open
// with a single admitted trial → (trial success) → closed.
// breakerOf returns url's breaker state from p.Status(), or "" for an
// unknown URL.
func breakerOf(p *Pool, url string) string {
	for _, st := range p.Status() {
		if st.URL == url {
			return st.Breaker
		}
	}
	return ""
}

func TestBreakerLifecycle(t *testing.T) {
	p, clk := breakerPool(t, nil)
	const url = "http://replica-a:1"

	if got := breakerOf(p, url); got != "closed" {
		t.Fatalf("boot breaker state %q, want closed", got)
	}
	if !p.Allow(url) {
		t.Fatal("closed breaker rejected a request")
	}

	// FailAfter-1 failures keep it closed; the next one opens it.
	for i := 0; i < 2; i++ {
		p.ReportFailure(url, errors.New("connection refused"))
	}
	if got := breakerOf(p, url); got != "closed" {
		t.Fatalf("after FailAfter-1 failures state %q, want closed", got)
	}
	p.ReportFailure(url, errors.New("connection refused"))
	if got := breakerOf(p, url); got != "open" {
		t.Fatalf("after FailAfter failures state %q, want open", got)
	}
	if p.HealthyCount() != 1 {
		t.Fatalf("HealthyCount = %d after ejection, want 1", p.HealthyCount())
	}
	if p.Ejections() != 1 {
		t.Fatalf("Ejections = %d, want 1", p.Ejections())
	}

	// Open rejects until the cooldown elapses — and counts the skips.
	if p.Allow(url) {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}
	clk.advance(4999 * time.Millisecond)
	if p.Allow(url) {
		t.Fatal("open breaker admitted a request 1ms before the cooldown elapsed")
	}
	if p.BreakerSkips() != 2 {
		t.Fatalf("BreakerSkips = %d, want 2", p.BreakerSkips())
	}

	// Cooldown over: exactly one half-open trial is admitted.
	clk.advance(1 * time.Millisecond)
	if !p.Allow(url) {
		t.Fatal("breaker did not admit the half-open trial after the cooldown")
	}
	if got := breakerOf(p, url); got != "half-open" {
		t.Fatalf("state %q after trial admission, want half-open", got)
	}
	if p.Allow(url) {
		t.Fatal("half-open breaker admitted a second concurrent trial")
	}

	// Trial success closes the breaker and re-admits the replica.
	p.ReportSuccess(url)
	if got := breakerOf(p, url); got != "closed" {
		t.Fatalf("state %q after trial success, want closed", got)
	}
	if p.HealthyCount() != 2 {
		t.Fatalf("HealthyCount = %d after close, want 2", p.HealthyCount())
	}
	if p.Readmissions() != 1 {
		t.Fatalf("Readmissions = %d, want 1", p.Readmissions())
	}
	// A closed breaker needs a fresh FailAfter streak to reopen — the
	// failure count was reset on close.
	p.ReportFailure(url, errors.New("hiccup"))
	if got := breakerOf(p, url); got != "closed" {
		t.Fatalf("one failure after close reopened the breaker (state %q)", got)
	}
}

// TestBreakerHalfOpenTrialFailureReopens pins the punishment path: a
// failed trial re-opens the breaker with a *fresh* cooldown from the
// failure, not the original opening.
func TestBreakerHalfOpenTrialFailureReopens(t *testing.T) {
	p, clk := breakerPool(t, nil)
	const url = "http://replica-a:1"
	for i := 0; i < 3; i++ {
		p.ReportFailure(url, errors.New("down"))
	}
	clk.advance(5 * time.Second)
	if !p.Allow(url) {
		t.Fatal("trial not admitted after cooldown")
	}
	p.ReportFailure(url, errors.New("still down"))
	if got := breakerOf(p, url); got != "open" {
		t.Fatalf("state %q after failed trial, want open", got)
	}
	// The fresh cooldown starts at the trial failure: 4s later it is still
	// rejecting; a full 5s admits the next trial.
	clk.advance(4 * time.Second)
	if p.Allow(url) {
		t.Fatal("re-opened breaker admitted a request before the fresh cooldown elapsed")
	}
	clk.advance(1 * time.Second)
	if !p.Allow(url) {
		t.Fatal("re-opened breaker never reached half-open again")
	}
	// This time the trial succeeds.
	p.ReportSuccess(url)
	if got := breakerOf(p, url); got != "closed" {
		t.Fatalf("state %q after second trial success, want closed", got)
	}
}

// TestBreakerOpenFailuresDoNotExtendCooldown pins the dark-replica rule:
// probe failures while the breaker is open must not push openedAt forward,
// or a continuously-probed dead replica would never reach half-open.
func TestBreakerOpenFailuresDoNotExtendCooldown(t *testing.T) {
	p, clk := breakerPool(t, nil)
	const url = "http://replica-a:1"
	for i := 0; i < 3; i++ {
		p.ReportFailure(url, errors.New("down"))
	}
	// Keep failing every second while open (as the prober would).
	for i := 0; i < 4; i++ {
		clk.advance(1 * time.Second)
		p.ReportFailure(url, errors.New("probe: still down"))
	}
	clk.advance(1 * time.Second) // 5s since opening, despite constant failures
	if !p.Allow(url) {
		t.Fatal("open-state failures extended the cooldown; half-open never reached")
	}
}

// TestBreakerClosedByProbeRevival pins the probe ↔ breaker agreement: a
// replica ejected by request-path failures is re-admitted (breaker closed)
// purely by ReviveAfter healthy probe rounds — no trial request needed —
// and the half-open trial slot is cleared with it.
func TestBreakerClosedByProbeRevival(t *testing.T) {
	p, toggles := newTogglePool(t, 2, func(c *PoolConfig) {
		c.FailAfter = 2
		c.ReviveAfter = 2
	})
	clk := newFakeClock()
	p.now = clk.now
	ctx := context.Background()
	url := p.cfg.Replicas[0]

	// Eject via the request path while the replica's healthz is down.
	toggles[0].down.Store(true)
	p.ReportFailure(url, errors.New("request failed"))
	p.ReportFailure(url, errors.New("request failed"))
	if got := breakerOf(p, url); got != "open" {
		t.Fatalf("state %q after request-path ejection, want open", got)
	}

	// One failing probe round while open: stays open, stays unhealthy.
	p.Probe(ctx)
	if got := breakerOf(p, url); got != "open" {
		t.Fatalf("state %q after failing probe, want open", got)
	}

	// Replica recovers; ReviveAfter probe rounds close the breaker without
	// any trial traffic.
	toggles[0].down.Store(false)
	p.Probe(ctx)
	if got := breakerOf(p, url); got != "open" {
		t.Fatalf("state %q after one healthy probe, want still open (ReviveAfter=2)", got)
	}
	p.Probe(ctx)
	if got := breakerOf(p, url); got != "closed" {
		t.Fatalf("state %q after ReviveAfter healthy probes, want closed", got)
	}
	if !p.Allow(url) {
		t.Fatal("probe-revived replica rejected a request")
	}
	st := p.Status()
	if st[0].Breaker != "closed" || !st[0].Healthy {
		t.Fatalf("Status[0] = %+v, want closed/healthy", st[0])
	}
}

// TestBreakerHalfOpenProbeInterplay pins the asymmetric-threshold corner:
// a half-open breaker whose trial is still in flight closes early when
// probes alone accumulate ReviveAfter successes — and the trial's eventual
// ReportSuccess on the now-closed breaker is a harmless no-op.
func TestBreakerHalfOpenProbeInterplay(t *testing.T) {
	p, toggles := newTogglePool(t, 2, func(c *PoolConfig) {
		c.FailAfter = 2
		c.ReviveAfter = 2
		c.BreakerCooldown = time.Second
	})
	clk := newFakeClock()
	p.now = clk.now
	ctx := context.Background()
	url := p.cfg.Replicas[0]

	p.ReportFailure(url, errors.New("down"))
	p.ReportFailure(url, errors.New("down"))
	clk.advance(time.Second)
	if !p.Allow(url) {
		t.Fatal("trial not admitted")
	}
	// While the trial is in flight, the replica answers probes again.
	toggles[0].down.Store(false)
	p.Probe(ctx)
	p.Probe(ctx)
	if got := breakerOf(p, url); got != "closed" {
		t.Fatalf("state %q after ReviveAfter probes during the trial, want closed", got)
	}
	readmitted := p.Readmissions()
	p.ReportSuccess(url) // the trial lands late: no double-count
	if p.Readmissions() != readmitted {
		t.Fatal("late trial success double-counted a re-admission")
	}
	// The trial slot must have been cleared by the close: a fresh ejection
	// and cooldown admits a new trial.
	p.ReportFailure(url, errors.New("down again"))
	p.ReportFailure(url, errors.New("down again"))
	clk.advance(time.Second)
	if !p.Allow(url) {
		t.Fatal("stale trial flag survived the close; new trial rejected")
	}
}

// TestPoolConcurrentBreakerRace hammers every public entry point from
// concurrent goroutines — request-path reports racing the prober racing
// Route/Allow/Status readers — while the replicas' health flips. Run
// under -race this pins the locking discipline; the only invariant
// asserted is that the pool ends functional (a final revive round
// re-admits everything).
func TestPoolConcurrentBreakerRace(t *testing.T) {
	p, toggles := newTogglePool(t, 3, func(c *PoolConfig) {
		c.FailAfter = 2
		c.ReviveAfter = 2
		c.BreakerCooldown = time.Millisecond
	})
	ctx := context.Background()
	urls := p.cfg.Replicas

	var wg sync.WaitGroup
	stop := make(chan struct{})
	worker := func(f func(r *rand.Rand)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(len(urls))))
			for {
				select {
				case <-stop:
					return
				default:
					f(r)
				}
			}
		}()
	}
	// Request-path reporters: random successes and failures.
	for i := 0; i < 4; i++ {
		worker(func(r *rand.Rand) {
			u := urls[r.Intn(len(urls))]
			if p.Allow(u) && r.Intn(2) == 0 {
				p.ReportSuccess(u)
			} else {
				p.ReportFailure(u, errors.New("synthetic"))
			}
		})
	}
	// Health flippers.
	worker(func(r *rand.Rand) {
		toggles[r.Intn(len(toggles))].down.Store(r.Intn(2) == 0)
	})
	// The prober.
	worker(func(*rand.Rand) { p.Probe(ctx) })
	// Readers.
	worker(func(r *rand.Rand) {
		_ = p.Route("bag-key")
		_ = p.Status()
		_ = p.HealthyCount()
		_ = p.BreakerSkips()
		_ = breakerOf(p, urls[r.Intn(len(urls))])
	})

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The pool must still function: all replicas up, enough probe rounds
	// close every breaker.
	for _, tg := range toggles {
		tg.down.Store(false)
	}
	for i := 0; i < 3; i++ {
		p.Probe(ctx)
	}
	if p.HealthyCount() != len(urls) {
		t.Fatalf("HealthyCount = %d after full revival, want %d (status %+v)",
			p.HealthyCount(), len(urls), p.Status())
	}
	for _, u := range urls {
		if !p.Allow(u) {
			t.Errorf("replica %s still breaker-rejected after revival", u)
		}
	}
}
