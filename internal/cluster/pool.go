package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Health-probe defaults.
const (
	DefaultProbeInterval = 2 * time.Second
	DefaultProbeTimeout  = 1 * time.Second
	// DefaultFailAfter consecutive probe failures eject a replica;
	// DefaultReviveAfter consecutive successes re-admit it. Asymmetric on
	// purpose: ejection should be quick (requests are failing), re-entry
	// slightly sticky (a flapping replica shouldn't churn the ring).
	DefaultFailAfter   = 3
	DefaultReviveAfter = 2
	// DefaultBreakerCooldown is how long an opened breaker rejects traffic
	// before letting one half-open trial request through.
	DefaultBreakerCooldown = 5 * time.Second
)

// breakerState is the per-replica circuit-breaker state, and the only
// health record: closed is healthy; open and half-open are both "ejected"
// as far as Route ordering is concerned.
type breakerState int

const (
	brkClosed breakerState = iota
	brkOpen
	brkHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case brkClosed:
		return "closed"
	case brkOpen:
		return "open"
	case brkHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("breakerState(%d)", int(s))
}

// PoolConfig configures replica membership.
type PoolConfig struct {
	// Replicas are the member base URLs (e.g. "http://127.0.0.1:8081");
	// required, order defines identity. Every replica stays on the hash
	// ring permanently — health only decides whether traffic routed to it
	// is diverted to the next ring node — so a recovered replica gets its
	// original keyspace (and its warm cache) back.
	Replicas []string
	// VirtualNodes per replica on the ring; 0 means DefaultVirtualNodes.
	VirtualNodes int
	// Client performs health probes; nil means a client bounded by
	// ProbeTimeout.
	Client *http.Client
	// ProbeInterval between health rounds for Start; 0 means
	// DefaultProbeInterval.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz request; 0 means
	// DefaultProbeTimeout.
	ProbeTimeout time.Duration
	// FailAfter / ReviveAfter are the consecutive-probe thresholds; 0
	// means the defaults.
	FailAfter   int
	ReviveAfter int
	// BreakerCooldown is how long an opened breaker stays fully open
	// before Allow admits a single half-open trial; 0 means
	// DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// Logf reports membership transitions (ejections, re-admissions);
	// nil discards them.
	Logf func(format string, args ...any)
}

// replicaState tracks one member's breaker state; the member is healthy
// exactly when brk == brkClosed.
type replicaState struct {
	url       string
	succ      int // consecutive probe successes
	fail      int // consecutive probe failures (or reported ones)
	lastError string

	brk      breakerState
	openedAt time.Time // when brk last entered brkOpen
	trial    bool      // a half-open trial request is in flight
}

// ReplicaStatus is a point-in-time public view of one member.
type ReplicaStatus struct {
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	Breaker   string `json:"breaker"`
	LastError string `json:"last_error,omitempty"`
}

// Pool is the health-checked membership set: a fixed replica list, a
// consistent-hash ring over all of it, and a circuit breaker per replica
// whose closed state is its health. Probes and request-path reports feed
// that one state machine, so the breaker and the prober never disagree
// about a replica. All methods are safe for concurrent use.
type Pool struct {
	cfg  PoolConfig
	ring *Ring
	now  func() time.Time // injectable for deterministic breaker tests

	mu       sync.Mutex
	replicas []*replicaState

	ejections    int64
	readmissions int64
	breakerSkips int64
}

// NewPool validates the config and returns a pool with every replica
// optimistically healthy — a router boots usable before the first probe
// round, and a genuinely dead replica costs FailAfter probes.
func NewPool(cfg PoolConfig) (*Pool, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: pool needs at least one replica")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = DefaultProbeTimeout
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = DefaultFailAfter
	}
	if cfg.ReviveAfter <= 0 {
		cfg.ReviveAfter = DefaultReviveAfter
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = DefaultBreakerCooldown
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: cfg.ProbeTimeout}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ring, err := NewRing(cfg.Replicas, cfg.VirtualNodes)
	if err != nil {
		return nil, err
	}
	p := &Pool{cfg: cfg, ring: ring, now: time.Now}
	for _, u := range cfg.Replicas {
		p.replicas = append(p.replicas, &replicaState{url: u, brk: brkClosed})
	}
	return p, nil
}

// Route returns the replicas to try for key, healthiest-preference order:
// the key's owner and ring-order fallbacks, healthy members first. The
// full candidate list is returned (never empty) so a caller can still try
// ejected replicas when everything is marked down — a pool that sheds all
// traffic on a flaky probe round would turn a monitoring blip into an
// outage.
func (p *Pool) Route(key string) []string {
	candidates := p.ring.LookupN(key, len(p.cfg.Replicas))
	p.mu.Lock()
	healthy := make(map[string]bool, len(p.replicas))
	for _, r := range p.replicas {
		healthy[r.url] = r.brk == brkClosed
	}
	p.mu.Unlock()
	// Stable partition: healthy candidates keep ring order, then ejected
	// ones as a last resort.
	out := make([]string, 0, len(candidates))
	for _, c := range candidates {
		if healthy[c] {
			out = append(out, c)
		}
	}
	for _, c := range candidates {
		if !healthy[c] {
			out = append(out, c)
		}
	}
	return out
}

// ReportFailure records a request-path failure against url (network error
// or 5xx while forwarding): passive detection between probe rounds. It
// counts like a failed probe, so FailAfter request failures eject the
// replica without waiting for the prober.
func (p *Pool) ReportFailure(url string, err error) {
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.replicas {
		if r.url == url {
			p.failLocked(r, msg)
			return
		}
	}
}

// Probe runs one synchronous health round: GET /healthz on every replica
// concurrently. Exported so tests (and the loadgen harness) can step
// membership deterministically instead of sleeping through intervals.
func (p *Pool) Probe(ctx context.Context) {
	var wg sync.WaitGroup
	results := make([]error, len(p.cfg.Replicas))
	for i, u := range p.cfg.Replicas {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			results[i] = p.probeOne(ctx, u)
		}(i, u)
	}
	wg.Wait()

	p.mu.Lock()
	defer p.mu.Unlock()
	for i, r := range p.replicas {
		if err := results[i]; err != nil {
			p.failLocked(r, err.Error())
		} else {
			p.succeedLocked(r)
		}
	}
}

// probeOne checks one replica's /healthz.
func (p *Pool) probeOne(ctx context.Context, baseURL string) error {
	ctx, cancel := context.WithTimeout(ctx, p.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := p.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz answered %d", resp.StatusCode)
	}
	// Require a parseable health body: a load balancer answering 200 with
	// an HTML error page must not count as a live replica.
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return fmt.Errorf("healthz body: %v", err)
	}
	if body.Status != "ok" {
		return fmt.Errorf("healthz status %q", body.Status)
	}
	return nil
}

// failLocked and succeedLocked apply the consecutive-count thresholds and
// drive the breaker state machine. Callers hold p.mu.
func (p *Pool) failLocked(r *replicaState, msg string) {
	r.succ = 0
	r.fail++
	r.lastError = msg
	r.trial = false
	switch r.brk {
	case brkClosed:
		if r.fail >= p.cfg.FailAfter {
			r.brk = brkOpen
			r.openedAt = p.now()
			p.ejections++
			p.cfg.Logf("cluster: ejecting %s after %d consecutive failures, breaker open (%s)", r.url, r.fail, msg)
		}
	case brkHalfOpen:
		// The trial (or a probe racing it) failed: back to open with a
		// fresh cooldown.
		r.brk = brkOpen
		r.openedAt = p.now()
		p.cfg.Logf("cluster: half-open trial for %s failed, breaker re-opened (%s)", r.url, msg)
	case brkOpen:
		// Failures while open (last-resort routing, probes) don't extend
		// the cooldown: a replica that stays dark keeps failing probes
		// and would otherwise never reach half-open.
	}
}

func (p *Pool) succeedLocked(r *replicaState) {
	r.fail = 0
	r.succ++
	r.lastError = ""
	if r.brk != brkClosed && r.succ >= p.cfg.ReviveAfter {
		p.closeLocked(r, fmt.Sprintf("%d consecutive healthy probes", r.succ))
	}
}

// closeLocked re-admits a replica: breaker closed, healthy again.
func (p *Pool) closeLocked(r *replicaState, why string) {
	r.brk = brkClosed
	r.trial = false
	r.fail = 0
	p.readmissions++
	p.cfg.Logf("cluster: re-admitting %s, breaker closed (%s)", r.url, why)
}

// ReportSuccess records a request-path success against url. It resets the
// passive failure streak, and a success on a half-open trial closes the
// breaker immediately — real traffic is at least as strong a liveness
// signal as a probe.
func (p *Pool) ReportSuccess(url string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.replicas {
		if r.url != url {
			continue
		}
		r.fail = 0
		if r.brk == brkHalfOpen {
			p.closeLocked(r, "half-open trial succeeded")
		}
		return
	}
}

// Allow reports whether a request may be forwarded to url right now.
// Closed always admits. Open admits nothing until BreakerCooldown has
// elapsed, at which point the breaker moves to half-open and this call
// claims the single trial slot. Half-open admits exactly one in-flight
// trial; the trial's ReportSuccess / ReportFailure decides what happens
// next. Unknown URLs are allowed (the router's candidate lists only ever
// contain pool members, so this is belt and braces).
func (p *Pool) Allow(url string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.replicas {
		if r.url != url {
			continue
		}
		switch r.brk {
		case brkClosed:
			return true
		case brkOpen:
			if p.now().Sub(r.openedAt) >= p.cfg.BreakerCooldown {
				r.brk = brkHalfOpen
				r.trial = true
				p.cfg.Logf("cluster: breaker for %s half-open, admitting trial request", r.url)
				return true
			}
			p.breakerSkips++
			return false
		case brkHalfOpen:
			if !r.trial {
				r.trial = true
				return true
			}
			p.breakerSkips++
			return false
		}
	}
	return true
}

// BreakerState returns url's breaker state string ("closed", "open",
// "half-open"), or "" for an unknown URL.
func (p *Pool) BreakerState(url string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.replicas {
		if r.url == url {
			return r.brk.String()
		}
	}
	return ""
}

// BreakerSkips returns how many forward attempts the breakers rejected.
func (p *Pool) BreakerSkips() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.breakerSkips
}

// Start probes on the configured interval until ctx is cancelled. Run it
// in a goroutine; it performs one immediate round first so a dead replica
// configured at boot is ejected within FailAfter*interval, not one extra.
func (p *Pool) Start(ctx context.Context) {
	p.Probe(ctx)
	t := time.NewTicker(p.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.Probe(ctx)
		}
	}
}

// Status snapshots every member's health, in configuration order.
func (p *Pool) Status() []ReplicaStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ReplicaStatus, len(p.replicas))
	for i, r := range p.replicas {
		out[i] = ReplicaStatus{URL: r.url, Healthy: r.brk == brkClosed, Breaker: r.brk.String(), LastError: r.lastError}
	}
	return out
}

// HealthyCount returns how many members are currently admitted.
func (p *Pool) HealthyCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, r := range p.replicas {
		if r.brk == brkClosed {
			n++
		}
	}
	return n
}

// Ejections and Readmissions return the lifetime transition counters.
func (p *Pool) Ejections() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ejections
}

func (p *Pool) Readmissions() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.readmissions
}
