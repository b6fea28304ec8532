// Network-level chaos: a deterministic http.RoundTripper that fires the
// same seeded fault plans the process-local injector uses, but at the
// socket boundary — added latency, connection resets, black-holes, 5xx
// bursts, and truncated response bodies.
//
// Sites are named "net.<host:port>" (NetSite) and the call index is the
// per-site request ordinal, so a plan like
//
//	blackhole|net.127.0.0.1:18081|200+
//
// black-holes every request to that replica from its 200th onward — the
// canonical "replica goes dark mid-run" scenario the chaos-serve CI job
// drives. Matching is deterministic in (plan, per-site arrival order);
// with a single-threaded client the same plan reproduces byte-identically.
package faultinject

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// NetSite returns the Transport site string for a target URL or host:port
// ("http://127.0.0.1:8080" and "127.0.0.1:8080" both map to
// "net.127.0.0.1:8080").
func NetSite(target string) string {
	if u, err := url.Parse(target); err == nil && u.Host != "" {
		return "net." + u.Host
	}
	return "net." + strings.TrimSuffix(strings.TrimPrefix(target, "http://"), "/")
}

// Transport is an http.RoundTripper that applies a fault Plan to outbound
// requests. Each request resolves against the plan at site
// NetSite(req.URL.Host) with a per-site ordinal index. Unmatched requests
// forward to Base untouched.
//
// Kind semantics at the network layer:
//   - KindDelay: sleep Fault.Delay (context-aware), then continue matching.
//   - KindError: fail without touching the wire — a connection reset.
//   - KindBlackhole: block until the request context is done, then return
//     its error — a silently dropped route.
//   - KindHTTPError: synthesize a Fault.Code (default 500) JSON response.
//   - KindTruncateBody: forward, then cut the response body after
//     Fault.KeepBytes bytes so the reader hits io.ErrUnexpectedEOF.
//
// Safe for concurrent use.
type Transport struct {
	base http.RoundTripper
	plan *matcher

	mu     sync.Mutex
	counts map[string]int
}

// NewTransport wraps base (nil means http.DefaultTransport) with plan.
func NewTransport(base http.RoundTripper, plan Plan) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{
		base:   base,
		plan:   newMatcher(plan),
		counts: make(map[string]int),
	}
}

// Requests reports how many requests the transport has seen for site,
// faulted or not. Chaos tests use it to assert breaker behavior ("the
// black-holed replica stopped receiving attempts").
func (t *Transport) Requests(site string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[site]
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	site := "net." + req.URL.Host
	t.mu.Lock()
	index := t.counts[site]
	t.counts[site] = index + 1
	t.mu.Unlock()

	terminal, delays := t.plan.match(site, index)
	for _, d := range delays {
		select {
		case <-time.After(d):
		case <-req.Context().Done():
			return nil, fmt.Errorf("faultinject: delayed request to %s[%d] cancelled: %w", site, index, req.Context().Err())
		}
	}
	if terminal == nil {
		return t.base.RoundTrip(req)
	}
	switch terminal.Kind {
	case KindError:
		return nil, &Error{Site: site, Index: index}
	case KindPanic:
		panic(&Panic{Site: site, Index: index})
	case KindBlackhole:
		<-req.Context().Done()
		return nil, fmt.Errorf("faultinject: black-holed request to %s[%d]: %w", site, index, req.Context().Err())
	case KindHTTPError:
		code := terminal.Code
		if code == 0 {
			code = http.StatusInternalServerError
		}
		body := fmt.Sprintf("{\"error\":\"faultinject: injected %d at %s[%d]\"}\n", code, site, index)
		resp := &http.Response{
			Status:        fmt.Sprintf("%d %s", code, http.StatusText(code)),
			StatusCode:    code,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{"Content-Type": []string{"application/json"}},
			Body:          io.NopCloser(bytes.NewReader([]byte(body))),
			ContentLength: int64(len(body)),
			Request:       req,
		}
		return resp, nil
	case KindTruncateBody:
		resp, err := t.base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &truncatedBody{rc: resp.Body, remain: terminal.KeepBytes, site: site, index: index}
		return resp, nil
	}
	return t.base.RoundTrip(req)
}

// truncatedBody passes through the first remain bytes and then fails with
// io.ErrUnexpectedEOF, like a connection cut mid-body.
type truncatedBody struct {
	rc     io.ReadCloser
	remain int
	site   string
	index  int
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.remain <= 0 {
		return 0, fmt.Errorf("faultinject: response body truncated at %s[%d]: %w", b.site, b.index, io.ErrUnexpectedEOF)
	}
	if len(p) > b.remain {
		p = p[:b.remain]
	}
	n, err := b.rc.Read(p)
	b.remain -= n
	if err == io.EOF {
		// The upstream body really ended inside the keep window; the
		// truncation never bit. Report the clean EOF.
		return n, err
	}
	return n, err
}

func (b *truncatedBody) Close() error { return b.rc.Close() }

// ParsePlan parses a comma-separated list of fault specs into a Plan, the
// wire format of mapc-router's -chaos flag. Each spec is
//
//	kind|site|index[|opt=val[;opt=val...]]
//
// kind: error, blackhole, http-error, truncate-body, delay, panic,
// torn-write. site:  e.g. net.127.0.0.1:18081 (| is the separator because
// sites contain colons). index: a decimal number, "*" (every call), or
// "N+" (call N onward). opts: delay=<duration>, code=<status>,
// keep=<bytes>, once.
func ParsePlan(specs string) (Plan, error) {
	var plan Plan
	for _, spec := range strings.Split(specs, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		f, err := parseFault(spec)
		if err != nil {
			return Plan{}, err
		}
		plan.Faults = append(plan.Faults, f)
	}
	return plan, nil
}

func parseFault(spec string) (Fault, error) {
	parts := strings.Split(spec, "|")
	if len(parts) < 3 || len(parts) > 4 {
		return Fault{}, fmt.Errorf("faultinject: spec %q: want kind|site|index[|opts]", spec)
	}
	var f Fault
	switch parts[0] {
	case "error":
		f.Kind = KindError
	case "panic":
		f.Kind = KindPanic
	case "delay":
		f.Kind = KindDelay
	case "torn-write":
		f.Kind = KindTornWrite
	case "blackhole":
		f.Kind = KindBlackhole
	case "http-error":
		f.Kind = KindHTTPError
	case "truncate-body":
		f.Kind = KindTruncateBody
	default:
		return Fault{}, fmt.Errorf("faultinject: spec %q: unknown kind %q", spec, parts[0])
	}
	f.Site = parts[1]
	if f.Site == "" {
		return Fault{}, fmt.Errorf("faultinject: spec %q: empty site", spec)
	}
	idx := parts[2]
	switch {
	case idx == "*":
		f.Index = AnyIndex
	case strings.HasSuffix(idx, "+"):
		from, ok := parseOrdinal(strings.TrimSuffix(idx, "+"))
		if !ok {
			return Fault{}, fmt.Errorf("faultinject: spec %q: bad index %q", spec, idx)
		}
		f.Index = AnyIndex
		f.From = from
	default:
		n, ok := parseOrdinal(idx)
		if !ok {
			return Fault{}, fmt.Errorf("faultinject: spec %q: bad index %q", spec, idx)
		}
		f.Index = n
	}
	if len(parts) == 4 {
		for _, opt := range strings.Split(parts[3], ";") {
			opt = strings.TrimSpace(opt)
			if opt == "" {
				continue
			}
			key, val, _ := strings.Cut(opt, "=")
			switch key {
			case "delay":
				d, err := time.ParseDuration(val)
				if err == nil && d < 0 {
					err = errors.New("negative")
				}
				if err != nil {
					return Fault{}, fmt.Errorf("faultinject: spec %q: bad delay %q: %v", spec, val, err)
				}
				f.Delay = d
			case "code":
				c, err := strconv.Atoi(val)
				if err != nil || c < 100 || c > 599 {
					return Fault{}, fmt.Errorf("faultinject: spec %q: bad code %q", spec, val)
				}
				f.Code = c
			case "keep":
				k, err := strconv.Atoi(val)
				if err != nil || k < 0 {
					return Fault{}, fmt.Errorf("faultinject: spec %q: bad keep %q", spec, val)
				}
				f.KeepBytes = k
			case "once":
				f.Once = true
			default:
				return Fault{}, fmt.Errorf("faultinject: spec %q: unknown option %q", spec, key)
			}
		}
	}
	return f, nil
}

// parseOrdinal parses a call ordinal: decimal digits only, so signed
// forms strconv.Atoi would take ("+5", "-0") are refused.
func parseOrdinal(s string) (int, bool) {
	if s == "" || strings.TrimLeft(s, "0123456789") != "" {
		return 0, false
	}
	n, err := strconv.Atoi(s)
	return n, err == nil
}

// RandomNetworkPlan derives a deterministic mixed network-fault plan for
// site: roughly one in eight of the first n request ordinals gets a fault,
// cycling through added latency, connection resets, 5xx answers, and
// truncated bodies. The same (seed, site, n) always yields the same plan,
// so a chaos failure reproduces from its seed.
func RandomNetworkPlan(seed uint64, site string, n int) Plan {
	if n <= 0 {
		return Plan{}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	count := n / 8
	if count < 1 {
		count = 1
	}
	picked := make(map[int]bool, count)
	for len(picked) < count && len(picked) < n {
		picked[rng.Intn(n)] = true
	}
	indices := make([]int, 0, len(picked))
	for idx := range picked {
		indices = append(indices, idx)
	}
	sort.Ints(indices)
	var plan Plan
	for i, idx := range indices {
		f := Fault{Site: site, Index: idx, Once: true}
		switch i % 4 {
		case 0:
			f.Kind = KindDelay
			f.Delay = time.Duration(1+rng.Intn(10)) * time.Millisecond
		case 1:
			f.Kind = KindError
		case 2:
			f.Kind = KindHTTPError
			f.Code = []int{500, 502, 500}[rng.Intn(3)]
		case 3:
			f.Kind = KindTruncateBody
			f.KeepBytes = rng.Intn(64)
		}
		plan.Faults = append(plan.Faults, f)
	}
	return plan
}
