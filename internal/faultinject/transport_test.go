package faultinject

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func newEchoServer(t *testing.T, body string) (*httptest.Server, string) {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, body)
	}))
	t.Cleanup(srv.Close)
	return srv, NetSite(srv.URL)
}

func TestNetSite(t *testing.T) {
	cases := map[string]string{
		"http://127.0.0.1:8080":  "net.127.0.0.1:8080",
		"http://127.0.0.1:8080/": "net.127.0.0.1:8080",
		"127.0.0.1:9090":         "net.127.0.0.1:9090",
	}
	for in, want := range cases {
		if got := NetSite(in); got != want {
			t.Errorf("NetSite(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTransportPassthrough(t *testing.T) {
	srv, _ := newEchoServer(t, "hello")
	client := &http.Client{Transport: NewTransport(nil, Plan{})}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("passthrough GET: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if string(b) != "hello" {
		t.Fatalf("body = %q, want hello", b)
	}
}

func TestTransportConnectionReset(t *testing.T) {
	srv, site := newEchoServer(t, "hello")
	tr := NewTransport(nil, Plan{Faults: []Fault{{Site: site, Index: 1, Kind: KindError}}})
	client := &http.Client{Transport: tr}

	if _, err := client.Get(srv.URL); err != nil {
		t.Fatalf("request 0 should pass: %v", err)
	}
	_, err := client.Get(srv.URL)
	if err == nil {
		t.Fatal("request 1 should fail with injected reset")
	}
	var inj *Error
	if !errors.As(err, &inj) || inj.Site != site || inj.Index != 1 {
		t.Fatalf("want *Error at %s[1], got %v", site, err)
	}
	if _, err := client.Get(srv.URL); err != nil {
		t.Fatalf("request 2 should pass: %v", err)
	}
	if got := tr.Requests(site); got != 3 {
		t.Fatalf("Requests(%s) = %d, want 3", site, got)
	}
}

func TestTransportBlackholeUntilContextDone(t *testing.T) {
	srv, site := newEchoServer(t, "hello")
	tr := NewTransport(nil, Plan{Faults: []Fault{{Site: site, Index: AnyIndex, Kind: KindBlackhole}}})
	client := &http.Client{Transport: tr}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	start := time.Now()
	_, err := client.Do(req)
	if err == nil {
		t.Fatal("black-holed request should fail")
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("black-hole returned after %v, before the context deadline", elapsed)
	}
}

func TestTransportHTTPError(t *testing.T) {
	srv, site := newEchoServer(t, "hello")
	tr := NewTransport(nil, Plan{Faults: []Fault{{Site: site, Index: 0, Kind: KindHTTPError, Code: 502}}})
	client := &http.Client{Transport: tr}

	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("injected 5xx should be a response, not a transport error: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 502 {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
	b, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(b), "faultinject") {
		t.Fatalf("body %q should name the injection", b)
	}
}

func TestTransportTruncateBody(t *testing.T) {
	long := strings.Repeat("x", 4096)
	srv, site := newEchoServer(t, long)
	tr := NewTransport(nil, Plan{Faults: []Fault{{Site: site, Index: 0, Kind: KindTruncateBody, KeepBytes: 100}}})
	client := &http.Client{Transport: tr}

	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("truncated response should still connect: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatal("reading a truncated body should fail")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want io.ErrUnexpectedEOF, got %v", err)
	}
	if len(b) > 100 {
		t.Fatalf("read %d bytes, want <= 100", len(b))
	}
}

func TestTransportTruncateKeepLargerThanBody(t *testing.T) {
	srv, site := newEchoServer(t, "tiny")
	tr := NewTransport(nil, Plan{Faults: []Fault{{Site: site, Index: 0, Kind: KindTruncateBody, KeepBytes: 1 << 20}}})
	client := &http.Client{Transport: tr}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || string(b) != "tiny" {
		t.Fatalf("keep window larger than body should read cleanly; got %q, %v", b, err)
	}
}

func TestTransportDelayThenForward(t *testing.T) {
	srv, site := newEchoServer(t, "slow")
	tr := NewTransport(nil, Plan{Faults: []Fault{{Site: site, Index: 0, Kind: KindDelay, Delay: 30 * time.Millisecond}}})
	client := &http.Client{Transport: tr}
	start := time.Now()
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("delayed request returned in %v, want >= 30ms", elapsed)
	}
}

func TestTransportFromWindow(t *testing.T) {
	srv, site := newEchoServer(t, "ok")
	tr := NewTransport(nil, Plan{Faults: []Fault{{Site: site, Index: AnyIndex, From: 3, Kind: KindError}}})
	client := &http.Client{Transport: tr}
	for i := 0; i < 3; i++ {
		if _, err := client.Get(srv.URL); err != nil {
			t.Fatalf("request %d before the window should pass: %v", i, err)
		}
	}
	for i := 3; i < 6; i++ {
		if _, err := client.Get(srv.URL); err == nil {
			t.Fatalf("request %d inside the window should fail", i)
		}
	}
}

func TestInjectorFromWindow(t *testing.T) {
	in := New(Plan{Faults: []Fault{{Site: "s", Index: AnyIndex, From: 2, Kind: KindError}}})
	for i := 0; i < 2; i++ {
		if err := Fire(in, "s", i); err != nil {
			t.Fatalf("index %d before the window: %v", i, err)
		}
	}
	if err := Fire(in, "s", 2); err == nil {
		t.Fatal("index 2 should fire")
	}
}

func TestTransportConcurrentUse(t *testing.T) {
	srv, site := newEchoServer(t, "ok")
	tr := NewTransport(nil, RandomNetworkPlan(42, site, 64))
	client := &http.Client{Transport: tr}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				resp, err := client.Get(srv.URL)
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	if got := tr.Requests(site); got != 128 {
		t.Fatalf("Requests = %d, want 128", got)
	}
}

func TestRandomNetworkPlanDeterministic(t *testing.T) {
	a := RandomNetworkPlan(7, "net.x:1", 256)
	b := RandomNetworkPlan(7, "net.x:1", 256)
	if len(a.Faults) == 0 {
		t.Fatal("plan should contain faults")
	}
	if len(a.Faults) != len(b.Faults) {
		t.Fatalf("plan sizes differ: %d vs %d", len(a.Faults), len(b.Faults))
	}
	for i := range a.Faults {
		if a.Faults[i] != b.Faults[i] {
			t.Fatalf("fault %d differs: %+v vs %+v", i, a.Faults[i], b.Faults[i])
		}
	}
	c := RandomNetworkPlan(8, "net.x:1", 256)
	same := len(a.Faults) == len(c.Faults)
	if same {
		for i := range a.Faults {
			if a.Faults[i] != c.Faults[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds should yield different plans")
	}
}

func TestParsePlan(t *testing.T) {
	plan, err := ParsePlan("blackhole|net.127.0.0.1:18081|200+, http-error|net.a:1|*|code=502;once, delay|net.b:2|5|delay=15ms, truncate-body|net.c:3|0|keep=32")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	want := []Fault{
		{Site: "net.127.0.0.1:18081", Index: AnyIndex, From: 200, Kind: KindBlackhole},
		{Site: "net.a:1", Index: AnyIndex, Kind: KindHTTPError, Code: 502, Once: true},
		{Site: "net.b:2", Index: 5, Kind: KindDelay, Delay: 15 * time.Millisecond},
		{Site: "net.c:3", Index: 0, Kind: KindTruncateBody, KeepBytes: 32},
	}
	if len(plan.Faults) != len(want) {
		t.Fatalf("got %d faults, want %d", len(plan.Faults), len(want))
	}
	for i := range want {
		if plan.Faults[i] != want[i] {
			t.Errorf("fault %d = %+v, want %+v", i, plan.Faults[i], want[i])
		}
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus|net.a:1|0",
		"error|net.a:1",
		"error||0",
		"error|net.a:1|-1",
		"error|net.a:1|x+",
		"http-error|net.a:1|0|code=99",
		"delay|net.a:1|0|delay=notadur",
		"truncate-body|net.a:1|0|keep=-3",
		"error|net.a:1|0|wat=1",
		"error|net.a:1|+5",
		"error|net.a:1|-0",
		"error|net.a:1|+5+",
		"delay|net.a:1|0|delay=-5ms",
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) should fail", spec)
		}
	}
}

func TestFaultStringFromWindow(t *testing.T) {
	f := Fault{Site: "net.a:1", Index: AnyIndex, From: 200, Kind: KindBlackhole}
	if got := f.String(); got != "blackhole@net.a:1[200+]" {
		t.Fatalf("String = %q", got)
	}
}
