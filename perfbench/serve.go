package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	hotSetSize = 64
	// hotSlice is the length of the slices serve-hot's window is cut into.
	hotSlice = 3 * time.Second
	// hotTail is serve-hot's tail percentile, p95 (~800 requests beyond it
	// in a slice). Higher percentiles time the GC cycles a slice happens to
	// hold: on a 2-vCPU VM, over five runs on a quiet host, the median over
	// slices of p99 spread by 13% of its median and p95 by 1%, against 2%
	// for the throughput; on a busy host p99 spread by 50-75%.
	hotTail = 9500
	// coldRate is serve-cold's open-loop rate: about 0.7 cores of cold
	// requests on a 2-core machine.
	coldRate = 8
	// coldSample is how many of serve-cold's answers are re-derived on a
	// fresh generator after the window (about 80 ms each).
	coldSample = 24
	// warmSeconds of closed-loop load precede serve-hot's window.
	warmSeconds = 1
	// spanHeader carries the caller's span id across an HTTP hop.
	spanHeader = "X-Perfbench-Span"
)

// serveEnv is a running serving tier: replicas (and a router) on loopback
// listeners, and the client the load uses.
type serveEnv struct {
	m       *model
	reps    []*replica
	servers []*http.Server
	urls    []string // replica base URLs
	target  string   // where load is sent: the router or the one replica
	client  *http.Client
	tr      atomic.Pointer[tracer] // non-nil while a traced window runs
	serving sync.WaitGroup         // one per running http.Server
}

func newServeEnv(m *model, workers int) *serveEnv {
	return &serveEnv{m: m, client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: workers,
		MaxConnsPerHost:     workers,
	}}}
}

// serveHTTP serves h on a fresh loopback listener and returns its URL.
func (e *serveEnv) serveHTTP(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	e.servers = append(e.servers, srv)
	e.serving.Add(1)
	go func() {
		defer e.serving.Done()
		_ = srv.Serve(ln) // ErrServerClosed once close shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

// close shuts every server down and waits for them to stop serving.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range e.servers {
		_ = s.Shutdown(ctx) // a server that outlives 30 s is abandoned at exit
	}
	e.serving.Wait()
	e.client.CloseIdleConnections()
}

// addReplicas starts n replicas sharing the model.
func (e *serveEnv) addReplicas(n, workers int) error {
	for i := 0; i < n; i++ {
		rep, err := newReplica(e.m, workers)
		if err != nil {
			return err
		}
		u, err := e.serveHTTP(e.traced("serve.handler", rep.handler))
		if err != nil {
			return err
		}
		e.reps = append(e.reps, rep)
		e.urls = append(e.urls, u)
	}
	return nil
}

type spanKey struct{}

// traced wraps h in a span of layer whenever a traced window runs. The
// parent span arrives in spanHeader; the span's own id rides the request
// context to the router's forward transport.
func (e *serveEnv) traced(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tr := e.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, req)
			return
		}
		sp := tr.begin(layer, parentSpan(req.Header.Get(spanHeader)))
		h.ServeHTTP(w, req.WithContext(context.WithValue(req.Context(), spanKey{}, sp.id)))
		sp.end()
	})
}

func parentSpan(h string) int64 {
	id, err := strconv.ParseInt(h, 10, 64)
	if err != nil {
		return -1
	}
	return id
}

// forwardTransport is the router's forward client transport: it spans each
// forward from request to the end of the response body, and passes the
// span id on to the replica.
type forwardTransport struct {
	e    *serveEnv
	base http.RoundTripper
}

func (t forwardTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.e.tr.Load()
	if tr == nil {
		return t.base.RoundTrip(req)
	}
	parent, ok := req.Context().Value(spanKey{}).(int64)
	if !ok {
		parent = -1
	}
	sp := tr.begin("cluster.forward", parent)
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.FormatInt(sp.id, 10))
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	sp   openSpan
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.sp.end)
	return err
}

// requestBody renders a bag as a /v1/predict body.
func requestBody(bag []member) []byte {
	b, err := json.Marshal(struct {
		Bag []member `json:"bag"`
	}{bag})
	if err != nil {
		panic(err) // a []member always marshals
	}
	return b
}

// predictAnswer is the part of serve's /v1/predict answer the checks read.
type predictAnswer struct {
	Results []struct {
		PredictedSec float64 `json:"predicted_gpu_bag_time_sec"`
	} `json:"results"`
}

// predict posts one bag and returns the predicted bag time. Any transport
// error or non-200 status is an error.
func (e *serveEnv) predict(body []byte, parent int64) (float64, error) {
	req, err := http.NewRequest(http.MethodPost, e.target+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if parent >= 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(parent, 10))
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var ans predictAnswer
	if err := json.Unmarshal(raw, &ans); err != nil {
		return 0, err
	}
	if len(ans.Results) != 1 {
		return 0, fmt.Errorf("%d results for one bag", len(ans.Results))
	}
	return ans.Results[0].PredictedSec, nil
}

// scrape sums the named Prometheus-style counters over the servers'
// /metrics pages.
func (e *serveEnv) scrape(urls []string, names ...string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, u := range urls {
		resp, err := e.client.Get(u + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) != 2 {
				continue
			}
			for _, n := range names {
				if f[0] == n {
					v, err := strconv.ParseFloat(f[1], 64)
					if err != nil {
						resp.Body.Close()
						return nil, fmt.Errorf("%s %s: %w", u, n, err)
					}
					out[n] += v
				}
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Counter names on the replicas' and router's /metrics pages.
const (
	mHits      = "mapc_feature_cache_hits_total"
	mMisses    = "mapc_feature_cache_misses_total"
	mShed      = `mapc_rejected_total{reason="saturated"}`
	mDegraded  = "mapc_degraded_total"
	mSimHits   = "mapc_simcache_hits_total"
	mSimMisses = "mapc_simcache_misses_total"
	mSimEvict  = "mapc_simcache_evictions_total"
	mRetries   = "mapc_router_retries_total"
)

var replicaCounters = []string{mHits, mMisses, mShed, mDegraded, mSimHits, mSimMisses, mSimEvict}

// replicaDelta records the replicas' counters between two scrapes.
func (r *run) replicaDelta(before, after map[string]float64) {
	d := func(n string) float64 { return after[n] - before[n] }
	hits, misses := d(mHits), d(mMisses)
	if hits+misses > 0 {
		r.set("serve.cache_hit_ratio", hits/(hits+misses))
	}
	r.set("serve.shed", d(mShed))
	r.set("serve.degraded", d(mDegraded))
	r.set("simcache.hits", d(mSimHits))
	r.set("simcache.misses", d(mSimMisses))
	r.set("simcache.evictions", d(mSimEvict))
	if d(mSimHits)+d(mSimMisses) > 0 {
		r.set("simcache.hit_ratio", d(mSimHits)/(d(mSimHits)+d(mSimMisses)))
	}
	r.logf("replica counters in window: feature cache %.0f hits / %.0f misses, shed %.0f, degraded %.0f",
		hits, misses, d(mShed), d(mDegraded))
}

// serveHot is two replicas behind the router under a closed loop of
// r.workers callers replaying a warmed hot set: every answer is a feature
// cache hit, so HTTP, the router hop, the cache and predict do the work.
func serveHot(r *run) error {
	rng := rand.New(rand.NewPCG(r.seed, 1))
	hot := hotSet(rng, corpusMembers(), hotSetSize)
	// Both member orders of every bag, so canonicalization is exercised.
	bodies := make([][2][]byte, len(hot))
	for i, bag := range hot {
		bodies[i] = [2][]byte{requestBody(bag), requestBody([]member{bag[1], bag[0]})}
	}
	want := make([]float64, len(hot))

	// The model and the offline answers are computed once; the serving tier
	// is the part of set-up that repeats.
	m, err := r.trainModel()
	if err != nil {
		return err
	}
	xs := make([][]float64, len(hot))
	for i, bag := range hot {
		if xs[i], err = m.features(nil, bag); err != nil {
			return err
		}
		if want[i], err = m.predict(xs[i]); err != nil {
			return err
		}
	}
	us, err := predictMicros(m, xs, 200)
	if err != nil {
		return err
	}
	r.set("core.predict_us", us)
	m.dropTrainingGenerator()

	env, err := setups(r, 2, func() (*serveEnv, func(), error) {
		env := newServeEnv(m, r.workers)
		if err := env.addReplicas(2, r.workers); err != nil {
			env.close()
			return nil, nil, err
		}
		base := &http.Transport{MaxIdleConnsPerHost: r.workers}
		router, err := newRouter(env.urls, forwardTransport{e: env, base: base})
		if err != nil {
			env.close()
			return nil, nil, err
		}
		if env.target, err = env.serveHTTP(env.traced("cluster.router", router)); err != nil {
			env.close()
			return nil, nil, err
		}
		// Warm: every hot bag once, checked, then a short closed loop.
		for i := range hot {
			got, err := env.predict(bodies[i][0], -1)
			if err != nil {
				env.close()
				return nil, nil, fmt.Errorf("warming %v: %w", hot[i], err)
			}
			if math.Float64bits(got) != math.Float64bits(want[i]) {
				env.close()
				return nil, nil, fmt.Errorf("warming %v: served %v, offline %v", hot[i], got, want[i])
			}
		}
		closedLoop(env, bodies, want, r.workers, warmSeconds*time.Second, r.seed+1, &tally{}, nil)
		return env, env.close, nil
	})
	if err != nil {
		return err
	}
	defer env.close()
	host, err := r.newHostProbe()
	if err != nil {
		return err
	}
	defer host.close()
	r.quiesce("set-up and warm-up", true)

	// The window: slices of closed-loop load, each between two host probes.
	slices := max(1, int(r.window/hotSlice))
	win := startWindow()
	pr := newProbed(host)
	latencies := make([][]float64, slices)
	scale := make([]float64, slices)
	var sent int
	for i := range latencies {
		ops := closedLoop(env, bodies, want, r.workers, hotSlice, r.seed+uint64(i)<<32, &r.tally, nil)
		pr.probe()
		latencies[i] = splitSlices(ops, hotSlice, 1)[0]
		scale[i] = pr.scale(i)
		sent += len(ops)
	}
	if err := win.stop(r); err != nil {
		return err
	}
	rawTput, _, _, rawRates := sliceStats(latencies, hotSlice, nil, hotTail)
	tput, p50, t, rates := sliceStats(latencies, hotSlice, scale, hotTail)
	r.set("throughput_per_s", tput)
	r.latencies("request at reference host speed", p50, t)
	r.logf("closed loop: %d callers, %d requests in %d slices of %v; measured %.0f req/s (slices %.0f); host probes %s s; at reference host speed %.0f req/s (slices %.0f)",
		r.workers, sent, slices, hotSlice, rawTput, rawRates, fmtSecs(pr.probes), tput, rates)
	if err := r.oracle(2); err != nil {
		return err
	}
	if !r.traced {
		return nil
	}

	// Traced window: same load with spans at the client, the router, each
	// forward and each replica handler.
	before, err := env.scrape(env.urls, replicaCounters...)
	if err != nil {
		return err
	}
	rb, err := env.scrape([]string{env.target}, mRetries)
	if err != nil {
		return err
	}
	tr := newTracer()
	env.tr.Store(tr)
	tops := closedLoop(env, bodies, want, r.workers, r.window, r.seed, &r.tally, tr)
	env.tr.Store(nil)
	after, err := env.scrape(env.urls, replicaCounters...)
	if err != nil {
		return err
	}
	ra, err := env.scrape([]string{env.target}, mRetries)
	if err != nil {
		return err
	}
	r.replicaDelta(before, after)
	r.set("cluster.retries", ra[mRetries]-rb[mRetries])

	lt := tr.totals()
	n := float64(len(tops))
	r.set("cluster.router_self_ms", lt["cluster.router"].self/n*1000)
	r.set("cluster.forward_ms", lt["cluster.forward"].self/n*1000)
	r.set("serve.handler_ms", lt["serve.handler"].total/n*1000)
	ttput, _, _, _ := sliceStats(splitSlices(tops, r.window, slices), hotSlice, nil, hotTail)
	r.set("trace.overhead_pct", (rawTput/ttput-1)*100)
	total := lt["loadgen.request"].total
	layers := []string{"cluster.router", "cluster.forward", "serve.handler"}
	var accounted float64
	for _, l := range layers {
		accounted += lt[l].self
	}
	r.set("trace.unaccounted_pct", (total-accounted)/total*100)
	r.logf("traced window: %.0f req/s against %.0f untraced, both as measured; client time outside the router is unaccounted", ttput, rawTput)
	r.dominant(lt, layers, total)
	return r.writeSpans(tr, "")
}

// trainModel trains the served model and records its accuracy and costs.
func (r *run) trainModel() (*model, error) {
	m, err := trainModel(r.workers)
	if err != nil {
		return nil, err
	}
	r.set("core.train_s", m.trainS)
	r.set("core.loocv_s", m.loocvS)
	r.set("loocv_err_pct", m.loocv)
	return m, nil
}

// hotSet draws n distinct pair bags over the members.
func hotSet(rng *rand.Rand, members []member, n int) [][]member {
	seen := map[[2]member]bool{}
	var out [][]member
	for len(out) < n {
		a, b := members[rng.IntN(len(members))], members[rng.IntN(len(members))]
		if b.Benchmark < a.Benchmark || (b.Benchmark == a.Benchmark && b.Batch < a.Batch) {
			a, b = b, a
		}
		if seen[[2]member{a, b}] {
			continue
		}
		seen[[2]member{a, b}] = true
		out = append(out, []member{a, b})
	}
	return out
}

// predictMicros times predict over the vectors, rounds times, and returns
// the mean microseconds per call.
func predictMicros(m *model, xs [][]float64, rounds int) (float64, error) {
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		for _, x := range xs {
			if _, err := m.predict(x); err != nil {
				return 0, err
			}
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(rounds*len(xs)), nil
}

// closedLoop runs callers that each send the next bag of their own seeded
// permutation of the hot set as soon as the previous answer arrives, for
// d. Every answer is checked against the offline prediction; tr, when not
// nil, spans each request. It returns the successful requests, timed from
// the loop's start.
func closedLoop(env *serveEnv, bodies [][2][]byte, want []float64, callers int, d time.Duration, seed uint64, t *tally, tr *tracer) []timed {
	ops := make([][]timed, callers)
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(c)+100))
			var perm []int
			for time.Now().Before(end) {
				if len(perm) == 0 {
					perm = rng.Perm(len(bodies))
				}
				i := perm[0]
				perm = perm[1:]
				body := bodies[i][rng.IntN(2)]
				sp := tr.begin("loadgen.request", -1)
				t0 := time.Now()
				got, err := env.predict(body, sp.id)
				done := time.Now()
				sp.end()
				switch {
				case err != nil:
					t.fail()
				case math.Float64bits(got) != math.Float64bits(want[i]):
					t.mismatch()
				default:
					t.ok()
					ops[c] = append(ops[c], timed{at: done.Sub(start), ms: ms(done.Sub(t0))})
				}
			}
		}(c)
	}
	wg.Wait()
	var all []timed
	for _, o := range ops {
		all = append(all, o...)
	}
	return all
}

// coldStream yields pair bags whose members were never requested before:
// the 45 unordered benchmark pairs in seeded shuffled cycles, each member
// at a fresh batch size outside the corpus's sizes.
type coldStream struct {
	rng     *rand.Rand
	pairs   [][2]string
	cycle   []int
	batches map[string][]int
}

func newColdStream(seed uint64) *coldStream {
	s := &coldStream{rng: rand.New(rand.NewPCG(seed, 2)), batches: map[string][]int{}}
	names := benchmarkNames()
	for i, a := range names {
		for _, b := range names[i:] {
			s.pairs = append(s.pairs, [2]string{a, b})
		}
		var bs []int
		for b := 21; b < 320; b++ {
			if !isCorpusBatch(b) {
				bs = append(bs, b)
			}
		}
		s.rng.Shuffle(len(bs), func(i, j int) { bs[i], bs[j] = bs[j], bs[i] })
		s.batches[a] = bs
	}
	return s
}

func (s *coldStream) take(n int) ([][]member, error) {
	out := make([][]member, n)
	for i := range out {
		if len(s.cycle) == 0 {
			s.cycle = s.rng.Perm(len(s.pairs))
		}
		p := s.pairs[s.cycle[0]]
		s.cycle = s.cycle[1:]
		bag := make([]member, 2)
		for j, name := range p {
			bs := s.batches[name]
			if len(bs) == 0 {
				return nil, fmt.Errorf("cold stream ran out of fresh %s batch sizes", name)
			}
			bag[j] = member{name, bs[0]}
			s.batches[name] = bs[1:]
		}
		out[i] = bag
	}
	return out, nil
}

// coldWindow is one open-loop window of serve-cold: the bags sent, their
// schedules and the answers served (NaN where the request failed).
type coldWindow struct {
	bags   [][]member
	times  []sendTimes
	served []float64
}

// openLoopCold sends the bags at coldRate from r.workers senders.
func (r *run) openLoopCold(env *serveEnv, bags [][]member, tr *tracer) coldWindow {
	w := coldWindow{bags: bags, served: make([]float64, len(bags))}
	w.times = openLoop(realClock{start: time.Now()}, len(bags), time.Second/coldRate, r.workers, func(i int) {
		sp := tr.begin("loadgen.request", -1)
		got, err := env.predict(requestBody(bags[i]), sp.id)
		sp.end()
		if err != nil {
			got = math.NaN()
			r.logf("request %d %v: %v", i, bags[i], err)
		}
		w.served[i] = got
	})
	return w
}

// stats returns the due-time latencies and lateness, in ms, of the
// window's successful requests, and the replica's throughput while busy:
// completed requests per second during which at least one request was in
// flight. The send rate is fixed, so completions per wall second would only
// read it back; per busy second tracks what a request costs.
func (w coldWindow) stats() (lat, late []float64, tput float64) {
	var ok []sendTimes
	for i, t := range w.times {
		if math.IsNaN(w.served[i]) {
			continue
		}
		lat = append(lat, ms(t.latency()))
		late = append(late, ms(t.late()))
		ok = append(ok, t)
	}
	if busy := busyTime(ok); busy > 0 {
		tput = float64(len(ok)) / busy.Seconds()
	}
	return lat, late, tput
}

// serveCold is one replica, addressed directly, under an open loop of bags
// whose members it has never measured: every request pays instrumentation,
// isolated simulation, the shared CPU run and predict.
func serveCold(r *run) error {
	stream := newColdStream(r.seed)
	n := int(r.window.Seconds() * coldRate)
	m, err := r.trainModel()
	if err != nil {
		return err
	}
	m.dropTrainingGenerator()
	env, err := setups(r, 2, func() (*serveEnv, func(), error) {
		env := newServeEnv(m, r.workers)
		if err := env.addReplicas(1, r.workers); err != nil {
			env.close()
			return nil, nil, err
		}
		env.target = env.urls[0]
		// Warm the process and its connections on cold bags of their own.
		warm, err := stream.take(2 * r.workers)
		if err != nil {
			env.close()
			return nil, nil, err
		}
		for _, bag := range warm {
			if _, err := env.predict(requestBody(bag), -1); err != nil {
				env.close()
				return nil, nil, fmt.Errorf("warming %v: %w", bag, err)
			}
		}
		return env, env.close, nil
	})
	if err != nil {
		return err
	}
	defer env.close()
	bags, err := stream.take(n)
	if err != nil {
		return err
	}
	r.quiesce("set-up and warm-up", true)

	win := startWindow()
	w := r.openLoopCold(env, bags, nil)
	if err := win.stop(r); err != nil {
		return err
	}
	lat, late, tput := w.stats()
	r.set("throughput_per_s", tput)
	r.latencies("request (from due time)", median(lat), tail(lat))
	r.logf("busy throughput: %.3f requests per second with a request in flight", tput)
	lateTail := tail(late)
	r.set("loadgen.late_ms", lateTail.value)
	r.logf("open loop: %d req/s, %d senders, %d requests; sends late by %s %.3f ms", coldRate, r.workers, len(bags), lateTail.label, lateTail.value)
	// Check every answer against the replica's own generator offline.
	if err := r.checkCold(env, env.reps[0], w); err != nil {
		return err
	}
	if err := r.oracle(2); err != nil {
		return err
	}
	if !r.traced {
		return nil
	}
	return r.traceCold(env, stream, median(lat))
}

// checkCold tallies the window's requests: failed requests as failures, and
// each answer by whether it is bit-identical to PredictRaw(BagFeatures(bag))
// on the replica's generator. That generator's memo was filled by serving
// these very bags, so a seeded sample of coldSample bags is also measured
// on a fresh generator, which shares nothing with the replica.
func (r *run) checkCold(env *serveEnv, rep *replica, w coldWindow) error {
	fresh, err := newServingGenerator(r.workers)
	if err != nil {
		return err
	}
	sampled := map[int]bool{}
	for _, i := range rand.New(rand.NewPCG(r.seed, 3)).Perm(len(w.bags))[:min(coldSample, len(w.bags))] {
		sampled[i] = true
	}
	for i, bag := range w.bags {
		if math.IsNaN(w.served[i]) {
			r.tally.fail()
			continue
		}
		pass := true
		gens := []*generator{rep.gen}
		if sampled[i] {
			gens = append(gens, fresh)
		}
		for _, g := range gens {
			x, err := env.m.features(g, bag)
			if err != nil {
				return err
			}
			want, err := env.m.predict(x)
			if err != nil {
				return err
			}
			pass = pass && math.Float64bits(want) == math.Float64bits(w.served[i])
		}
		r.tally.check(pass)
	}
	r.logf("checked %d answers against the replica's generator, %d of them also against a fresh one", len(w.bags), len(sampled))
	return nil
}

// replayLayers are the leaf spans of serve-cold's serial replay.
var replayLayers = []string{
	"vision.run", "mica.analyze", "cpusim.iso", "gpusim.iso",
	"cpusim.corun", "features.vector", "core.predict",
}

// traceCold runs a second, traced window of fresh bags, then replays its
// bags serially through a fresh pipeline, which splits the cold path into
// layers and checks every served answer independently.
func (r *run) traceCold(env *serveEnv, stream *coldStream, untracedP50 float64) error {
	bags, err := stream.take(int(r.window.Seconds() * coldRate))
	if err != nil {
		return err
	}
	before, err := env.scrape(env.urls, replicaCounters...)
	if err != nil {
		return err
	}
	tr := newTracer()
	env.tr.Store(tr)
	w := r.openLoopCold(env, bags, tr)
	env.tr.Store(nil)
	after, err := env.scrape(env.urls, replicaCounters...)
	if err != nil {
		return err
	}
	r.replicaDelta(before, after)
	lat, _, _ := w.stats()
	r.set("trace.overhead_pct", (median(lat)/untracedP50-1)*100)
	wl := tr.totals()
	r.set("serve.handler_ms", wl["serve.handler"].total/float64(wl["serve.handler"].calls)*1000)

	rt := newTracer()
	p := newPipeline(servingSpec(1), rt)
	for i, bag := range bags {
		sp := rt.begin("replay.bag", -1)
		got, err := p.replay(env.m, bag, sp.id)
		sp.end()
		if err != nil {
			return fmt.Errorf("replaying %v: %w", bag, err)
		}
		if math.IsNaN(w.served[i]) {
			r.tally.fail()
			continue
		}
		r.tally.check(math.Float64bits(got) == math.Float64bits(w.served[i]))
	}
	lt := rt.totals()
	r.setLayers(lt)
	r.set("core.predict_us", lt["core.predict"].total/float64(lt["core.predict"].calls)*1e6)
	total := lt["replay.bag"].total
	var accounted float64
	for _, l := range replayLayers {
		accounted += lt[l].self
	}
	r.set("trace.unaccounted_pct", (total-accounted)/total*100)
	r.logf("serial replay of %d bags: %.3f s in bags, %.3f s in layer spans", len(bags), total, accounted)
	r.dominant(lt, replayLayers, total)
	if err := r.writeSpans(tr, ""); err != nil {
		return err
	}
	return r.writeSpans(rt, "-replay")
}
