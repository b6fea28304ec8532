// Command mapc-loadgen replays k-application bag mixes against a
// mapc-serve replica or the mapc-router at a configured open-loop QPS and
// records latency quantiles, throughput and shed rate into BENCH_serve.json
// (shared schema: internal/benchio).
//
// The request stream is a seeded hot-set/long-tail mix: a fraction of
// requests (-hot-frac) replays one of -hot-set recurring bags — these hit
// the replicas' feature caches after the first occurrence — while the rest
// draw fresh random bags that force real simulation work. Permutations of
// the same bag are replayed in random member order, exercising the
// canonical-key path end to end.
//
// Open loop means requests are launched on a fixed clock regardless of
// completions, up to -concurrency in flight; ticks that find every slot
// busy are counted as client-side drops, not silently stretched — so the
// recorded quantiles describe the offered load, not a self-throttled one.
//
// Usage:
//
//	mapc-loadgen -target http://127.0.0.1:8080 -qps 200 -duration 30s
//	mapc-loadgen -target http://127.0.0.1:8080 -kind router -replicas 3 \
//	    -label tier3 -out BENCH_serve.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mapc/internal/benchio"
	"mapc/internal/dataset"
	"mapc/internal/serve"
)

func main() {
	target := flag.String("target", "", "base URL of the replica or router to load (required)")
	kind := flag.String("kind", "replica", "what -target is: replica or router (recorded metadata)")
	replicas := flag.Int("replicas", 1, "serving processes behind the target (recorded metadata)")
	label := flag.String("label", "", "entry label; empty = derived from kind/replicas/qps")
	out := flag.String("out", "", "append the entry to this BENCH_serve.json (empty = print only)")
	qps := flag.Float64("qps", 100, "offered requests per second (open loop)")
	concurrency := flag.Int("concurrency", 64, "max in-flight requests; saturated ticks count as drops")
	duration := flag.Duration("duration", 30*time.Second, "measured window")
	warmup := flag.Duration("warmup", 5*time.Second, "initial window excluded from every statistic")
	k := flag.Int("k", 2, "bag size; must match the serving model")
	benchmarks := flag.String("benchmarks", "sift,surf", "comma-separated benchmarks the target serves")
	batches := flag.String("batches", "20,40", "comma-separated batch sizes the target serves")
	hotFrac := flag.Float64("hot-frac", 0.8, "fraction of requests drawn from the recurring hot set")
	hotSet := flag.Int("hot-set", 8, "number of distinct recurring bags in the hot set")
	seed := flag.Int64("seed", 1, "mix RNG seed; same seed = same request stream")
	degradedOK := flag.Bool("degraded-ok", false, "send X-Mapc-Degraded-OK so the target may answer from the fast fidelity tier")
	expectNoDegraded := flag.Bool("expect-no-degraded", false, "fail when any response was served degraded (no-fault consistency runs)")
	checkConsistent := flag.Bool("check-consistent", false, "fail when repeated exact-tier answers for the same bag disagree")
	flag.Parse()

	if *target == "" {
		fatal(fmt.Errorf("-target is required"))
	}
	if *kind != "replica" && *kind != "router" {
		fatal(fmt.Errorf("-kind must be replica or router, got %q", *kind))
	}
	benchList, err := dataset.ParseList("-benchmarks", *benchmarks)
	if err != nil {
		fatal(err)
	}
	batchList, err := dataset.ParseBatches("-batches", *batches)
	if err != nil {
		fatal(err)
	}
	if *k <= 0 {
		fatal(fmt.Errorf("need k >= 1"))
	}
	if *label == "" {
		*label = fmt.Sprintf("%s-r%d-q%g", *kind, *replicas, *qps)
	}

	mix := newMix(benchList, batchList, *k, *hotSet, *hotFrac, *seed)
	res := run(*target, mix, *qps, *concurrency, *warmup, *duration, runOpts{
		degradedOK:      *degradedOK,
		checkConsistent: *checkConsistent,
	})

	cores := runtime.NumCPU()
	measured := *duration
	lat := res.latencies
	p50, p99, p999 := benchio.Quantiles(lat)
	entry := benchio.ServeEntry{
		Label:        *label,
		Date:         time.Now().UTC().Format(time.RFC3339),
		Target:       *kind,
		Replicas:     *replicas,
		K:            *k,
		QPS:          *qps,
		Concurrency:  *concurrency,
		DurationSec:  measured.Seconds(),
		Requests:     res.sent,
		StatusCounts: res.statusCounts(),
		P50Ms:        round3(p50),
		P99Ms:        round3(p99),
		P999Ms:       round3(p999),
	}
	if n := res.byStatus[200]; n > 0 && measured > 0 {
		entry.ThroughputRPS = round3(float64(n) / measured.Seconds())
		entry.ThroughputPerCore = round3(entry.ThroughputRPS / float64(cores))
	}
	if res.sent > 0 {
		entry.ShedRate = round3(float64(res.byStatus[503]) / float64(res.sent))
		entry.DegradedRate = round3(float64(res.degraded) / float64(res.sent))
	}
	entry.Degraded = res.degraded
	// Error rate and availability come from the status counts — the same
	// derivation benchjson gates on, so the printed figures and the gate
	// can never disagree.
	entry.ErrorRate = round3(entry.ComputedErrorRate())
	entry.Availability = round3(entry.ComputedAvailability())

	fmt.Fprintf(os.Stderr,
		"mapc-loadgen: %s: sent %d (dropped %d), 200s %d (degraded %d), errors %d (rate %.4f, avail %.4f), shed %.3f; p50 %.2fms p99 %.2fms p999 %.2fms; %.1f rps (%.2f/core)\n",
		entry.Label, res.sent, res.dropped, res.byStatus[200], res.degraded,
		res.errorCount(), entry.ErrorRate, entry.Availability, entry.ShedRate,
		entry.P50Ms, entry.P99Ms, entry.P999Ms, entry.ThroughputRPS, entry.ThroughputPerCore)

	if *out != "" {
		if err := benchio.Append(*out, machine(), cores, entry); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mapc-loadgen: appended entry %q to %s\n", entry.Label, *out)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(entry); err != nil {
		fatal(err)
	}
	if res.byStatus[200] == 0 {
		fatal(fmt.Errorf("no successful responses in the measured window"))
	}
	if *expectNoDegraded && res.degraded > 0 {
		fatal(fmt.Errorf("%d responses were served degraded with -expect-no-degraded set", res.degraded))
	}
	if *checkConsistent && res.inconsistent > 0 {
		fatal(fmt.Errorf("%d exact-tier answers disagreed with an earlier answer for the same bag", res.inconsistent))
	}
	if *checkConsistent {
		fmt.Fprintf(os.Stderr, "mapc-loadgen: consistency: %d distinct bags, every repeat answer identical\n", len(res.answers))
	}
}

// mix generates the seeded request stream.
type mix struct {
	rng        *rand.Rand
	hot        [][]serve.Member // recurring bags
	frac       float64
	benchmarks []string
	batches    []int
	k          int
}

func newMix(benchmarks []string, batches []int, k, hotSet int, hotFrac float64, seed int64) *mix {
	m := &mix{
		rng:        rand.New(rand.NewSource(seed)),
		frac:       hotFrac,
		benchmarks: benchmarks,
		batches:    batches,
		k:          k,
	}
	seen := map[string]bool{}
	space := 1
	for i := 0; i < k && space <= hotSet; i++ {
		space *= len(benchmarks) * len(batches)
	}
	if hotSet > space {
		hotSet = space // tiny spaces: the whole space is the hot set
	}
	for len(m.hot) < hotSet {
		bag := m.randomBag()
		key := serve.CanonicalKey(bag)
		if !seen[key] {
			seen[key] = true
			m.hot = append(m.hot, bag)
		}
	}
	return m
}

func (m *mix) randomBag() []serve.Member {
	bag := make([]serve.Member, m.k)
	for i := range bag {
		bag[i] = serve.Member{
			Benchmark: m.benchmarks[m.rng.Intn(len(m.benchmarks))],
			Batch:     m.batches[m.rng.Intn(len(m.batches))],
		}
	}
	return bag
}

// next returns the next request's bag in a fresh random member order, so
// recurring bags arrive as varying permutations of the same multiset.
func (m *mix) next() []serve.Member {
	var bag []serve.Member
	if len(m.hot) > 0 && m.rng.Float64() < m.frac {
		bag = m.hot[m.rng.Intn(len(m.hot))]
	} else {
		bag = m.randomBag()
	}
	out := append([]serve.Member(nil), bag...)
	m.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// result accumulates the measured window's outcomes.
type result struct {
	mu        sync.Mutex
	sent      int64
	dropped   int64
	byStatus  map[int]int64
	latencies []float64 // ms, 200s only
	degraded  int64     // 200s answered from the fast fidelity tier
	// answers maps canonical bag key → the first exact-tier answer's
	// prediction fingerprint; inconsistent counts later disagreements.
	answers      map[string]string
	inconsistent int64
}

func (r *result) statusCounts() map[string]int64 {
	out := make(map[string]int64, len(r.byStatus)+1)
	for code, n := range r.byStatus {
		out[strconv.Itoa(code)] = n
	}
	if r.dropped > 0 {
		out["dropped"] = r.dropped
	}
	return out
}

// errorCount mirrors benchio's hard-failure classification: transport
// errors plus every 5xx except the 503 shed signal.
func (r *result) errorCount() int64 {
	var n int64
	for code, c := range r.byStatus {
		if code == 0 || (code >= 500 && code != 503) {
			n += c
		}
	}
	return n
}

// runOpts carries the request-shaping knobs into the load loop.
type runOpts struct {
	degradedOK      bool // ask for fast-tier answers via X-Mapc-Degraded-OK
	checkConsistent bool // fingerprint exact-tier answers per bag
}

func run(target string, m *mix, qps float64, concurrency int, warmup, duration time.Duration, opts runOpts) *result {
	if qps <= 0 {
		fatal(fmt.Errorf("-qps must be positive"))
	}
	interval := time.Duration(float64(time.Second) / qps)
	if interval <= 0 {
		interval = time.Microsecond
	}
	client := &http.Client{Timeout: 2 * time.Minute}
	url := strings.TrimRight(target, "/") + "/v1/predict"

	res := &result{byStatus: map[int]int64{}, answers: map[string]string{}}
	sem := make(chan struct{}, concurrency)
	var wg sync.WaitGroup

	// Bags are drawn on the launch clock (the mix RNG is not goroutine
	// safe); the HTTP round trip runs concurrently.
	fire := func(bag []serve.Member, measured bool) {
		select {
		case sem <- struct{}{}:
		default:
			if measured {
				res.mu.Lock()
				res.dropped++
				res.mu.Unlock()
			}
			return
		}
		if measured {
			res.mu.Lock()
			res.sent++
			res.mu.Unlock()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			o := post(client, url, bag, opts)
			if !measured {
				return
			}
			res.mu.Lock()
			res.byStatus[o.status]++
			if o.status == 200 {
				res.latencies = append(res.latencies, float64(o.elapsed)/float64(time.Millisecond))
				if o.degraded {
					res.degraded++
				} else if opts.checkConsistent && o.fingerprint != "" {
					// Exact-tier answers for one bag must never disagree —
					// degraded answers are a different fidelity tier and are
					// excluded (the no-fault gate forbids them separately).
					key := serve.CanonicalKey(bag)
					if prev, ok := res.answers[key]; !ok {
						res.answers[key] = o.fingerprint
					} else if prev != o.fingerprint {
						res.inconsistent++
					}
				}
			}
			res.mu.Unlock()
		}()
	}

	start := time.Now()
	warmEnd := start.Add(warmup)
	end := warmEnd.Add(duration)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for now := range tick.C {
		if now.After(end) {
			break
		}
		fire(m.next(), now.After(warmEnd))
	}
	wg.Wait()
	sort.Float64s(res.latencies)
	return res
}

// postOutcome is one request's observed result.
type postOutcome struct {
	status   int // 0 on transport error
	elapsed  time.Duration
	degraded bool
	// fingerprint condenses a 200 answer's predictions for the consistency
	// check; empty when the body was unreadable or not requested.
	fingerprint string
}

// post sends one bag and classifies the outcome. Transport errors report
// status 0 — the hard-failure class the availability gate counts.
func post(client *http.Client, url string, bag []serve.Member, opts runOpts) postOutcome {
	body, err := json.Marshal(serve.PredictRequest{Bags: []serve.Bag{{Members: bag}}})
	if err != nil {
		fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if opts.degradedOK {
		req.Header.Set(serve.HeaderDegradedOK, "1")
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	elapsed := time.Since(t0)
	if err != nil {
		return postOutcome{status: 0, elapsed: elapsed}
	}
	defer resp.Body.Close()
	o := postOutcome{
		status:   resp.StatusCode,
		elapsed:  elapsed,
		degraded: resp.Header.Get(serve.HeaderDegraded) != "",
	}
	if resp.StatusCode == 200 && opts.checkConsistent {
		var pr serve.PredictResponse
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&pr); err == nil {
			// The degraded body flag backs up the header (a proxy could
			// strip headers; the JSON field cannot disappear).
			o.degraded = o.degraded || pr.Degraded
			var sb strings.Builder
			for _, r := range pr.Results {
				fmt.Fprintf(&sb, "%.17g|%.17g;", r.PredictedSec, r.Fairness)
			}
			o.fingerprint = sb.String()
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return o
}

func machine() string {
	host, _ := os.Hostname()
	return fmt.Sprintf("%s/%s %s (%d cores)", runtime.GOOS, runtime.GOARCH, host, runtime.NumCPU())
}

func round3(v float64) float64 {
	if v != v { // NaN (no samples) must not poison the JSON
		return 0
	}
	return float64(int64(v*1000+0.5)) / 1000
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mapc-loadgen:", err)
	os.Exit(1)
}
