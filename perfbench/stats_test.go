package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileIsNearestRank(t *testing.T) {
	s := seq(100)
	for _, c := range []struct {
		p, beyond int
		want      float64
	}{
		{5000, 50, 50}, {9000, 10, 90}, {9900, 1, 99}, {9990, 0, 100}, {10000, 0, 100},
	} {
		v, beyond := percentile(s, c.p)
		if v != c.want || beyond != c.beyond {
			t.Errorf("percentile(1..100, %d) = %v with %d beyond, want %v with %d", c.p, v, beyond, c.want, c.beyond)
		}
	}
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		label  string
		beyond int
	}{
		{0, "max", 0},
		{19, "max", 0},   // p50 would leave only 9 beyond
		{20, "p50", 10},  // exactly 10 beyond p50
		{100, "p90", 10}, // exactly 10 beyond p90; p95 leaves 5
		{120, "p90", 12}, // serve-cold's 15 s window at 8 req/s
		{199, "p90", 19}, // p95 leaves 9
		{200, "p95", 10}, // exactly 10 beyond p95
		{10000, "p99.9", 10},
		{100000, "p99.9", 100}, // the ladder stops at p99.9
	} {
		got := tail(seq(c.n))
		if got.label != c.label || got.beyond != c.beyond || got.n != c.n {
			t.Errorf("tail of %d samples = %s with %d beyond of %d, want %s with %d beyond",
				c.n, got.label, got.beyond, got.n, c.label, c.beyond)
		}
	}
	// Below 20 samples the tail is the maximum.
	if got := tail([]float64{3, 9, 1}); got.value != 9 {
		t.Errorf("tail of 3 samples = %v, want the maximum 9", got.value)
	}
	// Order of the input does not matter, and the input is not reordered.
	xs := seq(200)
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	in := append([]float64(nil), xs...)
	if got := tail(xs); got.value != 190 {
		t.Errorf("p95 of shuffled 1..200 = %v, want 190", got.value)
	}
	for i := range xs {
		if xs[i] != in[i] {
			t.Fatal("tail reordered its input")
		}
	}
}

func TestTailAtMostCutsTheLadder(t *testing.T) {
	if got := tailAtMost(seq(100000), 9900); got.label != "p99" || got.beyond != 1000 {
		t.Errorf("tail at most p99 of 100000 samples = %s with %d beyond, want p99 with 1000", got.label, got.beyond)
	}
	// Too few samples for the cap still steps down the ladder.
	if got := tailAtMost(seq(500), 9900); got.label != "p95" {
		t.Errorf("tail at most p99 of 500 samples = %s, want p95", got.label)
	}
}

func TestSliceStatsTakesMediansOverSlices(t *testing.T) {
	// Three 1 s slices of 1000 ops at 1 ms, 2 ms and 3 ms; the slowest slice
	// also holds 100 ops at 50 ms, which move its tail and no median.
	var ops []timed
	for s, lat := range []float64{1, 2, 3} {
		for i := 0; i < 1000; i++ {
			ops = append(ops, timed{at: time.Duration(s)*time.Second + time.Duration(i)*time.Millisecond, ms: lat})
		}
	}
	for i := 0; i < 100; i++ {
		ops = append(ops, timed{at: 2*time.Second + 500*time.Millisecond, ms: 50})
	}
	ops = append(ops, timed{at: 3 * time.Second, ms: 99}) // after the window: left out
	slices := splitSlices(ops, 3*time.Second, 3)
	rate, p50, tl, rates := sliceStats(slices, time.Second, nil, 9900)
	if rate != 1000 || p50 != 2 || tl.label != "p99" || tl.value != 2 {
		t.Errorf("rate %v p50 %v tail %s %v, want 1000, 2, p99 2", rate, p50, tl.label, tl.value)
	}
	if len(rates) != 3 || rates[2] != 1100 {
		t.Errorf("slice rates %v, want [1000 1000 1100]", rates)
	}
}

func TestSliceStatsRescalesEachSlice(t *testing.T) {
	// Two 1 s slices of 1000 ops at 1 ms; the host ran the second at half
	// speed, so it completed 500 ops at 2 ms. Rescaled by its probes (time ×
	// 0.5), it reads like the first.
	slices := [][]float64{make([]float64, 1000), make([]float64, 500)}
	for i := range slices[0] {
		slices[0][i] = 1
	}
	for i := range slices[1] {
		slices[1][i] = 2
	}
	_, _, _, rates := sliceStats(slices, time.Second, []float64{1, 0.5}, 9900)
	if rates[0] != 1000 || rates[1] != 1000 {
		t.Errorf("rescaled rates %v, want [1000 1000]", rates)
	}
	_, p50, tl, _ := sliceStats(slices, time.Second, []float64{1, 0.5}, 9900)
	if p50 != 1 || tl.value != 1 {
		t.Errorf("rescaled p50 %v tail %v, want 1 and 1", p50, tl.value)
	}
}

func TestProbedScalesByTheProbesAround(t *testing.T) {
	p := &probed{probes: []float64{probeRefS, 2 * probeRefS, 3 * probeRefS}}
	for i, want := range []float64{2.0 / 3, 0.4} {
		if got := p.scale(i); math.Abs(got-math.Pow(want, probeExponent)) > 1e-12 {
			t.Errorf("scale(%d) = %v, want %v^%v", i, got, want, probeExponent)
		}
	}
}

func TestReplayLRUIsDeterministic(t *testing.T) {
	tags, buf := make([]uint64, 1024*probeWays), make([]uint64, 4096)
	a := replayLRU(tags, buf, 1, 2)
	if b := replayLRU(tags, buf, 1, 2); a != b || a == 0 || a >= 2*4096 {
		t.Errorf("misses %d then %d; want equal, and some hits and misses", a, b)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{4}, 4}, {[]float64{5, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// fakeClock advances only when a request's service time is charged.
type fakeClock struct {
	mu sync.Mutex
	t  time.Duration
}

func (c *fakeClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = max(c.t, t)
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += d
}

func TestOpenLoopTimesLatencyFromDueTime(t *testing.T) {
	// One sender, a request due every 10 ms; request 0 stalls for 35 ms and
	// every other takes 5 ms. The stall makes requests 1-5 late, and their
	// latency counts the time they waited behind it.
	clk := &fakeClock{}
	const ms10 = 10 * time.Millisecond
	times := openLoop(clk, 7, ms10, 1, func(i int) {
		if i == 0 {
			clk.advance(35 * time.Millisecond)
		} else {
			clk.advance(5 * time.Millisecond)
		}
	})
	wantLate := []int{0, 25, 20, 15, 10, 5, 0}
	wantLat := []int{35, 30, 25, 20, 15, 10, 5}
	for i, st := range times {
		if st.due != time.Duration(i)*ms10 {
			t.Errorf("request %d due at %v, want %v", i, st.due, time.Duration(i)*ms10)
		}
		if got := st.late(); got != time.Duration(wantLate[i])*time.Millisecond {
			t.Errorf("request %d late by %v, want %d ms", i, got, wantLate[i])
		}
		if got := st.latency(); got != time.Duration(wantLat[i])*time.Millisecond {
			t.Errorf("request %d latency %v, want %d ms", i, got, wantLat[i])
		}
		if st.done-st.sent > 35*time.Millisecond {
			t.Errorf("request %d service time %v exceeds the stall", i, st.done-st.sent)
		}
	}
}

func TestOpenLoopSendsEveryRequestOnce(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	times := openLoop(realClock{start: time.Now()}, 40, time.Millisecond, 2, func(i int) {
		mu.Lock()
		seen[i]++
		mu.Unlock()
	})
	if len(times) != 40 || len(seen) != 40 {
		t.Fatalf("%d schedules and %d distinct requests, want 40 of each", len(times), len(seen))
	}
	for i, st := range times {
		if seen[i] != 1 {
			t.Errorf("request %d sent %d times", i, seen[i])
		}
		if st.sent < st.due || st.done < st.sent {
			t.Errorf("request %d: due %v sent %v done %v out of order", i, st.due, st.sent, st.done)
		}
	}
}

func TestTallyCountsFailuresAgainstAttempts(t *testing.T) {
	var tl tally
	if tl.correct() || tl.availability() != 0 {
		t.Fatal("an empty tally must be neither correct nor available")
	}
	tl.ok()
	tl.ok()
	tl.check(true)
	tl.fail() // e.g. a 503
	if !tl.correct() {
		t.Error("a shed request is a failure, not a wrong answer")
	}
	tl.check(false)
	if a, f, w := tl.attempted.Load(), tl.failed.Load(), tl.wrong.Load(); a != 5 || f != 2 || w != 1 {
		t.Errorf("attempted/failed/wrong = %d/%d/%d, want 5/2/1", a, f, w)
	}
	if got := tl.availability(); got != 0.6 {
		t.Errorf("availability %v, want 0.6", got)
	}
	if tl.correct() {
		t.Error("a wrong answer must make the run incorrect")
	}
}

func TestBusyTimeIsTheUnionOfInFlightIntervals(t *testing.T) {
	ms := time.Millisecond
	reqs := []sendTimes{
		{sent: 50 * ms, done: 70 * ms},  // inside the first
		{sent: 0, done: 100 * ms},       // first, listed out of order
		{sent: 90 * ms, done: 130 * ms}, // overlaps the first's end
		{sent: 200 * ms, done: 210 * ms},
	}
	if got := busyTime(reqs); got != 140*ms {
		t.Errorf("busy %v, want 140ms (0-130 and 200-210)", got)
	}
	if got := busyTime(nil); got != 0 {
		t.Errorf("busy of no requests %v, want 0", got)
	}
}

func TestTallyIsSafeForConcurrentUse(t *testing.T) {
	var tl tally
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tl.ok()
				tl.fail()
			}
		}()
	}
	wg.Wait()
	if a, f := tl.attempted.Load(), tl.failed.Load(); a != 8000 || f != 4000 {
		t.Errorf("attempted/failed = %d/%d, want 8000/4000", a, f)
	}
}

func newTestRun(traced bool) (*run, *bytes.Buffer) {
	var buf bytes.Buffer
	return &run{workload: "test", traced: traced, metrics: map[string]float64{}, out: bufio.NewWriter(&buf)}, &buf
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

func TestReportPrintsResultAsLastLine(t *testing.T) {
	r, buf := newTestRun(false)
	for _, d := range endToEnd {
		r.set(d.name, 1.5)
	}
	r.tally.ok()
	r.tally.fail()
	if err := r.report(); err != nil {
		t.Fatal(err)
	}
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lastLine(buf.String())), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys %v, want exactly correct, attempted, failed, metrics", res)
	}
	var got result
	if err := json.Unmarshal([]byte(lastLine(buf.String())), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 2 || got.Failed != 1 || len(got.Metrics) != len(endToEnd) {
		t.Errorf("result %+v: want correct, 2 attempted, 1 failed, %d metrics", got, len(endToEnd))
	}
	if m := got.Metrics["availability"]; m.Value != 0.5 || m.Unit != "ratio" {
		t.Errorf("availability %+v, want 0.5 ratio", m)
	}
}

func TestReportRefusesMissingEndToEndMetric(t *testing.T) {
	r, _ := newTestRun(false)
	r.tally.ok()
	if err := r.report(); err == nil {
		t.Error("report succeeded without the end-to-end metrics")
	}
}

func TestTracedReportFillsUnexercisedLayersWithZero(t *testing.T) {
	r, buf := newTestRun(true)
	r.tally.ok()
	r.set("vision.run_s", 2)
	if err := r.report(); err != nil {
		t.Fatal(err)
	}
	var got result
	if err := json.Unmarshal([]byte(lastLine(buf.String())), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Metrics) != len(perLayer) || got.Metrics["vision.run_s"].Value != 2 || got.Metrics["cluster.retries"].Unit != "count" {
		t.Errorf("traced metrics %+v", got.Metrics)
	}
}

func TestSumSpansComputesSelfTime(t *testing.T) {
	spans := []span{
		{id: 1, parent: -1, layer: "root", start: 0, end: 100},
		{id: 2, parent: 1, layer: "leaf", start: 10, end: 40},
		{id: 3, parent: 1, layer: "leaf", start: 50, end: 70},
	}
	lt := sumSpans(spans)
	if r := lt["root"]; r.calls != 1 || r.total != 100e-9 || r.self != 50e-9 {
		t.Errorf("root %+v, want 1 call, 100 ns total, 50 ns self", r)
	}
	if l := lt["leaf"]; l.calls != 2 || l.total != 50e-9 || l.self != 50e-9 {
		t.Errorf("leaf %+v, want 2 calls, 50 ns total and self", l)
	}
	if name, _ := dominant(lt, []string{"root", "leaf"}); name != "root" {
		t.Errorf("dominant %s, want root (ties keep the first)", name)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.begin("x", -1)
	sp.end()
	if sp.id != -1 {
		t.Errorf("nil tracer span id %d, want -1", sp.id)
	}
}

func TestColdStreamNeverRepeatsAMember(t *testing.T) {
	s := newColdStream(7)
	seen := map[member]bool{}
	for round := 0; round < 3; round++ {
		bags, err := s.take(100)
		if err != nil {
			t.Fatal(err)
		}
		for _, bag := range bags {
			for _, m := range bag {
				if seen[m] || isCorpusBatch(m.Batch) {
					t.Fatalf("member %v repeated or in the corpus", m)
				}
				seen[m] = true
			}
		}
	}
	a, _ := newColdStream(7).take(5)
	b, _ := newColdStream(7).take(5)
	for i := range a {
		if a[i][0] != b[i][0] || a[i][1] != b[i][1] {
			t.Fatalf("same seed gave bag %d %v and %v", i, a[i], b[i])
		}
	}
}

func TestHotSetIsDistinct(t *testing.T) {
	bags := hotSet(rand.New(rand.NewPCG(3, 1)), corpusMembers(), hotSetSize)
	seen := map[[2]member]bool{}
	for _, b := range bags {
		k := [2]member{b[0], b[1]}
		if seen[k] {
			t.Fatalf("bag %v drawn twice", b)
		}
		seen[k] = true
	}
	if len(bags) != hotSetSize {
		t.Errorf("%d bags, want %d", len(bags), hotSetSize)
	}
}
