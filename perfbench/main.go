// Command perfbench is the repository's benchmark: four workloads over the
// paper's pipeline (instrumentation, isolated and contended simulation,
// features, CART predict, serve, router), each printing its end-to-end
// metrics, or with --trace 1 its per-layer metrics, as one JSON line.
//
// Usage (from the repository root; run.sh builds it first):
//
//	bash perfbench/run.sh --workload corpus-exact --seed 42 --seconds 15 --trace 0
//
// See README.md for the workloads, the metrics and the noise they carry.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// A metric's definition: its name and unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"availability", "ratio"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"loocv_err_pct", "%"},
	{"oracle_err_pct", "%"},
}

// perLayer are the metrics a traced run prints. A layer a workload does not
// exercise reads 0.
var perLayer = []metricDef{
	{"gpusim.corun_s", "s"}, {"gpusim.corun_calls", "count"},
	{"cpusim.corun_s", "s"}, {"cpusim.corun_calls", "count"},
	{"phasesum.analytic_runs", "count"}, {"phasesum.exact_fallbacks", "count"},
	{"vision.run_s", "s"}, {"vision.run_calls", "count"},
	{"mica.analyze_s", "s"}, {"mica.analyze_calls", "count"},
	{"cpusim.iso_s", "s"}, {"cpusim.iso_calls", "count"},
	{"gpusim.iso_s", "s"}, {"gpusim.iso_calls", "count"},
	{"features.vector_s", "s"},
	{"simcache.hits", "count"}, {"simcache.misses", "count"},
	{"simcache.evictions", "count"}, {"simcache.hit_ratio", "ratio"},
	{"parallel.efficiency", "ratio"},
	{"cluster.router_self_ms", "ms"}, {"cluster.forward_ms", "ms"}, {"cluster.retries", "count"},
	{"serve.handler_ms", "ms"}, {"serve.cache_hit_ratio", "ratio"},
	{"serve.shed", "count"}, {"serve.degraded", "count"},
	{"core.predict_us", "us"}, {"core.train_s", "s"}, {"core.loocv_s", "s"},
	{"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"}, {"go.alloc_mb", "MB"},
	{"loadgen.late_ms", "ms"},
	{"trace.overhead_pct", "%"}, {"trace.unaccounted_pct", "%"}, {"trace.dominant_pct", "%"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"corpus-exact":   corpusExact,
	"corpus-k4-fast": corpusK4Fast,
	"serve-hot":      serveHot,
	"serve-cold":     serveCold,
}

// run is one benchmark invocation: its arguments, its counts and the
// metrics it has measured so far.
type run struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	workers  int
	start    time.Time
	spanDir  string

	tally   tally
	probeMB float64 // the host probe's resident buffers, left out of peak_rss_mb
	metrics map[string]float64
	out     *bufio.Writer // human-readable lines, before the JSON line
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// logf prints a "#" line stamped with the seconds since the process
// started.
func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.out, "# [%6.2fs] "+format+"\n", append([]any{time.Since(r.start).Seconds()}, args...)...)
}

// setups performs the workload's repeatable set-up n times, tearing down
// all but the last, and records setup_s: the median set-up plus everything
// else that ran before the timed window (process start, one-time
// preparation such as training the served model, teardowns). The first
// set-up in a process also faults in the heap; the median of three (or the
// mean of two, or the one) treats that cost the same way on every run.
func setups[T any](r *run, n int, setup func() (T, func(), error)) (T, error) {
	var env T
	var teardown func()
	var took []float64
	for i := 0; i < n; i++ {
		if teardown != nil {
			teardown()
		}
		t0 := time.Now()
		var err error
		env, teardown, err = setup()
		if err != nil {
			return env, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		took = append(took, time.Since(t0).Seconds())
	}
	var repeated float64
	for _, s := range took {
		repeated += s
	}
	once := time.Since(r.start).Seconds() - repeated
	r.set("setup_s", once+median(took))
	r.logf("setup_s: %.3f s once + median of %d set-ups %v = %.3f s", once, n, fmtSecs(took), once+median(took))
	return env, nil
}

func fmtSecs(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// quiesce forces a collection so garbage from the previous phase is not
// collected inside the next timed window, and resets the peak-RSS mark, so
// that peak_rss_mb covers only what follows. With release, the free pages
// also go back to the OS first: serve set-up trains the model on a heap
// near 1 GB that serving never needs again. A corpus warm-up pass has the
// footprint of a timed pass, so there the pages are kept; releasing them
// made the first timed pass fault them back in, 10-27% slower.
func (r *run) quiesce(after string, release bool) {
	var before, afterGC runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	if release {
		debug.FreeOSMemory() // a forced GC, then every free page to the OS
	} else {
		runtime.GC()
	}
	took := time.Since(t0)
	runtime.ReadMemStats(&afterGC)
	mark := "peak RSS mark reset"
	if err := resetPeakRSS(); err != nil {
		mark = fmt.Sprintf("peak RSS mark not reset (%v): peak_rss_mb covers the whole process", err)
	}
	r.logf("quiesce after %s: forced GC in %.1f ms, heap %.0f -> %.0f MB, pages released to the OS: %t; %s",
		after, ms(took), float64(before.HeapAlloc)/1e6, float64(afterGC.HeapAlloc)/1e6, release, mark)
}

// newHostProbe maps the host probe for the timed window; its buffers are
// left out of peak_rss_mb.
func (r *run) newHostProbe() (*hostProbe, error) {
	h, err := newHostProbe(r.workers)
	if err != nil {
		return nil, err
	}
	r.probeMB = h.megabytes()
	return h, nil
}

// resetPeakRSS sets the process's VmHWM to its current RSS (Linux 4.0+).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// gcWindow snapshots the Go runtime at the start of a timed window.
type gcWindow struct{ before runtime.MemStats }

func startWindow() *gcWindow {
	w := &gcWindow{}
	runtime.ReadMemStats(&w.before)
	return w
}

// stop records the window's collections, pause time and allocation, and
// the peak RSS since the last quiesce, before any post-window check adds to
// it, less the host probe's buffers.
func (w *gcWindow) stop(r *run) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rss -= r.probeMB
	r.set("peak_rss_mb", rss)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	cycles := float64(after.NumGC - w.before.NumGC)
	pause := float64(after.PauseTotalNs-w.before.PauseTotalNs) / 1e6
	alloc := float64(after.TotalAlloc-w.before.TotalAlloc) / 1e6
	r.set("go.gc_cycles", cycles)
	r.set("go.gc_pause_ms", pause)
	r.set("go.alloc_mb", alloc)
	r.logf("go runtime in window: %.0f GC cycles, %.2f ms paused, %.0f MB allocated; peak RSS %.0f MB without the probe's %.0f MB",
		cycles, pause, alloc, rss, r.probeMB)
	return nil
}

// latencies records p50_ms and tail_ms.
func (r *run) latencies(what string, p50 float64, t tailStat) {
	r.set("p50_ms", p50)
	r.set("tail_ms", t.value)
	r.logf("%s latency: p50 %.3f ms, tail %s = %.3f ms (%d samples, %d beyond it)",
		what, p50, t.label, t.value, t.n, t.beyond)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the run's metrics for its mode as the final JSON line.
func (r *run) report() error {
	r.set("availability", r.tally.availability())
	a, f := r.tally.attempted.Load(), r.tally.failed.Load()
	errRate := 0.0
	if a > 0 {
		errRate = float64(f) / float64(a)
	}
	r.logf("error_rate %g (%d failed of %d attempted; %d wrong answers)", errRate, f, a, r.tally.wrong.Load())

	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	res := result{Correct: r.tally.correct(), Attempted: a, Failed: f, Metrics: map[string]metricValue{}}
	var unset []string
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			if !r.traced {
				return fmt.Errorf("end-to-end metric %s was not measured", d.name)
			}
			unset = append(unset, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(unset) > 0 {
		sort.Strings(unset)
		r.logf("layers not exercised by %s (reported as 0): %s", r.workload, strings.Join(unset, " "))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.out, "%s\n", line)
	return r.out.Flush()
}

func main() {
	start := time.Now()
	workload := flag.String("workload", "", "workload: corpus-exact, corpus-k4-fast, serve-hot or serve-cold")
	seed := flag.Uint64("seed", paperSeed, "seed of every generated input")
	seconds := flag.Int("seconds", 15, "length of the timed window in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	spanDir := flag.String("span-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of corpus-exact, corpus-k4-fast, serve-hot, serve-cold), --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *traced == 1,
		workers:  runtime.NumCPU(),
		start:    start,
		spanDir:  *spanDir,
		metrics:  map[string]float64{},
		out:      bufio.NewWriter(os.Stdout),
	}
	r.logf("perfbench %s seed %d window %v trace %v workers %d", r.workload, r.seed, r.window, r.traced, r.workers)
	if err := fn(r); err != nil {
		r.out.Flush()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.report(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
