package main

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported as the tail.
const minBeyond = 10

// tailLadder holds the candidate tail percentiles in hundredths of a
// percent, highest first, so rank arithmetic stays in integers. It stops at
// p99.9: beyond it a 15 s serve-hot window times a dozen GC or scheduler
// hiccups, which moved p99.99 by 36% between runs.
var tailLadder = []int{9990, 9900, 9500, 9000, 7500, 5000}

// percentile returns the nearest-rank percentile p (in hundredths of a
// percent) of sorted samples and how many samples lie beyond it.
func percentile(sorted []float64, p int) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	r := (p*n + 9999) / 10000 // ceil(p/100 % of n), 1-based rank
	r = max(1, min(r, n))
	return sorted[r-1], n - r
}

// tailStat is a latency distribution's tail: the highest ladder percentile
// with at least minBeyond samples beyond it, or the maximum when there are
// too few samples for any.
type tailStat struct {
	label  string // "p99.9", or "max"
	value  float64
	beyond int
	n      int
}

func tail(samples []float64) tailStat { return tailAtMost(samples, tailLadder[0]) }

// tailAtMost is tail with the ladder cut at percentile top (in hundredths of
// a percent), for a workload whose higher percentiles are too noisy to bound.
func tailAtMost(samples []float64, top int) tailStat {
	s := sortedCopy(samples)
	n := len(s)
	for _, p := range tailLadder {
		if p > top {
			continue
		}
		if v, beyond := percentile(s, p); beyond >= minBeyond {
			return tailStat{label: ladderLabel(p), value: v, beyond: beyond, n: n}
		}
	}
	if n == 0 {
		return tailStat{label: "max"}
	}
	return tailStat{label: "max", value: s[n-1], n: n}
}

func ladderLabel(p int) string {
	return "p" + strconv.FormatFloat(float64(p)/100, 'f', -1, 64)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (the mean of the middle two for an even count).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timed is one completed operation: when it finished, measured from the
// start of the window, and its latency in milliseconds.
type timed struct {
	at time.Duration
	ms float64
}

// splitSlices splits a window's operations into n equal slices by finish
// time and returns each slice's latencies. Operations finishing after the
// last slice are left out.
func splitSlices(ops []timed, window time.Duration, n int) [][]float64 {
	width := window / time.Duration(n)
	slices := make([][]float64, n)
	for _, op := range ops {
		if i := int(op.at / width); i < n {
			slices[i] = append(slices[i], op.ms)
		}
	}
	return slices
}

// sliceStats returns the median over slices, each width long, of each
// slice's rate (operations per second), p50 and tail, with slice i's times
// multiplied by scale[i] (nil: by 1). The tail percentile, at most top, is
// picked once, from the smallest slice, so every slice reports the same
// one. A burst of host noise that spoils one slice moves none of the
// medians; over the whole window it moved serve-hot's p99.9 six-fold in one
// run of five. rates holds each slice's scaled rate.
func sliceStats(slices [][]float64, width time.Duration, scale []float64, top int) (rate, p50 float64, t tailStat, rates []float64) {
	n := len(slices)
	if scale == nil {
		scale = make([]float64, n)
		for i := range scale {
			scale[i] = 1
		}
	}
	smallest := slices[0]
	for _, s := range slices {
		if len(s) < len(smallest) {
			smallest = s
		}
	}
	t = tailAtMost(smallest, top)
	p := 10000 // the maximum, when no ladder percentile qualifies
	for _, lp := range tailLadder {
		if ladderLabel(lp) == t.label {
			p = lp
		}
	}
	rates = make([]float64, n)
	p50s, tails := make([]float64, n), make([]float64, n)
	for i, s := range slices {
		rates[i] = float64(len(s)) / width.Seconds() / scale[i]
		p50s[i] = median(s) * scale[i]
		tails[i], _ = percentile(sortedCopy(s), p)
		tails[i] *= scale[i]
	}
	t.value = median(tails)
	return median(rates), median(p50s), t, rates
}

// tally counts attempted operations, the failed ones among them, and the
// subset of failures that were wrong answers (a failed output check) rather
// than errors. It is safe for concurrent use.
type tally struct {
	attempted, failed, wrong atomic.Int64
}

// ok records an operation that succeeded and passed its output check.
func (t *tally) ok() { t.attempted.Add(1) }

// fail records an operation that errored: a transport error, a non-200
// answer (503 included) or a program error.
func (t *tally) fail() {
	t.attempted.Add(1)
	t.failed.Add(1)
}

// mismatch records an operation whose output failed its check.
func (t *tally) mismatch() {
	t.fail()
	t.wrong.Add(1)
}

// check records an operation by its output check.
func (t *tally) check(pass bool) {
	if pass {
		t.ok()
	} else {
		t.mismatch()
	}
}

// availability is the share of attempted operations that succeeded.
func (t *tally) availability() float64 {
	a := t.attempted.Load()
	if a == 0 {
		return 0
	}
	return 1 - float64(t.failed.Load())/float64(a)
}

// correct reports whether at least one operation ran and no output failed
// its check.
func (t *tally) correct() bool {
	return t.attempted.Load() > 0 && t.wrong.Load() == 0
}

// clock is the open loop's time source: a real one in runs, a fake one in
// tests.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

type realClock struct{ start time.Time }

func (c realClock) now() time.Duration { return time.Since(c.start) }

func (c realClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// sendTimes is one open-loop request's schedule: when it was due, when it
// was sent and when its answer arrived.
type sendTimes struct {
	due, sent, done time.Duration
}

// latency is timed from the due time, so a stall also charges the wait it
// imposes on every request queued behind it.
func (s sendTimes) latency() time.Duration { return s.done - s.due }

// late is how far behind schedule the generator sent the request.
func (s sendTimes) late() time.Duration { return s.sent - s.due }

// busyTime is the length of the union of the requests' [sent, done]
// intervals: the time during which at least one request was in flight.
func busyTime(reqs []sendTimes) time.Duration {
	s := append([]sendTimes(nil), reqs...)
	sort.Slice(s, func(i, j int) bool { return s[i].sent < s[j].sent })
	var busy, end time.Duration
	for _, r := range s {
		switch {
		case r.sent >= end:
			busy += r.done - r.sent
			end = r.done
		case r.done > end:
			busy += r.done - end
			end = r.done
		}
	}
	return busy
}

// openLoop issues n requests, request i due at i*interval, from a fixed set
// of senders; do(i) performs request i. A sender that falls behind sends at
// once, so lateness shows in late() and in the due-time latency. It returns
// every request's schedule, indexed by i.
func openLoop(clk clock, n int, interval time.Duration, senders int, do func(i int)) []sendTimes {
	out := make([]sendTimes, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(i) * interval
				clk.sleepUntil(due)
				sent := clk.now()
				do(i)
				out[i] = sendTimes{due: due, sent: sent, done: clk.now()}
			}
		}()
	}
	wg.Wait()
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
