package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans around the benchmark's calls into the program's
// layers. Spans stay in memory until the run ends; a nil *tracer records
// nothing, so untraced runs pay one nil check per span.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

// span is one timed call: its layer, the span that caused it (-1 for a
// root) and its start and end in nanoseconds since the tracer's epoch.
type span struct {
	id, parent int64
	layer      string
	start, end int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a span that has begun and not yet ended.
type openSpan struct {
	t      *tracer
	id     int64
	parent int64
	layer  string
	start  time.Time
}

// begin opens a span of layer under parent. On a nil tracer it returns a
// span whose end does nothing and whose id is -1.
func (t *tracer) begin(layer string, parent int64) openSpan {
	if t == nil {
		return openSpan{id: -1}
	}
	return openSpan{t: t, id: t.nextID.Add(1), parent: parent, layer: layer, start: time.Now()}
}

func (s openSpan) end() {
	if s.t == nil {
		return
	}
	end := time.Now()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{
		id: s.id, parent: s.parent, layer: s.layer,
		start: int64(s.start.Sub(s.t.epoch)), end: int64(end.Sub(s.t.epoch)),
	})
	s.t.mu.Unlock()
}

// layerTime is one layer's totals: calls, summed duration and summed self
// time (duration minus the time its child spans cover), in seconds.
type layerTime struct {
	calls       int
	total, self float64
}

// totals sums the recorded spans by layer.
func (t *tracer) totals() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	return sumSpans(t.spans)
}

func sumSpans(spans []span) map[string]layerTime {
	childNs := make(map[int64]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			childNs[s.parent] += s.end - s.start
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		lt := out[s.layer]
		d := s.end - s.start
		lt.calls++
		lt.total += float64(d) / 1e9
		lt.self += float64(d-childNs[s.id]) / 1e9
		out[s.layer] = lt
	}
	return out
}

// dominant returns the layer with the largest self time among the named
// ones, and that time.
func dominant(lt map[string]layerTime, layers []string) (string, float64) {
	best, bestSelf := "", -1.0
	for _, l := range layers {
		if s := lt[l].self; s > bestSelf {
			best, bestSelf = l, s
		}
	}
	return best, bestSelf
}

// write stores the spans as CSV (id,parent,layer,start_ns,end_ns), sorted
// by start time.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,layer,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", s.id, s.parent, s.layer, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
