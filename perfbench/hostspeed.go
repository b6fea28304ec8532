package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// hostProbe is a fixed piece of work written into the benchmark and run
// between the timed operations of the corpus workloads and serve-hot, to
// measure how fast the shared host is at that moment. It shares no code
// with the program, so a change to the program cannot move it; only the
// host can. Each operation's time is rescaled by the probes on either side
// of it to the time it would take on a host where the probe takes
// probeRefS (see README.md, "Noise").
//
// Like a corpus pass, the probe runs on every worker and mixes two kinds
// of work, each about half its time: replaying a short address stream
// through an LRU cache model whose tags fit in a core's L2, and streaming
// a 96 MiB buffer through a model whose tags do not. On a 2-vCPU VM the
// sum tracked half-minute medians of corpus-exact's pass time with a
// correlation of 0.86 over four minutes; either half alone tracked worse.
type hostProbe struct {
	workers []probeWorker
	maps    [][]byte // the mappings behind the workers' buffers
}

type probeWorker struct {
	small, large []uint64 // the two cache models' tag arrays
	short, long  []uint64 // their address streams
	sink         uint64   // the miss count, so no work is dead
}

// probeRefS is the probe's time on the reference host: an operation's
// reported time is its measured time × (probeRefS ÷ the probes' time
// around it)^probeExponent. 0.5 s is what the probe took on a 2-vCPU Xeon
// VM.
const probeRefS = 0.5

// probeExponent is how much of the probe's slowdown the timed work shares:
// when the host slows the probe by a factor f, a corpus pass slows by about
// f^probeExponent. Over five runs each of corpus-exact and corpus-k4-fast,
// 0.5 left the least spread in the rescaled median pass (README.md, "Host
// probe").
const probeExponent = 0.5

const (
	probeWays        = 8
	probeSmallSets   = 1 << 12 // 256 KiB of tags
	probeLargeSets   = 1 << 16 // 4 MiB of tags
	probeShortStream = 1 << 19 // 4 MiB of addresses, replayed probeShortRounds times
	probeLongStream  = 12 << 20
	probeShortRounds = 16
)

// newHostProbe maps the probe's buffers outside the Go heap, so that they
// do not move the collector's pacing of the program's own heap, and faults
// them in.
func newHostProbe(workers int) (*hostProbe, error) {
	h := &hostProbe{workers: make([]probeWorker, workers)}
	for i := range h.workers {
		w := &h.workers[i]
		for _, b := range []struct {
			buf *[]uint64
			n   int
		}{
			{&w.small, probeSmallSets * probeWays},
			{&w.large, probeLargeSets * probeWays},
			{&w.short, probeShortStream},
			{&w.long, probeLongStream},
		} {
			m, err := syscall.Mmap(-1, 0, 8*b.n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
			if err != nil {
				h.close()
				return nil, fmt.Errorf("mapping the host probe's buffers: %w", err)
			}
			h.maps = append(h.maps, m)
			*b.buf = unsafe.Slice((*uint64)(unsafe.Pointer(&m[0])), b.n)
		}
	}
	h.run()
	return h, nil
}

// close unmaps the probe's buffers. A failed unmap leaves only address
// space behind in a process about to exit, so its error is dropped.
func (h *hostProbe) close() {
	h.workers = nil
	for _, m := range h.maps {
		_ = syscall.Munmap(m)
	}
	h.maps = nil
}

// megabytes is the probe's resident footprint.
func (h *hostProbe) megabytes() float64 {
	var n int
	for _, m := range h.maps {
		n += len(m)
	}
	return float64(n) / (1 << 20)
}

// run does the probe's work once on every worker and returns its wall time
// in seconds.
func (h *hostProbe) run() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := range h.workers {
		wg.Add(1)
		go func(w *probeWorker, seed uint64) {
			defer wg.Done()
			w.sink = replayLRU(w.small, w.short, seed, probeShortRounds) + replayLRU(w.large, w.long, seed, 1)
		}(&h.workers[i], uint64(i)+1)
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// replayLRU writes an address stream of sequential runs broken by random
// jumps over 1 GiB into buf, replays it rounds times through an 8-way LRU
// cache model with the given tag array, and returns the misses. The same
// arguments always do the same work.
func replayLRU(tags, buf []uint64, seed uint64, rounds int) uint64 {
	x := seed*0x9E3779B97F4A7C15 | 1
	var addr uint64
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&15 == 0 {
			addr = x >> 34 << 6 // a line in the low 1 GiB
		} else {
			addr += 64
		}
		buf[i] = addr
	}
	clear(tags)
	sets := uint64(len(tags) / probeWays)
	var misses uint64
	for r := 0; r < rounds; r++ {
		for _, a := range buf {
			line := a>>6 + 1 // 0 marks an empty way
			set := tags[int(line%sets)*probeWays:][:probeWays]
			hit := probeWays - 1
			for i, t := range set {
				if t == line {
					hit = i
					break
				}
			}
			if set[hit] != line {
				misses++
			}
			copy(set[1:hit+1], set[:hit]) // to the front; a miss evicts the last way
			set[0] = line
		}
	}
	return misses
}

// probed interleaves timed operations with host probes: probe, operation,
// probe, operation, ..., probe. Each probe follows a forced GC, so every
// operation also starts with the previous one's garbage collected.
type probed struct {
	h      *hostProbe
	probes []float64 // seconds; one more than the operations once closed
}

func newProbed(h *hostProbe) *probed {
	p := &probed{h: h}
	p.probe()
	return p
}

// probe runs one probe after a forced GC.
func (p *probed) probe() {
	runtime.GC()
	p.probes = append(p.probes, p.h.run())
}

// scale returns the factor that rescales operation i's time to the
// reference host: probeRefS over the mean of the probes either side of it,
// to the power probeExponent. It needs the probe after operation i.
func (p *probed) scale(i int) float64 {
	return math.Pow(2*probeRefS/(p.probes[i]+p.probes[i+1]), probeExponent)
}
