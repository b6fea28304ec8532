package phasesum

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// This file retains the original map-based reuse sketch verbatim (modulo
// renaming) as an executable specification. The production sketch was
// rebuilt for throughput — a pooled open-addressed last-touch table and a
// bits.Len bucket — under a bit-identity contract: the same Refs, Cold and
// Hist for every phase at every granularity. The differential tests below
// and in streams_test.go fail on the first divergence.
//
// Do not "fix" or modernize this code: its value is being the frozen
// original. If the sketch's semantics are deliberately changed, change
// both implementations and re-record the fast-tier golden corpus hashes in
// internal/dataset/golden_hash_test.go.

// refSummarize is the original Summarize.
func refSummarize(addrs []uint64, ends []int) Summary {
	sum := Summary{
		Line:      make([]PhaseSum, len(ends)),
		Page:      make([]PhaseSum, len(ends)),
		TotalRefs: len(addrs),
	}
	refSketch(addrs, ends, LineShift, sum.Line)
	refSketch(addrs, ends, PageShift, sum.Page)
	return sum
}

// refSketch is the original map-based sketch.
func refSketch(addrs []uint64, ends []int, shift uint, out []PhaseSum) {
	last := make(map[uint64]int, 1<<12)
	start := 0
	for pi := range out {
		end := ends[pi]
		ps := &out[pi]
		ps.Refs = end - start
		for i := start; i < end; i++ {
			u := addrs[i] >> shift
			if prev, ok := last[u]; ok {
				ps.Hist[refBucketOf(i-prev)]++
			} else {
				ps.Cold++
			}
			last[u] = i
		}
		start = end
	}
}

// refBucketOf is the original shift-loop bucket.
func refBucketOf(d int) int {
	b := 0
	for d > 1 {
		d >>= 1
		b++
	}
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// checkSummarize fails unless Summarize matches the reference on one
// stream.
func checkSummarize(t *testing.T, label string, addrs []uint64, ends []int) {
	t.Helper()
	got, want := Summarize(addrs, ends), refSummarize(addrs, ends)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Summarize diverges from the reference sketch\n got  %+v\n want %+v", label, got, want)
	}
}

// randomStream draws a phase-contiguous stream of nPhases phases. Each
// phase reuses units from a working set of `units` distinct units (so
// reuse crosses phase boundaries) and may be empty; hi adds a high
// address-space base so units sit near the top of the uint64 range.
func randomStream(rng *rand.Rand, nPhases, maxPhase, units int, hi uint64) ([]uint64, []int) {
	var addrs []uint64
	ends := make([]int, nPhases)
	for p := range ends {
		n := rng.Intn(maxPhase + 1)
		if rng.Intn(4) == 0 {
			n = 0 // empty phase
		}
		for i := 0; i < n; i++ {
			u := uint64(rng.Intn(units))
			addrs = append(addrs, hi+u<<LineShift+uint64(rng.Intn(1<<LineShift)))
		}
		ends[p] = len(addrs)
	}
	return addrs, ends
}

func TestSummarizeMatchesReferenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	top := uint64(math.MaxUint64) &^ (1<<40 - 1) // the top 24 bits set
	for trial := 0; trial < 300; trial++ {
		units := 1 + rng.Intn(5000)
		var hi uint64
		if trial%3 == 0 {
			hi = top
		}
		addrs, ends := randomStream(rng, 1+rng.Intn(8), 4000, units, hi)
		checkSummarize(t, "random", addrs, ends)
	}
}

func TestSummarizeMatchesReferenceEdgeCases(t *testing.T) {
	// A long distinct run: every reference is cold at line granularity.
	distinct := make([]uint64, 20000)
	for i := range distinct {
		distinct[i] = uint64(i) << LineShift
	}
	// A single unit touched over and over: all reuse at distance 1.
	single := make([]uint64, 5000)
	for i := range single {
		single[i] = 0xdead_beef
	}
	// The highest representable addresses, including MaxUint64 itself,
	// whose unit is the largest key the table ever stores.
	high := []uint64{math.MaxUint64, math.MaxUint64 - 1, math.MaxUint64 - 64, math.MaxUint64, 0, math.MaxUint64 - 4096, 0}
	cases := []struct {
		name  string
		addrs []uint64
		ends  []int
	}{
		{"empty stream", nil, nil},
		{"empty phases only", nil, []int{0, 0, 0}},
		{"empty phases around data", []uint64{64, 128, 64}, []int{0, 2, 2, 3, 3}},
		{"all distinct", distinct, []int{5000, 5000, 20000}},
		{"single unit", single, []int{1, 2500, 5000}},
		{"high addresses", high, []int{3, 7}},
		{"reuse across phases", []uint64{0, 1 << 20, 0, 1 << 20, 0}, []int{2, 3, 3, 5}},
	}
	for _, c := range cases {
		checkSummarize(t, c.name, c.addrs, c.ends)
	}
}

// TestSummarizeConcurrentMatchesReference sketches streams of different
// lengths from several goroutines at once, so pooled tables move between
// goroutines and are resized and cleared under contention (run under -race
// in CI); every result must still equal the reference.
func TestSummarizeConcurrentMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type stream struct {
		addrs []uint64
		ends  []int
		want  Summary
	}
	streams := make([]stream, 16)
	for i := range streams {
		addrs, ends := randomStream(rng, 1+rng.Intn(6), 500*(1+i), 1+rng.Intn(3000), 0)
		streams[i] = stream{addrs, ends, refSummarize(addrs, ends)}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4*len(streams); i++ {
				s := &streams[(g+i*5)%len(streams)]
				if got := Summarize(s.addrs, s.ends); !reflect.DeepEqual(got, s.want) {
					t.Errorf("goroutine %d: concurrent Summarize diverges from the reference", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
