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

// distinctStream returns a stream touching units distinct lines in a
// scrambled order, then all of them again in the same order, split into
// phases of at most phase references.
func distinctStream(units, phase int) ([]uint64, []int) {
	addrs := make([]uint64, 0, 2*units)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < units; i++ {
			// An odd multiplier permutes the 40-bit units: all distinct.
			u := uint64(i) * 0x9E3779B97F4A7C15 & (1<<40 - 1)
			addrs = append(addrs, u<<LineShift|uint64(i&7)<<3)
		}
	}
	var ends []int
	for end := phase; ; end += phase {
		if end >= len(addrs) {
			ends = append(ends, len(addrs))
			break
		}
		ends = append(ends, end)
	}
	return addrs, ends
}

// TestSummarizeGrowsTable sketches a stream with more than 2^18 distinct
// lines, which doubles the last-touch table several times past its
// starting size mid-stream; the histograms must still equal the
// reference's.
func TestSummarizeGrowsTable(t *testing.T) {
	addrs, ends := distinctStream(1<<18+1000, 100000)
	checkSummarize(t, "2^18+ distinct lines", addrs, ends)
}

// TestSketchTableReuse drives one table through a large, a small and a
// large stream again, the sequence the pool produces: a table sized and
// filled by one stream must come back empty and right-sized for the next.
// A warm table then sketches without allocating.
func TestSketchTableReuse(t *testing.T) {
	bigA, bigEnds := distinctStream(50000, 30000)
	rng := rand.New(rand.NewSource(5))
	small, smallEnds := randomStream(rng, 3, 200, 50, 0)
	bigB, bigBEnds := randomStream(rng, 4, 40000, 30000, 0)
	var tab lastTouch
	for _, c := range []struct {
		name  string
		addrs []uint64
		ends  []int
	}{
		{"large", bigA, bigEnds}, {"small", small, smallEnds}, {"large again", bigB, bigBEnds},
		{"small again", small, smallEnds}, {"large first again", bigA, bigEnds},
	} {
		for _, shift := range []uint{LineShift, PageShift} {
			got := make([]PhaseSum, len(c.ends))
			want := make([]PhaseSum, len(c.ends))
			sketch(&tab, c.addrs, c.ends, shift, got)
			refSketch(c.addrs, c.ends, shift, want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (shift %d): pooled table diverges from the reference sketch", c.name, shift)
			}
			if 2*tab.used > len(tab.slots) {
				t.Fatalf("%s (shift %d): table %d slots holds %d units, over half full", c.name, shift, len(tab.slots), tab.used)
			}
		}
	}
	out := make([]PhaseSum, len(bigEnds))
	if allocs := testing.AllocsPerRun(3, func() { sketch(&tab, bigA, bigEnds, LineShift, out) }); allocs != 0 {
		t.Fatalf("warm table allocates %v times per sketch", allocs)
	}
}
