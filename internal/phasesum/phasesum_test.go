package phasesum

import (
	"math"
	"strings"
	"testing"
)

func TestParseFidelity(t *testing.T) {
	cases := []struct {
		in   string
		want Fidelity
		ok   bool
	}{
		{"", Exact, true},
		{"exact", Exact, true},
		{"fast", Fast, true},
		{"FAST", "", false},
		{"approx", "", false},
		{"mixed", "", false}, // the retired confidence-gated tier
	}
	for _, c := range cases {
		got, err := ParseFidelity(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseFidelity(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), "want exact or fast")) {
			t.Errorf("ParseFidelity(%q) = %v; want an error listing exact and fast", c.in, err)
		}
	}
	if Fidelity("").Effective() != Exact {
		t.Error("zero fidelity must resolve to exact")
	}
	if Fidelity("").Analytic() || Exact.Analytic() || !Fast.Analytic() {
		t.Error("Analytic(): want false for exact, true for fast")
	}
}

// seqStream builds a stream touching `units` distinct lines `rounds` times
// each, round-robin, at line granularity (addresses 64 bytes apart).
func seqStream(units, rounds int) ([]uint64, []int) {
	addrs := make([]uint64, 0, units*rounds)
	for r := 0; r < rounds; r++ {
		for u := 0; u < units; u++ {
			addrs = append(addrs, uint64(u)<<LineShift)
		}
	}
	return addrs, []int{len(addrs)}
}

func TestSummarizeColdAndReuse(t *testing.T) {
	addrs, ends := seqStream(100, 3)
	s := Summarize(addrs, ends)
	ps := s.Line[0]
	if ps.Refs != 300 || ps.Cold != 100 {
		t.Fatalf("line sketch: refs=%d cold=%d, want 300/100", ps.Refs, ps.Cold)
	}
	var reuse int
	for _, c := range ps.Hist {
		reuse += c
	}
	if reuse != 200 {
		t.Fatalf("reuse mass %d, want 200", reuse)
	}
	// Every re-reference is at distance exactly 100 -> bucket log2(100)=6.
	if ps.Hist[6] != 200 {
		t.Fatalf("distance-100 mass in bucket 6 = %d, want 200", ps.Hist[6])
	}
	// 100 lines of 64B span two 4K pages; page sketch sees 2 cold units.
	if s.Page[0].Cold != 2 {
		t.Fatalf("page cold = %d, want 2", s.Page[0].Cold)
	}
	if s.TotalRefs != 300 {
		t.Fatalf("TotalRefs = %d, want 300", s.TotalRefs)
	}
}

func TestSummarizeDistancesCrossPhases(t *testing.T) {
	// Same line touched in phase 0 and phase 1: the reuse must be seen
	// (not treated as cold) because the isolated replay walks one stream.
	addrs := []uint64{0, 1 << LineShift, 0}
	ends := []int{2, 3}
	s := Summarize(addrs, ends)
	if s.Line[1].Cold != 0 {
		t.Fatalf("phase-1 cold = %d, want 0 (reuse crosses phases)", s.Line[1].Cold)
	}
	if s.Line[1].Hist[1] != 1 { // distance 2 -> bucket 1
		t.Fatalf("phase-1 hist = %v, want distance-2 reuse", s.Line[1].Hist)
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 1, 4: 2, 1023: 9, 1024: 10}
	// Every power-of-two boundary 2^b-1, 2^b, 2^b+1, against the frozen
	// shift-loop reference (reference_test.go), clamp included.
	for b := 1; b < 40; b++ {
		for _, d := range []int{1<<b - 1, 1 << b, 1<<b + 1} {
			cases[d] = refBucketOf(d)
		}
	}
	// The clamp: the last unclamped bucket, then everything at or past
	// 2^(NumBuckets-1) in the final bucket.
	cases[1<<(NumBuckets-1)-1] = NumBuckets - 2
	cases[1<<(NumBuckets-1)] = NumBuckets - 1
	cases[math.MaxInt] = NumBuckets - 1
	for d, want := range cases {
		if got := bucketOf(d); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", d, got, want)
		}
	}
	if got := bucketOf(1 << 40); got != NumBuckets-1 {
		t.Errorf("huge distance bucket %d, want clamp to %d", got, NumBuckets-1)
	}
}

func TestSharedMissCapacityFit(t *testing.T) {
	// One client, working set of 64 lines, capacity 1024: everything but
	// the cold misses hits.
	addrs, ends := seqStream(64, 10)
	s := Summarize(addrs, ends)
	est := SharedMiss([][]PhaseSum{s.Line}, []int{s.TotalRefs}, SharedConfig{Capacity: 1024})
	m := est[0][0]
	wantMiss := 64.0 / 640.0
	if math.Abs(m.Miss-wantMiss) > 1e-12 {
		t.Fatalf("fit-in-capacity miss %.4f, want %.4f (cold only)", m.Miss, wantMiss)
	}
	if m.Confidence < 0.99 {
		t.Fatalf("confidence %.3f, want ~1 (mass far from threshold)", m.Confidence)
	}
}

func TestSharedMissCapacityThrash(t *testing.T) {
	// Working set 4096 lines >> capacity 64: every reuse distance (4096)
	// exceeds the threshold; all references miss.
	addrs, ends := seqStream(4096, 4)
	s := Summarize(addrs, ends)
	est := SharedMiss([][]PhaseSum{s.Line}, []int{s.TotalRefs}, SharedConfig{Capacity: 64})
	if m := est[0][0].Miss; m < 0.999 {
		t.Fatalf("thrash miss %.4f, want ~1", m)
	}
}

func TestSharedMissContentionDilutesCapacity(t *testing.T) {
	// A client that fits alone must miss more when a high-novelty
	// co-runner floods the shared structure.
	addrs, ends := seqStream(256, 8)
	victim := Summarize(addrs, ends)

	// Aggressor: a long stream of all-distinct lines (pure novelty).
	n := 8 * 256
	agg := make([]uint64, n)
	for i := range agg {
		agg[i] = uint64(1<<30+i) << LineShift
	}
	aggSum := Summarize(agg, []int{n})

	// Capacity 300: alone, DeltaMax = 300/u = 2400 and the distance-256
	// reuse hits; shared with the aggressor the diluted DeltaMax ~= 267
	// drops below the bucket midpoint (~362) and the reuse misses.
	cfg := SharedConfig{Capacity: 300}
	alone := SharedMiss([][]PhaseSum{victim.Line}, []int{victim.TotalRefs}, cfg)
	shared := SharedMiss(
		[][]PhaseSum{victim.Line, aggSum.Line},
		[]int{victim.TotalRefs, aggSum.TotalRefs}, cfg)
	if !(shared[0][0].Miss > alone[0][0].Miss) {
		t.Fatalf("contended miss %.4f not above isolated %.4f", shared[0][0].Miss, alone[0][0].Miss)
	}
	// The aggressor itself misses everything either way (all cold).
	if shared[1][0].Miss < 0.999 {
		t.Fatalf("aggressor miss %.4f, want ~1", shared[1][0].Miss)
	}
}

func TestSharedMissFlushKillsLongReuse(t *testing.T) {
	addrs, ends := seqStream(64, 10) // reuse distance 64
	s := Summarize(addrs, ends)
	big := SharedConfig{Capacity: 1 << 20}
	noFlush := SharedMiss([][]PhaseSum{s.Line}, []int{s.TotalRefs}, big)
	withFlush := SharedMiss([][]PhaseSum{s.Line}, []int{s.TotalRefs},
		SharedConfig{Capacity: 1 << 20, FlushPeriod: 32})
	if !(withFlush[0][0].Miss > noFlush[0][0].Miss) {
		t.Fatalf("flush-period miss %.4f not above flushless %.4f",
			withFlush[0][0].Miss, noFlush[0][0].Miss)
	}
}

func TestConfidenceLowAtThreshold(t *testing.T) {
	// Reuse distance 64 with DeltaMax ~= 64: mass sits on the cutoff, so
	// confidence must collapse; with capacity 100x the distance it must
	// recover.
	addrs, ends := seqStream(64, 20)
	s := Summarize(addrs, ends)
	// Single client: DeltaMax = C / u = C * refs/cold = C * 20.
	// C=4 -> DeltaMax=80, inside (d/2, d*2) of the d~=90 bucket midpoint.
	at := SharedMiss([][]PhaseSum{s.Line}, []int{s.TotalRefs}, SharedConfig{Capacity: 4})
	far := SharedMiss([][]PhaseSum{s.Line}, []int{s.TotalRefs}, SharedConfig{Capacity: 4096})
	if at[0][0].Confidence >= far[0][0].Confidence {
		t.Fatalf("threshold confidence %.3f not below far-from-threshold %.3f",
			at[0][0].Confidence, far[0][0].Confidence)
	}
	if at[0][0].Confidence > 0.2 {
		t.Fatalf("on-threshold confidence %.3f, want near 0", at[0][0].Confidence)
	}

	comb := CombineConfidence(at, [][]PhaseSum{s.Line})
	if comb > 0.6 {
		t.Fatalf("combined confidence %.3f should reflect the bad phase", comb)
	}
}

func TestClamp01(t *testing.T) {
	if Clamp01(-0.5) != 0 || Clamp01(1.5) != 1 || Clamp01(0.25) != 0.25 {
		t.Fatal("Clamp01 bounds broken")
	}
}

func TestSummaryBytesPositive(t *testing.T) {
	addrs, ends := seqStream(16, 2)
	s := Summarize(addrs, ends)
	if s.Bytes() <= 0 {
		t.Fatal("Bytes() must be positive for LRU accounting")
	}
}
