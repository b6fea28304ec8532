package memsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mapc/internal/trace"
)

func phaseWith(p trace.Pattern, footprint int64, reuse float64) *trace.Phase {
	return &trace.Phase{
		Name: "p", Footprint: footprint, Pattern: p, StrideBytes: 128,
		Reuse: reuse, Parallelism: 1, VectorWidth: 1,
	}
}

func TestStreamDeterminism(t *testing.T) {
	for _, pat := range []trace.Pattern{trace.Sequential, trace.Strided, trace.Windowed, trace.Random} {
		a, err := NewStream(phaseWith(pat, 1<<16, 0.3), 0, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := NewStream(phaseWith(pat, 1<<16, 0.3), 0, 42)
		for i := 0; i < 1000; i++ {
			if a.Next() != b.Next() {
				t.Fatalf("%v stream diverged at step %d", pat, i)
			}
		}
	}
}

func TestStreamAddressesWithinFootprint(t *testing.T) {
	if err := quick.Check(func(seed uint64, patRaw uint8, fpRaw uint16) bool {
		pat := trace.Pattern(int(patRaw) % 4)
		fp := int64(fpRaw)%(1<<15) + LineSize
		base := uint64(1) << 40
		s, err := NewStream(phaseWith(pat, fp, 0.4), base, seed)
		if err != nil {
			return false
		}
		// Footprint is rounded up to at least a line inside NewStream.
		limit := uint64(fp)
		if limit < LineSize {
			limit = LineSize
		}
		for i := 0; i < 300; i++ {
			a := s.Next()
			if a < base || a >= base+limit {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStreamNilPhase(t *testing.T) {
	if _, err := NewStream(nil, 0, 1); err == nil {
		t.Fatal("nil phase accepted")
	}
	if _, err := NewStream(phaseWith(trace.Sequential, -1, 0), 0, 1); err == nil {
		t.Fatal("negative footprint accepted")
	}
}

// checkStreamMatchesReference generates n references from phase p twice —
// through Fill in chunks of the given size, and through Next — and fails
// on the first address either one draws differently from refStream.
func checkStreamMatchesReference(t *testing.T, label string, p *trace.Phase, seed uint64, n, chunk int) {
	t.Helper()
	const base = 1 << 40
	fill, err := NewStream(p, base, seed)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	next, _ := NewStream(p, base, seed)
	ref := newRefStream(p, base, seed)
	got := make([]uint64, n)
	for i := 0; i < n; i += chunk {
		fill.Fill(got[i:min(i+chunk, n)])
	}
	for i, g := range got {
		want := ref.Next()
		if g != want {
			t.Fatalf("%s: Fill ref %d = %#x, reference %#x", label, i, g, want)
		}
		if a := next.Next(); a != want {
			t.Fatalf("%s: Next ref %d = %#x, reference %#x", label, i, a, want)
		}
	}
}

// TestStreamMatchesReference holds the division-free generator to the
// frozen original on every pattern, on footprints around the window size
// (where the windowed kernel switches between a subtract and a modulo),
// on a stride past the footprint, on the reuse coin's extremes and on Fill
// chunkings that cross the ring's 16-reference warm-up.
func TestStreamMatchesReference(t *testing.T) {
	patterns := []trace.Pattern{trace.Sequential, trace.Strided, trace.Windowed, trace.Random}
	footprints := []int64{64, 4095, 4096, 4097, 8<<20 + 8}
	reuses := []float64{0, 0x1p-53, 0.3, 1}
	chunks := []int{1, 15, 16, 17, 24576}
	for _, pat := range patterns {
		for _, fp := range footprints {
			for _, stride := range []int64{128, fp + 24} {
				for _, reuse := range reuses {
					for ci, chunk := range chunks {
						p := phaseWith(pat, fp, reuse)
						p.StrideBytes = stride
						seed := uint64(ci)*7919 + uint64(fp)
						label := fmt.Sprintf("%v fp=%d stride=%d reuse=%v chunk=%d", pat, fp, stride, reuse, chunk)
						checkStreamMatchesReference(t, label, p, seed, 24576, chunk)
					}
				}
			}
		}
	}
}

// TestStreamMatchesReferenceCursorWrap covers strides whose cursor wraps
// 2^64 within a few references, on footprints that do not divide 2^64.
func TestStreamMatchesReferenceCursorWrap(t *testing.T) {
	for _, stride := range []int64{-8, -4097, math.MinInt64, math.MaxInt64, 1 << 62} {
		for _, fp := range []int64{4097, 3 << 20, math.MaxInt64} {
			p := phaseWith(trace.Strided, fp, 0.3)
			p.StrideBytes = stride
			checkStreamMatchesReference(t, fmt.Sprintf("stride=%d fp=%d", stride, fp), p, 5, 4096, 17)
		}
	}
}

// TestReuseThresholdExact pins the integer reuse coin to the float compare
// it replaces at the threshold itself, for reuse values on and off the
// 2^-53 grid: the draw just below the threshold re-touches, the draw at it
// does not.
func TestReuseThresholdExact(t *testing.T) {
	coin := func(k uint64, r float64) bool { return float64(k)/(1<<53) < r }
	rs := []float64{0x1p-53, 0x1p-54, 0.3, 0.5, 1 - 0x1p-53, math.Nextafter(1, 0), math.SmallestNonzeroFloat64}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		rs = append(rs, rng.Float64())
	}
	for _, r := range rs {
		th := reuseThreshold(r)
		if th == 0 || th > 1<<53 {
			t.Fatalf("reuse %v: threshold %d outside (0, 2^53]", r, th)
		}
		if !coin(th-1, r) || (th < 1<<53 && coin(th, r)) {
			t.Fatalf("reuse %v: threshold %d disagrees with Float64() < reuse", r, th)
		}
	}
	for _, r := range []float64{0, -0.5, math.NaN(), math.Inf(-1)} {
		if th := reuseThreshold(r); th != 0 {
			t.Errorf("reuse %v: threshold %d, want 0 (never re-touch)", r, th)
		}
	}
	for _, r := range []float64{1, 2, math.Inf(1)} {
		if th := reuseThreshold(r); th != 1<<53 {
			t.Errorf("reuse %v: threshold %d, want 2^53 (always re-touch)", r, th)
		}
	}
}

// FuzzStreamFill drives a random phase, seed and Fill chunking through the
// stream and the frozen reference; every address must agree.
func FuzzStreamFill(f *testing.F) {
	f.Add(uint8(0), int64(1<<16), int64(128), 0.3, uint64(42), uint16(4096), []byte{16, 1, 17})
	f.Add(uint8(1), int64(4097), int64(4097+24), 1.0, uint64(1), uint16(300), []byte{15})
	f.Add(uint8(2), int64(4095), int64(0), 0x1p-53, uint64(7), uint16(2000), []byte{1, 2, 3})
	f.Add(uint8(3), int64(8<<20+8), int64(-8), 0.0, uint64(0), uint16(24576), []byte{})
	f.Fuzz(func(t *testing.T, pat uint8, fp, stride int64, reuse float64, seed uint64, n uint16, chunks []byte) {
		p := phaseWith(trace.Pattern(pat%5), fp, reuse)
		p.StrideBytes = stride
		s, err := NewStream(p, 1<<40, seed)
		if err != nil {
			if fp >= 0 {
				t.Fatalf("footprint %d rejected: %v", fp, err)
			}
			return
		}
		ref := newRefStream(p, 1<<40, seed)
		got := make([]uint64, n)
		for i, c := 0, 0; i < len(got); c++ {
			k := 1
			if len(chunks) > 0 {
				k = int(chunks[c%len(chunks)])
			}
			k = min(max(k, 1), len(got)-i)
			if c%3 == 2 {
				got[i] = s.Next()
				k = 1
			} else {
				s.Fill(got[i : i+k])
			}
			i += k
		}
		for i, g := range got {
			if want := ref.Next(); g != want {
				t.Fatalf("ref %d = %#x, reference %#x", i, g, want)
			}
		}
	})
}

func TestSequentialStreamAdvances(t *testing.T) {
	s, err := NewStream(phaseWith(trace.Sequential, 1<<20, 0), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	prev := s.Next()
	for i := 0; i < 100; i++ {
		next := s.Next()
		if next != prev+8 {
			t.Fatalf("sequential step %d: %d -> %d", i, prev, next)
		}
		prev = next
	}
}

func TestReuseRaisesHitRate(t *testing.T) {
	// A high-reuse random stream must hit a small cache more often than
	// a no-reuse stream over the same large footprint.
	run := func(reuse float64) float64 {
		c, err := NewCache("c", 8<<10, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewStream(phaseWith(trace.Random, 8<<20, reuse), 0, 7)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20000; i++ {
			c.Access(0, s.Next())
		}
		return c.Stats(0).MissRate()
	}
	if noReuse, highReuse := run(0), run(0.8); highReuse >= noReuse {
		t.Fatalf("reuse did not reduce misses: %.3f vs %.3f", highReuse, noReuse)
	}
}

func TestSampleRefs(t *testing.T) {
	if got := SampleRefs(100); got != 100 {
		t.Errorf("SampleRefs(100) = %d", got)
	}
	if got := SampleRefs(1 << 40); got <= 0 || got > 1<<20 {
		t.Errorf("SampleRefs(huge) = %d", got)
	}
}

func TestStreamSeedDistinguishesParts(t *testing.T) {
	a := StreamSeed("cpu", "sift", "phase")
	b := StreamSeed("cpu", "sift", "phase2")
	c := StreamSeed("cpusift", "", "phase") // separator must matter
	if a == b || a == c {
		t.Fatalf("seeds collide: %x %x %x", a, b, c)
	}
	if a != StreamSeed("cpu", "sift", "phase") {
		t.Fatal("StreamSeed not deterministic")
	}
}
