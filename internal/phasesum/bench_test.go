package phasesum

import (
	"testing"

	"mapc/internal/memsim"
	"mapc/internal/trace"
)

// benchStream builds a realistic phase-contiguous stream: four phases of
// 24576 sampled references each (memsim.SampleRefs' per-phase cap), one per
// access pattern, with footprints from 256 KiB to 16 MiB and the address
// layout gpusim gives slot 0: about 100k references in all.
func benchStream(tb testing.TB) ([]uint64, []int) {
	tb.Helper()
	patterns := []trace.Pattern{trace.Sequential, trace.Windowed, trace.Strided, trace.Random}
	const perPhase = 24576
	addrs := make([]uint64, 0, len(patterns)*perPhase)
	ends := make([]int, len(patterns))
	for pi, pat := range patterns {
		p := &trace.Phase{
			Name:        "bench",
			Footprint:   256 << 10 << (2 * pi),
			Pattern:     pat,
			StrideBytes: 128,
			Reuse:       0.3,
		}
		st, err := memsim.NewStream(p, 1<<40+uint64(pi)<<32, memsim.StreamSeed("bench", p.Name))
		if err != nil {
			tb.Fatal(err)
		}
		n := len(addrs)
		addrs = addrs[:n+perPhase]
		st.Fill(addrs[n:])
		ends[pi] = len(addrs)
	}
	return addrs, ends
}

// BenchmarkSummarize times one whole-stream sketch at both granularities.
// It is part of the committed perf baseline (BENCH_baseline.json), so a
// return to a hashed map for the last-touch table fails the perf gate.
// With a warm table pool it allocates once per call: the returned
// histograms.
func BenchmarkSummarize(b *testing.B) {
	addrs, ends := benchStream(b)
	Summarize(addrs, ends) // warm the table pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = Summarize(addrs, ends)
	}
}

// benchSink keeps the benchmarked call from being optimized away.
var benchSink Summary
