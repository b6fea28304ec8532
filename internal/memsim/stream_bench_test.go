package memsim

import (
	"fmt"
	"testing"

	"mapc/internal/trace"
)

// Stream microbenchmarks time synthetic reference generation for each
// access pattern — the producer side of every simulateMemory call. The
// suite is gated by CI's perf-gate job (scripts/benchjson -against).

func benchPhase(pattern trace.Pattern) *trace.Phase {
	return &trace.Phase{
		Name:        "bench",
		Footprint:   8 << 20,
		Pattern:     pattern,
		StrideBytes: 128,
		Reuse:       0.3,
		Parallelism: 1024,
		VectorWidth: 1,
	}
}

// benchPatterns names each access pattern as the benchmarks' sub-tests.
var benchPatterns = []struct {
	name    string
	pattern trace.Pattern
}{
	{"sequential", trace.Sequential},
	{"strided", trace.Strided},
	{"windowed", trace.Windowed},
	{"random", trace.Random},
}

func BenchmarkStreamNext(b *testing.B) {
	for _, pc := range benchPatterns {
		b.Run(pc.name, func(b *testing.B) {
			st, err := NewStream(benchPhase(pc.pattern), 1<<40, 42)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += st.Next()
			}
			benchSink = sink
		})
	}
}

var benchSink uint64

// BenchmarkStreamFill times what one sampled phase costs the simulators: a
// fresh stream filling SampleRefs' 24576-reference cap, warm-up included.
func BenchmarkStreamFill(b *testing.B) {
	for _, pc := range benchPatterns {
		b.Run(pc.name, func(b *testing.B) {
			p := benchPhase(pc.pattern)
			dst := make([]uint64, SampleRefs(1<<40))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := NewStream(p, 1<<40, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				st.Fill(dst)
			}
			benchSink = dst[len(dst)-1]
		})
	}
}

func BenchmarkSampleRefs(b *testing.B) {
	var sink int
	for i := 0; i < b.N; i++ {
		sink += SampleRefs(uint64(i))
	}
	benchSink += uint64(sink)
}

func ExampleSampleRefs() {
	fmt.Println(SampleRefs(100), SampleRefs(1_000_000))
	// Output: 100 24576
}
