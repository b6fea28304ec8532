package dataset

import (
	"sync"
	"testing"

	"mapc/internal/vision"
)

// TestGenerateSamplesOncePerBenchmark: the default pair corpus measures 45
// members, but every batch (20-320) extrapolates from a 3-image sample,
// so exactly one sampled run per benchmark executes.
func TestGenerateSamplesOncePerBenchmark(t *testing.T) {
	sharedCorpus(t)
	if got := corpusGen.samples.runs.Load(); got != 9 {
		t.Errorf("Generate() ran %d sampled vision runs, want 9", got)
	}
	if got := corpusGen.measured.runs.Load(); got != 45 {
		t.Errorf("Generate() measured %d members, want 45", got)
	}
	for k := range corpusGen.samples.m {
		if k.n != 3 {
			t.Errorf("sample %v: want 3 images", k)
		}
	}
}

// TestSampleTableSingleflight measures 16 distinct batches of one
// benchmark from 16 goroutines with the simulation memo off: the sample
// runs once, and every member is bit-identical to vision.Run.
func TestSampleTableSingleflight(t *testing.T) {
	cfg := smallConfig()
	cfg.SimCacheMB = 0
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = g.Workload(Member{Benchmark: "fast", Batch: 20 + i})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("batch %d: %v", 20+i, err)
		}
	}
	if got := g.samples.runs.Load(); got != 1 {
		t.Errorf("%d members ran %d samples, want 1", n, got)
	}
	for i := range n {
		m := Member{Benchmark: "fast", Batch: 20 + i}
		w, err := g.Workload(m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := vision.Run(vision.NewFAST(), m.Batch, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if w.Fingerprint() != want.Workload.Fingerprint() {
			t.Errorf("%v: workload differs from vision.Run", m)
		}
	}
	if got := g.samples.runs.Load(); got != 1 {
		t.Errorf("re-reading members ran %d samples, want 1", got)
	}
}

// TestSampleTableAliasing mutates one member's returned workload: the
// shared sample and every other member extrapolated from it are unchanged.
func TestSampleTableAliasing(t *testing.T) {
	g, err := NewGenerator(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, b := Member{Benchmark: "hog", Batch: 20}, Member{Benchmark: "hog", Batch: 40}
	wa, err := g.Workload(a)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := g.Workload(b)
	if err != nil {
		t.Fatal(err)
	}
	sample := g.samples.m[sampleKey{"hog", 3}].v
	sampleFP, bFP := sample.Workload.Fingerprint(), wb.Fingerprint()

	for i := range wa.Phases {
		p := &wa.Phases[i]
		p.Counts[0] += 11
		p.Footprint++
		p.Parallelism *= 2
	}
	wa.Phases = wa.Phases[:1]

	if got := sample.Workload.Fingerprint(); got != sampleFP {
		t.Error("mutating a member's workload changed the shared sample")
	}
	if got := wb.Fingerprint(); got != bFP {
		t.Error("mutating a member's workload changed a sibling member")
	}
	c := Member{Benchmark: "hog", Batch: 80}
	wc, err := g.Workload(c)
	if err != nil {
		t.Fatal(err)
	}
	want, err := vision.Run(vision.NewHoG(), c.Batch, g.cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if wc.Fingerprint() != want.Workload.Fingerprint() {
		t.Error("a member extrapolated after the mutation differs from vision.Run")
	}
	if got := g.samples.runs.Load(); got != 1 {
		t.Errorf("three hog members ran %d samples, want 1", got)
	}
}
