package dataset

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mapc/internal/features"
)

var (
	corpusOnce sync.Once
	corpusGen  *Generator
	corpus     *Corpus
	corpusErr  error
)

// sharedCorpus generates the default 91-run corpus once for the package;
// corpusGen is the generator that made it.
func sharedCorpus(t *testing.T) *Corpus {
	t.Helper()
	corpusOnce.Do(func() {
		corpusGen, corpusErr = NewGenerator(DefaultConfig())
		if corpusErr != nil {
			return
		}
		corpus, corpusErr = corpusGen.Generate()
	})
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpus
}

func TestGeneratorConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchSizes = nil
	if _, err := NewGenerator(cfg); err == nil {
		t.Error("empty batch sizes accepted")
	}
	cfg = DefaultConfig()
	cfg.Threads = 0
	if _, err := NewGenerator(cfg); err == nil {
		t.Error("zero threads accepted")
	}
	cfg = DefaultConfig()
	cfg.CPU.Cores = 0
	if _, err := NewGenerator(cfg); err == nil {
		t.Error("invalid CPU config accepted")
	}
	cfg = DefaultConfig()
	cfg.GPU.SMs = 0
	if _, err := NewGenerator(cfg); err == nil {
		t.Error("invalid GPU config accepted")
	}
	cfg = DefaultConfig()
	cfg.Workers = -3
	if _, err := NewGenerator(cfg); err == nil {
		t.Error("negative worker count accepted")
	} else if !strings.Contains(err.Error(), "-3") {
		t.Errorf("negative-workers error %q does not name the value", err)
	}
}

func TestGeneratorBenchmarksValidation(t *testing.T) {
	cases := []struct {
		name       string
		benchmarks []string
		wantSubstr string
	}{
		{"empty entry", []string{"sift", ""}, "Benchmarks[1] is empty"},
		{"whitespace entry", []string{"  ", "surf"}, "Benchmarks[0] is empty"},
		{"unknown entry", []string{"sift", "nosuchbench"}, "Benchmarks[1]"},
		{"duplicate entry", []string{"sift", "surf", "sift"}, "duplicates"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Benchmarks = tc.benchmarks
			_, err := NewGenerator(cfg)
			if err == nil {
				t.Fatalf("Benchmarks %v accepted", tc.benchmarks)
			}
			if !strings.Contains(err.Error(), tc.wantSubstr) {
				t.Errorf("error %q does not contain %q", err, tc.wantSubstr)
			}
		})
	}
	// The happy path still works with an explicit subset.
	cfg := DefaultConfig()
	cfg.Benchmarks = []string{"sift", "surf"}
	if _, err := NewGenerator(cfg); err != nil {
		t.Errorf("valid subset rejected: %v", err)
	}
}

func TestCorpusShape(t *testing.T) {
	c := sharedCorpus(t)
	if len(c.Points) != 91 {
		t.Fatalf("corpus has %d points, want the paper's 91", len(c.Points))
	}
	homo, hetero := 0, 0
	for i := range c.Points {
		if c.Points[i].Homogeneous {
			homo++
		} else {
			hetero++
		}
	}
	if homo != 45 {
		t.Errorf("homogeneous points %d, want 45 (9 benchmarks x 5 batches)", homo)
	}
	if hetero != 46 {
		t.Errorf("heterogeneous points %d, want 46", hetero)
	}
	wantNames, err := features.Names(2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.FeatureNames, wantNames) {
		t.Errorf("feature names %v", c.FeatureNames)
	}
	if c.CPUTimeDivisor <= 0 {
		t.Errorf("divisor %v", c.CPUTimeDivisor)
	}
}

func TestCorpusPointInvariants(t *testing.T) {
	c := sharedCorpus(t)
	for i := range c.Points {
		p := &c.Points[i]
		if len(p.X) != len(c.FeatureNames) {
			t.Fatalf("point %d width %d", i, len(p.X))
		}
		if p.Y <= 0 {
			t.Errorf("point %d target %v", i, p.Y)
		}
		if p.Fairness <= 0 || p.Fairness > 1 {
			t.Errorf("point %d fairness %v", i, p.Fairness)
		}
		for j := 0; j < 2; j++ {
			if p.CPUTimes[j] <= 0 || p.GPUTimes[j] <= 0 {
				t.Errorf("point %d member %d times %v %v", i, j, p.CPUTimes[j], p.GPUTimes[j])
			}
		}
		// The bag can't finish before its slowest member's isolated run.
		slowest := math.Max(p.GPUTimes[0], p.GPUTimes[1])
		if p.Y < slowest*0.999 {
			t.Errorf("point %d bag time %v below isolated max %v", i, p.Y, slowest)
		}
		if p.Homogeneous && p.Members[0] != p.Members[1] {
			t.Errorf("point %d flagged homogeneous with members %v", i, p.Members)
		}
	}
}

func TestCanonicalOrdering(t *testing.T) {
	c := sharedCorpus(t)
	// With CanonicalOrder, member a is always the CPU-heavier one.
	for i := range c.Points {
		p := &c.Points[i]
		if p.CPUTimes[0] < p.CPUTimes[1] {
			t.Errorf("point %d members not canonical: cpu %v < %v",
				i, p.CPUTimes[0], p.CPUTimes[1])
		}
	}
}

func TestDatasetView(t *testing.T) {
	c := sharedCorpus(t)
	d := c.Dataset()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Len() != len(c.Points) {
		t.Fatalf("dataset rows %d", d.Len())
	}
	// The view shares storage: normalization already applied to points.
	if d.X[0][0] != c.Points[0].X[0] {
		t.Error("dataset does not share point storage")
	}
}

func TestBenchmarkNamesAndContains(t *testing.T) {
	c := sharedCorpus(t)
	names := c.BenchmarkNames()
	if len(names) != 9 {
		t.Fatalf("benchmark names %v", names)
	}
	for i := range c.Points {
		p := &c.Points[i]
		if !c.ContainsBenchmark(i, p.Members[0].Benchmark) {
			t.Errorf("point %d does not contain its own member", i)
		}
		if c.ContainsBenchmark(i, "not-a-benchmark") {
			t.Errorf("point %d contains a phantom benchmark", i)
		}
	}
}

func TestMeasurePointDeterministic(t *testing.T) {
	gen, err := NewGenerator(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := Member{Benchmark: "fast", Batch: 20}
	b := Member{Benchmark: "hog", Batch: 20}
	p1, err := gen.MeasureBag([]Member{a, b})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := gen.MeasureBag([]Member{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("MeasureBag not deterministic")
	}
	// Canonical ordering makes the pair order-insensitive.
	p3, err := gen.MeasureBag([]Member{b, a})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p3) {
		t.Fatal("MeasureBag depends on member order despite canonicalization")
	}
}

// TestBagFeaturesPublishesNoGPUStream: serve's feature path runs each
// member's isolated GPU simulation but never a GPU co-run, so on a fresh
// generator it leaves isolated "gpusim/iso" results in the memo and no
// "gpusim/stream" reference streams, which only a co-run would re-read.
func TestBagFeaturesPublishesNoGPUStream(t *testing.T) {
	gen, err := NewGenerator(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := gen.BagFeatures([]Member{{Benchmark: "sift", Batch: 20}, {Benchmark: "knn", Batch: 20}}); err != nil {
		t.Fatal(err)
	}
	domains := gen.SimCacheDomainBytes()
	if _, ok := domains["gpusim/stream"]; ok {
		t.Errorf("BagFeatures published gpusim/stream entries: %v", domains)
	}
	if domains["gpusim/iso"] == 0 {
		t.Errorf("BagFeatures published no gpusim/iso entry; the fixture no longer runs the GPU: %v", domains)
	}
}

func TestFeaturesForMatchesMeasurePoint(t *testing.T) {
	gen, err := NewGenerator(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := Member{Benchmark: "sift", Batch: 20}
	b := Member{Benchmark: "knn", Batch: 20}
	x, fairness, err := gen.BagFeatures([]Member{a, b})
	if err != nil {
		t.Fatal(err)
	}
	p, err := gen.MeasureBag([]Member{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fairness-p.Fairness) > 1e-12 {
		t.Errorf("fairness %v vs point %v", fairness, p.Fairness)
	}
	// BagFeatures is raw; the point was normalized by the corpus divisor
	// only during Generate (not in MeasureBag alone), so the raw
	// vectors must agree directly here.
	if len(x) != len(p.X) {
		t.Fatalf("widths differ: %d vs %d", len(x), len(p.X))
	}
	for j := range x {
		if math.Abs(x[j]-p.X[j]) > 1e-9 {
			t.Errorf("column %d: %v vs %v", j, x[j], p.X[j])
		}
	}
}

func TestMeasurePointUnknownBenchmark(t *testing.T) {
	gen, err := NewGenerator(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.MeasureBag([]Member{{Benchmark: "nope", Batch: 20},
		{Benchmark: "fast", Batch: 20}}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	// Full double-generation is expensive; compare a fingerprint of the
	// shared corpus against a freshly generated one.
	c1 := sharedCorpus(t)
	gen, err := NewGenerator(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(c1.Points) != len(c2.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(c1.Points), len(c2.Points))
	}
	for i := range c1.Points {
		if c1.Points[i].Y != c2.Points[i].Y {
			t.Fatalf("point %d target differs across generations", i)
		}
		if !reflect.DeepEqual(c1.Points[i].X, c2.Points[i].X) {
			t.Fatalf("point %d features differ across generations", i)
		}
	}
}
