package vision

import (
	"fmt"
	"maps"
	"math"
	"sort"

	"mapc/internal/trace"
)

// DefaultImageSize is the side length of synthetic benchmark images. The
// paper's suite operated on camera frames; 96x96 keeps the real algorithms
// fast enough for exhaustive testing while preserving their structure.
const DefaultImageSize = 96

// sampleCap bounds how many batch images are actually executed; the
// remaining images are accounted for by linear extrapolation of the sampled
// counts (the standard sampled-simulation methodology, cf. SimPoint). Batch
// processing is embarrassingly parallel across images, so per-image costs
// are statistically identical and linear scaling is exact in expectation.
const sampleCap = 3

// Benchmark is one Table-II workload. Implementations perform the real
// computation on the provided images and report instrumentation through rec.
type Benchmark interface {
	// Name returns the canonical lower-case benchmark identifier.
	Name() string
	// Scene returns the synthetic scene kind the benchmark expects.
	Scene() SceneKind
	// run executes the benchmark on the images under instrumentation and
	// returns benchmark-specific summary statistics.
	run(images []*Image, rec *trace.Recorder) (map[string]float64, error)
}

// Result bundles the outcome of an instrumented benchmark run.
type Result struct {
	// Workload is the instrumented description consumed by the simulators.
	Workload *trace.Workload
	// Summary holds benchmark-specific functional outputs
	// (e.g. "keypoints", "matches", "support_vectors").
	Summary map[string]float64
}

// MaxBatch is the largest batch, in images, a benchmark extrapolates to:
// far above the paper's largest batch (320), and small enough that every
// extrapolated instruction count, launch count and transfer volume stays
// well inside its integer type.
const MaxBatch = 1 << 20

// SampleCount returns how many images of a batchSize-image batch are
// actually executed: min(batchSize, sampleCap). Every batch with the same
// sample count extrapolates from the same sampled run.
func SampleCount(batchSize int) int {
	return min(batchSize, sampleCap)
}

// Run executes benchmark b on a synthetic batch of batchSize images derived
// from seed, returning the extrapolated workload and functional summary.
// It is Extrapolate(Sample(b, SampleCount(batchSize), seed), batchSize).
func Run(b Benchmark, batchSize int, seed uint64) (*Result, error) {
	if err := checkBatch(batchSize); err != nil {
		return nil, err
	}
	s, err := Sample(b, SampleCount(batchSize), seed)
	if err != nil {
		return nil, err
	}
	return Extrapolate(s, batchSize)
}

// Sample executes benchmark b on n synthetic images derived from seed
// (1 <= n <= sampleCap) and returns the recorded, unscaled run: a valid
// n-image Result, which depends only on (b, n, seed).
func Sample(b Benchmark, n int, seed uint64) (*Result, error) {
	if n < 1 || n > sampleCap {
		return nil, fmt.Errorf("vision: sample of %d images outside [1, %d]", n, sampleCap)
	}
	images := make([]*Image, n)
	for i := range images {
		images[i] = SynthesizeImage(b.Scene(), DefaultImageSize, DefaultImageSize,
			seed+uint64(i)*0x9E37_79B9)
	}

	rec := trace.NewRecorder(b.Name(), n)
	summary, err := b.run(images, rec)
	if err != nil {
		return nil, fmt.Errorf("vision: %s: %w", b.Name(), err)
	}
	w, err := rec.Workload()
	if err != nil {
		return nil, fmt.Errorf("vision: %s instrumentation: %w", b.Name(), err)
	}
	w.TransferBytes = transferBytes(n)
	return &Result{Workload: w, Summary: summary}, nil
}

// Extrapolate derives the batchSize-image result from sample s, which must
// hold SampleCount(batchSize) images. It never mutates s: the workload is
// a Clone and the summary a copy, so one sample can serve every batch.
func Extrapolate(s *Result, batchSize int) (*Result, error) {
	if err := checkBatch(batchSize); err != nil {
		return nil, err
	}
	n := s.Workload.BatchSize
	if want := SampleCount(batchSize); n != want {
		return nil, fmt.Errorf("vision: batch size %d extrapolates from a %d-image sample, not %d", batchSize, want, n)
	}
	w := s.Workload.Clone()
	w.BatchSize = batchSize
	if n < batchSize {
		scaleWorkload(w, float64(batchSize)/float64(n))
	}
	w.TransferBytes = transferBytes(batchSize)
	return &Result{Workload: w, Summary: maps.Clone(s.Summary)}, nil
}

// checkBatch rejects batch sizes outside [1, MaxBatch].
func checkBatch(batchSize int) error {
	if batchSize <= 0 {
		return fmt.Errorf("vision: batch size %d must be positive", batchSize)
	}
	if batchSize > MaxBatch {
		return fmt.Errorf("vision: batch size %d exceeds the limit of %d images", batchSize, MaxBatch)
	}
	return nil
}

// transferBytes is the host-to-device volume of a batch: every image as
// 8-byte elements.
func transferBytes(batchSize int) int64 {
	return int64(batchSize) * int64(DefaultImageSize*DefaultImageSize) * 8
}

// scaleWorkload extrapolates a sampled run to the full batch: instruction
// counts and exposed parallelism grow linearly with the number of
// independent images. Footprints do NOT scale: a phase's footprint is its
// instantaneous working set (one image's data plus shared tables), which is
// what determines cache behaviour — extra batch images are processed
// through the same working set, not resident simultaneously. Patterns,
// reuse, vector widths and batch-invariant phases are untouched.
func scaleWorkload(w *trace.Workload, factor float64) {
	for i := range w.Phases {
		p := &w.Phases[i]
		if p.BatchInvariant {
			continue
		}
		p.Counts = p.Counts.Scale(factor)
		p.Parallelism = int(float64(p.Parallelism) * factor)
		if p.Parallelism < 1 {
			p.Parallelism = 1
		}
		// Each recorded phase ran once per sampled image; the full batch
		// re-launches it once per extrapolated image.
		p.Launches = p.LaunchCount() * int(math.Ceil(factor))
	}
}

// registry is the Table-II suite in the paper's canonical plotting order
// (Figures 1-4): FAST, HoG, KNN, ObjRec, ORB, SIFT, SURF, SVM, FaceDet.
// Each name is what its constructor's Name returns. Looking a name up
// reads only this table; constructing a benchmark (ORB draws its BRIEF
// pattern, FaceDet builds its cascade) happens only in All and ByName.
var registry = [...]struct {
	name  string
	build func() Benchmark
}{
	{"fast", func() Benchmark { return NewFAST() }},
	{"hog", func() Benchmark { return NewHoG() }},
	{"knn", func() Benchmark { return NewKNN() }},
	{"objrec", func() Benchmark { return NewObjRec() }},
	{"orb", func() Benchmark { return NewORB() }},
	{"sift", func() Benchmark { return NewSIFT() }},
	{"surf", func() Benchmark { return NewSURF() }},
	{"svm", func() Benchmark { return NewSVM() }},
	{"facedet", func() Benchmark { return NewFaceDet() }},
}

// All returns fresh instances of the nine benchmarks in the paper's
// canonical plotting order.
func All() []Benchmark {
	bs := make([]Benchmark, len(registry))
	for i, e := range registry {
		bs[i] = e.build()
	}
	return bs
}

// Names returns the canonical benchmark names in plotting order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// ByName returns a fresh instance of the benchmark with the given
// canonical name.
func ByName(name string) (Benchmark, error) {
	i, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return registry[i].build(), nil
}

// CheckName returns nil when name is a canonical benchmark name and
// ByName's error otherwise, constructing nothing.
func CheckName(name string) error {
	_, err := lookup(name)
	return err
}

// lookup returns name's index in registry.
func lookup(name string) (int, error) {
	for i, e := range registry {
		if e.name == name {
			return i, nil
		}
	}
	known := Names()
	sort.Strings(known)
	return -1, fmt.Errorf("vision: unknown benchmark %q (known: %v)", name, known)
}
