// Package mapc predicts the performance of multi-application bags of tasks
// on a GPU, reproducing "Performance Prediction for Multi-Application
// Concurrency on GPUs" (Moolchandani et al., ISPASS 2020).
//
// The library bundles everything the paper's pipeline needs, implemented
// from scratch: the nine Table-II computer-vision benchmarks under
// instrumentation, a multicore-CPU simulator and an MPS-capable GPU
// simulator as the measurement substrate, a MICA-style instruction-mix
// analyzer, the fairness metric, a CART regression tree (plus OLS and SVR
// baselines), and the full evaluation harness for Figures 1-12.
//
// Quick start:
//
//	corpus, err := mapc.GenerateCorpus()              // the 91-run dataset
//	p, err := mapc.Train(corpus, mapc.SchemeFull)     // decision-tree model
//	gen, _ := mapc.NewGenerator(mapc.DefaultConfig())
//	x, _, _ := gen.BagFeatures([]mapc.Member{
//	    {Benchmark: "sift", Batch: 40},
//	    {Benchmark: "knn", Batch: 20}})
//	seconds, err := p.PredictRaw(x)                   // predicted bag time
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// system inventory.
package mapc

import (
	"io"

	"mapc/internal/core"
	"mapc/internal/dataset"
	"mapc/internal/experiments"
)

// Re-exported types: aliases keep the internal packages private while
// letting callers hold and pass the library's values.
type (
	// Config controls corpus generation: simulated machines, batch
	// sizes, thread counts, and seeds.
	Config = dataset.Config
	// Generator produces measurements and corpora.
	Generator = dataset.Generator
	// Corpus is the generated training dataset (Section V-B).
	Corpus = dataset.Corpus
	// Point is one measured bag data point (2..8 applications).
	Point = dataset.Point
	// Member identifies a (benchmark, batch) application instance.
	Member = dataset.Member
	// Predictor is the trained decision-tree model (the paper's
	// contribution).
	Predictor = core.Predictor
	// Scheme is a named feature subset (the Figure-5 bars).
	Scheme = core.Scheme
	// TreeParams are the decision-tree hyper-parameters.
	TreeParams = core.TreeParams
	// Protocol selects the LOOCV hold-out semantics.
	Protocol = core.Protocol
	// LOOCVResult is one fold of Figure-4 cross-validation.
	LOOCVResult = core.LOOCVResult
	// PathStats aggregates decision-path usage (Figures 10-12).
	PathStats = core.PathStats
	// Env caches state across experiment regenerations.
	Env = experiments.Env
	// Table is a rendered experiment artifact.
	Table = experiments.Table
)

// The Figure-5 feature schemes and LOOCV protocols.
var (
	SchemeInsmix        = core.SchemeInsmix
	SchemeInsmixCPU     = core.SchemeInsmixCPU
	SchemeInsmixCPUFair = core.SchemeInsmixCPUFair
	SchemeFull          = core.SchemeFull
)

// LOOCV protocols (see core.Protocol).
const (
	HoldOutOwn        = core.HoldOutOwn
	HoldOutContaining = core.HoldOutContaining
)

// DefaultConfig returns the paper-equivalent configuration: the Table-III
// machines, batch sizes {20,40,80,160,320}, the fixed dataset seed, and a
// measurement worker pool of runtime.NumCPU() goroutines. Set
// Config.Workers to 1 for the exact legacy serial path; outputs are
// bit-for-bit identical for every worker count.
func DefaultConfig() Config { return dataset.DefaultConfig() }

// DefaultWorkers resolves a Config.Workers value the way the measurement
// engine does: values <= 0 select runtime.NumCPU().
func DefaultWorkers(workers int) int { return Config{Workers: workers}.EffectiveWorkers() }

// NewGenerator returns a measurement/corpus generator.
func NewGenerator(cfg Config) (*Generator, error) { return dataset.NewGenerator(cfg) }

// GenerateCorpus builds the paper's 91-run corpus with default settings.
func GenerateCorpus() (*Corpus, error) {
	gen, err := dataset.NewGenerator(dataset.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return gen.Generate()
}

// DefaultTreeParams returns the tree hyper-parameters used in the paper's
// experiments.
func DefaultTreeParams() TreeParams { return core.DefaultTreeParams() }

// Train fits the decision-tree predictor on the corpus with the scheme and
// default tree parameters.
func Train(c *Corpus, scheme Scheme) (*Predictor, error) {
	return core.Train(c, scheme, core.DefaultTreeParams())
}

// TrainWithParams fits with explicit tree hyper-parameters.
func TrainWithParams(c *Corpus, scheme Scheme, params TreeParams) (*Predictor, error) {
	return core.Train(c, scheme, params)
}

// LOOCV runs the Figure-4 leave-one-benchmark-out protocol, training folds
// on the default worker pool (runtime.NumCPU()).
func LOOCV(c *Corpus, scheme Scheme, params TreeParams, protocol Protocol) ([]LOOCVResult, error) {
	return core.LOOCV(c, scheme, params, protocol)
}

// LOOCVWorkers is LOOCV with an explicit fold-level worker bound
// (0 = runtime.NumCPU(), 1 = serial). Fold results are bit-for-bit
// identical for every worker count.
func LOOCVWorkers(c *Corpus, scheme Scheme, params TreeParams, protocol Protocol, workers int) ([]LOOCVResult, error) {
	return core.LOOCVWorkers(c, scheme, params, protocol, workers)
}

// MeanLOOCVError averages the per-benchmark LOOCV errors (the paper's
// headline metric).
func MeanLOOCVError(results []LOOCVResult) float64 { return core.MeanLOOCVError(results) }

// AnalyzePaths reduces LOOCV results to decision-path statistics.
func AnalyzePaths(results []LOOCVResult) (*PathStats, error) { return core.AnalyzePaths(results) }

// NewScheme builds a custom feature scheme from feature kinds; see
// FeatureKinds for the vocabulary.
func NewScheme(name string, kinds ...string) (Scheme, error) { return core.NewScheme(name, kinds...) }

// LoadPredictor reads a predictor saved with Predictor.Save.
func LoadPredictor(r io.Reader) (*Predictor, error) { return core.Load(r) }

// LoadPredictorFile reads a predictor saved with Predictor.SaveFile.
func LoadPredictorFile(path string) (*Predictor, error) { return core.LoadFile(path) }

// Benchmarks returns the canonical benchmark names (Table II).
func Benchmarks() []string { return benchmarkNames() }

// NewEnv returns an experiment environment for regenerating paper figures.
func NewEnv(cfg Config) *Env { return experiments.NewEnv(cfg) }

// DefaultEnv returns an experiment environment with default configuration.
func DefaultEnv() *Env { return experiments.DefaultEnv() }

// RunExperiment regenerates one paper artifact (e.g. "figure5").
func RunExperiment(e *Env, id string) (*Table, error) { return experiments.Run(e, id) }

// AllExperiments regenerates every paper artifact in order.
func AllExperiments(e *Env) ([]*Table, error) { return experiments.All(e) }
