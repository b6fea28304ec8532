package mapc

// The benchmark harness regenerates every evaluation artifact of the paper
// (Figures 1-12) plus the substrate micro-benchmarks and the ablation
// studies DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Figure benchmarks share one experiment environment: the first invocation
// pays for corpus generation (excluded from timing via a warm-up call);
// iterations then measure the artifact computation itself. Absolute paper
// numbers are not expected to match (the substrate is a simulator); the
// shapes are asserted by the test suite and recorded in EXPERIMENTS.md.

import (
	"io"
	"sync"
	"testing"

	"mapc/internal/core"
	"mapc/internal/cpusim"
	"mapc/internal/dataset"
	"mapc/internal/experiments"
	"mapc/internal/gpusim"
	"mapc/internal/ml"
	"mapc/internal/trace"
	"mapc/internal/vision"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
)

func sharedEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() { benchEnv = experiments.DefaultEnv() })
	return benchEnv
}

// benchFigure measures one artifact regeneration after warming the shared
// environment's caches.
func benchFigure(b *testing.B, fn func(*experiments.Env) (*experiments.Table, error)) {
	env := sharedEnv(b)
	tbl, err := fn(env) // warm-up: corpus + LOOCV caches
	if err != nil {
		b.Fatal(err)
	}
	if err := tbl.Render(io.Discard); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := fn(env)
		if err != nil {
			b.Fatal(err)
		}
		if err := tbl.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1(b *testing.B)  { benchFigure(b, experiments.Figure1) }
func BenchmarkFigure2(b *testing.B)  { benchFigure(b, experiments.Figure2) }
func BenchmarkFigure3(b *testing.B)  { benchFigure(b, experiments.Figure3) }
func BenchmarkFigure4(b *testing.B)  { benchFigure(b, experiments.Figure4) }
func BenchmarkFigure5(b *testing.B)  { benchFigure(b, experiments.Figure5) }
func BenchmarkFigure6(b *testing.B)  { benchFigure(b, experiments.Figure6) }
func BenchmarkFigure7(b *testing.B)  { benchFigure(b, experiments.Figure7) }
func BenchmarkFigure8(b *testing.B)  { benchFigure(b, experiments.Figure8) }
func BenchmarkFigure9(b *testing.B)  { benchFigure(b, experiments.Figure9) }
func BenchmarkFigure10(b *testing.B) { benchFigure(b, experiments.Figure10) }
func BenchmarkFigure11(b *testing.B) { benchFigure(b, experiments.Figure11) }
func BenchmarkFigure12(b *testing.B) { benchFigure(b, experiments.Figure12) }

// BenchmarkCorpusGeneration measures the full Section V-B data-collection
// pipeline: 45 instrumented vision runs, isolated CPU/GPU simulations, and
// 91 co-scheduled bag measurements.
func BenchmarkCorpusGeneration(b *testing.B) {
	cfg := dataset.DefaultConfig()
	cfg.BatchSizes = []int{20, 40} // keep individual iterations tractable
	cfg.MixedPairs = 0
	for i := 0; i < b.N; i++ {
		gen, err := dataset.NewGenerator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := gen.Generate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVisionSuite measures one instrumented pass over all nine
// Table-II benchmarks at the standard batch.
func BenchmarkVisionSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bench := range vision.All() {
			if _, err := vision.Run(bench, 20, 42); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchWorkload(b *testing.B) *trace.Workload {
	b.Helper()
	res, err := vision.Run(vision.NewSIFT(), 20, 42)
	if err != nil {
		b.Fatal(err)
	}
	return res.Workload
}

// BenchmarkGPUSimSingle measures one isolated GPU simulation.
func BenchmarkGPUSimSingle(b *testing.B) {
	w := benchWorkload(b)
	cfg := gpusim.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gpusim.RunMemo(cfg, nil, []*trace.Workload{w}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGPUSimBag measures a 2-client phased MPS simulation.
func BenchmarkGPUSimBag(b *testing.B) {
	w := benchWorkload(b)
	cfg := gpusim.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gpusim.RunMemo(cfg, nil, []*trace.Workload{w.Clone(), w.Clone()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCPUSimBag measures a 2-app phased multicore co-run.
func BenchmarkCPUSimBag(b *testing.B) {
	w := benchWorkload(b)
	cfg := cpusim.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := cpusim.RunMemo(cfg, nil, []cpusim.App{
			{Workload: w.Clone(), Threads: 16},
			{Workload: w.Clone(), Threads: 16},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeTrain measures fitting the predictor on the 91-run corpus.
func BenchmarkTreeTrain(b *testing.B) {
	env := sharedEnv(b)
	corpus, err := env.Corpus()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(corpus, core.SchemeFull, core.DefaultTreeParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredict measures single-bag inference on a trained model.
func BenchmarkPredict(b *testing.B) {
	env := sharedEnv(b)
	corpus, err := env.Corpus()
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.Train(corpus, core.SchemeFull, core.DefaultTreeParams())
	if err != nil {
		b.Fatal(err)
	}
	x := corpus.Points[0].X
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.PredictVector(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTreeDepth sweeps the depth bound — the hyper-parameter
// Section II-B3 calls out — reporting LOOCV cost at each setting.
func BenchmarkAblationTreeDepth(b *testing.B) {
	env := sharedEnv(b)
	corpus, err := env.Corpus()
	if err != nil {
		b.Fatal(err)
	}
	for _, depth := range []int{2, 4, 8, 0} {
		name := "unbounded"
		if depth > 0 {
			name = "depth" + string(rune('0'+depth))
		}
		b.Run(name, func(b *testing.B) {
			params := core.TreeParams{MaxDepth: depth, MinSamplesLeaf: 1, MinSamplesSplit: 2}
			for i := 0; i < b.N; i++ {
				if _, err := core.LOOCV(corpus, core.SchemeFull, params, core.HoldOutOwn); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationModels compares the tree against the paper's rejected
// alternatives (OLS, SVR) on the same feature matrix — the Section V-D
// model-choice ablation.
func BenchmarkAblationModels(b *testing.B) {
	env := sharedEnv(b)
	corpus, err := env.Corpus()
	if err != nil {
		b.Fatal(err)
	}
	d := corpus.Dataset()
	factories := []struct {
		name string
		mk   ml.ModelFactory
	}{
		{"tree", func() ml.Regressor { return ml.NewTreeRegressor() }},
		{"ols", func() ml.Regressor { return ml.NewLinearRegression() }},
		{"svr", func() ml.Regressor { return ml.NewSVR() }},
	}
	for _, f := range factories {
		b.Run(f.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ml.HoldOut(d, 0.2, 7, f.mk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
