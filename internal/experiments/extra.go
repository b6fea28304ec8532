package experiments

import (
	"fmt"

	"mapc/internal/core"
	"mapc/internal/cpusim"
	"mapc/internal/dataset"
	"mapc/internal/gpusim"
	"mapc/internal/ml"
	"mapc/internal/sched"
	"mapc/internal/trace"
	"mapc/internal/vision"
)

// The Extra* experiments go beyond the paper's figures: the Section V-D
// model-choice claim (the tree beats SVR by ~10x), the Section VII open
// problem of bags larger than two, and the ablation of this reproduction's
// own design choices (canonical member ordering, LOOCV protocol).

// ExtraGenerators lists the extension artifacts, addressable from
// cmd/mapc-experiments via -only.
func ExtraGenerators() []struct {
	ID  string
	Fn  func(*Env) (*Table, error)
	Doc string
} {
	return []struct {
		ID  string
		Fn  func(*Env) (*Table, error)
		Doc string
	}{
		{"models", ExtraModelComparison, "decision tree vs. SVR vs. OLS (Section V-D)"},
		{"bagsize", ExtraBagSize, "GPU slowdown for bags of 2-4 applications (Section VII)"},
		{"protocols", ExtraProtocols, "LOOCV protocol sensitivity (hold-out-own vs. containing)"},
		{"ordering", ExtraOrdering, "canonical vs. arbitrary bag-member ordering"},
		{"microarch", ExtraMicroarch, "effect of the opt-in prefetcher and coalescing models"},
		{"depthsweep", ExtraDepthSweep, "tree-depth hyper-parameter sweep (Section II-B3)"},
		{"scheduling", ExtraScheduling, "predictor-guided co-scheduling vs. serial/naive/oracle"},
	}
}

// ExtraScheduling runs the introduction's use case end-to-end: an edge
// server drains a queue of offloaded vision jobs under four policies, and
// the predictor-guided one is compared against serial execution, naive
// MPS pairing, and the measurement oracle.
func ExtraScheduling(e *Env) (*Table, error) {
	corpus, err := e.Corpus()
	if err != nil {
		return nil, err
	}
	predictor, err := core.Train(corpus, core.SchemeFull, core.DefaultTreeParams())
	if err != nil {
		return nil, err
	}
	scheduler, err := sched.New(e.Cfg, predictor)
	if err != nil {
		return nil, err
	}
	queue := []sched.Job{
		{ID: 0, Member: dataset.Member{Benchmark: "sift", Batch: 80}},
		{ID: 1, Member: dataset.Member{Benchmark: "fast", Batch: 40}},
		{ID: 2, Member: dataset.Member{Benchmark: "knn", Batch: 20}},
		{ID: 3, Member: dataset.Member{Benchmark: "hog", Batch: 160}},
		{ID: 4, Member: dataset.Member{Benchmark: "surf", Batch: 20}},
		{ID: 5, Member: dataset.Member{Benchmark: "facedet", Batch: 80}},
		{ID: 6, Member: dataset.Member{Benchmark: "svm", Batch: 40}},
		{ID: 7, Member: dataset.Member{Benchmark: "orb", Batch: 40}},
	}
	t := &Table{
		ID:     "scheduling",
		Title:  "Draining an 8-job queue under four policies (the introduction's edge-server scenario)",
		Header: []string{"policy", "makespan ms", "vs serial", "mean turnaround ms", "batches"},
		Notes: []string{
			"predictor-guided pairing should recover most of the oracle's gain over serial execution; naive pairing can land anywhere in between",
		},
	}
	var serialMakespan float64
	for _, p := range []sched.Policy{
		sched.SerialFIFO{}, sched.PairFIFO{},
		sched.PredictedPairing{}, sched.OraclePairing{},
	} {
		res, err := scheduler.Run(p, queue)
		if err != nil {
			return nil, err
		}
		if serialMakespan == 0 {
			serialMakespan = res.Makespan
		}
		t.Rows = append(t.Rows, []string{
			res.Policy,
			fmt.Sprintf("%.2f", res.Makespan*1e3),
			fmt.Sprintf("%.2fx", res.Makespan/serialMakespan),
			fmt.Sprintf("%.2f", res.MeanTurnaround*1e3),
			fmt.Sprintf("%d", res.Batches),
		})
	}
	return t, nil
}

// ExtraDepthSweep cross-validates the tree-depth bound — the
// hyper-parameter the paper's Section II-B3 calls out — over the full
// feature matrix.
func ExtraDepthSweep(e *Env) (*Table, error) {
	corpus, err := e.Corpus()
	if err != nil {
		return nil, err
	}
	d := corpus.Dataset()
	results, best, err := ml.GridSearchKFold(d, 5, 17, ml.TreeDepthGrid(2, 3, 4, 6, 8, 0))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "depthsweep",
		Title:  "Tree depth bound vs. 5-fold CV error (full feature set)",
		Header: []string{"depth", "mean rel. error %", "best"},
		Notes: []string{
			"shallow trees underfit badly; past a moderate depth the error plateaus, which is why the paper can leave the depth unbounded",
		},
	}
	for i, r := range results {
		mark := ""
		if i == best {
			mark = "*"
		}
		t.Rows = append(t.Rows, []string{r.Label, fmt.Sprintf("%.2f", r.MeanRelErr), mark})
	}
	return t, nil
}

// ExtraMicroarch quantifies the opt-in microarchitectural refinements: the
// CPU stride prefetcher (Config.PrefetchDegree) and GPU access-pattern
// coalescing (Config.PatternCoalescing), per benchmark at the standard
// batch. Both default off because the calibrated baseline folds their
// average effect into the port/MLP parameters.
func ExtraMicroarch(e *Env) (*Table, error) {
	t := &Table{
		ID:     "microarch",
		Title:  "Opt-in microarchitecture models: isolated time ratios vs. the calibrated baseline (batch 20)",
		Header: []string{"benchmark", "cpu prefetch(4)/base", "gpu coalescing/base"},
		Notes: []string{
			"ratios below 1 mean the refinement speeds the benchmark; streaming kernels benefit, random-access ones do not",
		},
	}
	cpuPF := e.Cfg.CPU
	cpuPF.PrefetchDegree = 4
	gpuCo := e.Cfg.GPU
	gpuCo.PatternCoalescing = true
	for _, b := range vision.All() {
		res, err := vision.Run(b, scalingBatch, e.Cfg.Seed)
		if err != nil {
			return nil, err
		}
		w := res.Workload
		cBase, err := cpusim.RunMemo(e.Cfg.CPU, nil, []cpusim.App{{Workload: w, Threads: e.Cfg.Threads}})
		if err != nil {
			return nil, err
		}
		cPF, err := cpusim.RunMemo(cpuPF, nil, []cpusim.App{{Workload: w, Threads: e.Cfg.Threads}})
		if err != nil {
			return nil, err
		}
		gBase, err := gpusim.RunMemo(e.Cfg.GPU, nil, []*trace.Workload{w})
		if err != nil {
			return nil, err
		}
		gCo, err := gpusim.RunMemo(gpuCo, nil, []*trace.Workload{w})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			b.Name(),
			fmt.Sprintf("%.3f", cPF[0].TimeSec/cBase[0].TimeSec),
			fmt.Sprintf("%.3f", gCo[0].TimeSec/gBase[0].TimeSec),
		})
	}
	return t, nil
}

// ExtraModelComparison reproduces the Section V-D model choice: the same
// full feature matrix fitted with the tree, epsilon-SVR, and OLS, compared
// by held-out relative error. The paper reports the SVR error at ~10x the
// tree's because the sparse data cannot pin down a unique hyperplane.
func ExtraModelComparison(e *Env) (*Table, error) {
	corpus, err := e.Corpus()
	if err != nil {
		return nil, err
	}
	d := corpus.Dataset()
	t := &Table{
		ID:     "models",
		Title:  "Model comparison on the full feature set (80/20 holdout, mean over 10 splits)",
		Header: []string{"model", "mean rel. error %"},
		Notes: []string{
			"paper shape: the decision tree's error is roughly an order of magnitude below SVR's (Section V-D)",
		},
	}
	models := []struct {
		name string
		mk   ml.ModelFactory
	}{
		{"decision tree", func() ml.Regressor { return ml.NewTreeRegressor() }},
		{"svr (rbf)", func() ml.Regressor { return ml.NewSVR() }},
		{"linear regression", func() ml.Regressor { return ml.NewLinearRegression() }},
		{"random forest", func() ml.Regressor {
			f := ml.NewForestRegressor()
			f.Trees = 60
			f.FeatureFraction = 0.5
			return f
		}},
	}
	const splits = 10
	for _, m := range models {
		var sum float64
		for s := 0; s < splits; s++ {
			v, err := ml.HoldOut(d, 0.2, uint64(s)*13+1, m.mk)
			if err != nil {
				return nil, fmt.Errorf("%s split %d: %w", m.name, s, err)
			}
			sum += v
		}
		t.Rows = append(t.Rows, []string{m.name, fmt.Sprintf("%.2f", sum/splits)})
	}
	return t, nil
}

// ExtraBagSize extends the evaluation to the open problem of Section VII:
// homogeneous bags of 2, 3 and 4 applications, reporting the measured GPU
// bag time relative to the single-instance time.
func ExtraBagSize(e *Env) (*Table, error) {
	t := &Table{
		ID:     "bagsize",
		Title:  "Measured GPU bag makespan relative to one instance, bags of 1-4 (batch 20)",
		Header: []string{"benchmark", "1", "2", "3", "4"},
		Notes: []string{
			"the paper stops at 2 concurrent applications; this sweep exercises the simulator's n-way MPS support",
		},
	}
	for _, b := range vision.All() {
		res, err := vision.Run(b, scalingBatch, e.Cfg.Seed)
		if err != nil {
			return nil, err
		}
		w := res.Workload
		row := []string{b.Name()}
		var base float64
		for n := 1; n <= 4; n++ {
			ws := make([]*trace.Workload, n)
			for i := range ws {
				ws[i] = w
			}
			rr, err := gpusim.RunMemo(e.Cfg.GPU, nil, ws)
			if err != nil {
				return nil, err
			}
			bag := gpusim.BagTime(rr)
			if n == 1 {
				base = bag
			}
			row = append(row, fmt.Sprintf("%.2f", bag/base))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// ExtraProtocols contrasts the two defensible readings of the paper's
// LOOCV protocol on the full feature set.
func ExtraProtocols(e *Env) (*Table, error) {
	corpus, err := e.Corpus()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "protocols",
		Title:  "LOOCV protocol sensitivity (full feature set)",
		Header: []string{"protocol", "mean rel. error %"},
		Notes: []string{
			"hold-out-own leaves heterogeneous bags containing the benchmark in training; hold-out-containing removes every bag with it",
		},
	}
	for _, proto := range []core.Protocol{core.HoldOutOwn, core.HoldOutContaining} {
		v, err := core.EvaluateScheme(corpus, core.SchemeFull, core.DefaultTreeParams(), proto)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{proto.String(), fmt.Sprintf("%.2f", v)})
	}
	return t, nil
}

// ExtraOrdering ablates this reproduction's canonical heavier-first member
// ordering against the paper's arbitrary replication order.
func ExtraOrdering(e *Env) (*Table, error) {
	t := &Table{
		ID:     "ordering",
		Title:  "Bag-member ordering ablation (full feature set, hold-out-own LOOCV)",
		Header: []string{"ordering", "mean rel. error %"},
		Notes: []string{
			"canonical ordering makes the replicated feature blocks comparable across data points, which helps the axis-aligned tree",
		},
	}
	for _, canonical := range []bool{true, false} {
		cfg := e.Cfg
		cfg.CanonicalOrder = canonical
		gen, err := dataset.NewGenerator(cfg)
		if err != nil {
			return nil, err
		}
		corpus, err := gen.Generate()
		if err != nil {
			return nil, err
		}
		v, err := core.EvaluateScheme(corpus, core.SchemeFull, core.DefaultTreeParams(), core.HoldOutOwn)
		if err != nil {
			return nil, err
		}
		label := "canonical (heavier first)"
		if !canonical {
			label = "arbitrary (paper)"
		}
		t.Rows = append(t.Rows, []string{label, fmt.Sprintf("%.2f", v)})
	}
	return t, nil
}
