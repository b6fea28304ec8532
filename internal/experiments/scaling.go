package experiments

import (
	"fmt"

	"mapc/internal/cpusim"
	"mapc/internal/gpusim"
	"mapc/internal/parallel"
	"mapc/internal/trace"
	"mapc/internal/vision"
)

// MaxInstances is the largest homogeneous instance count Figures 1-3 sweep.
const MaxInstances = 4

// scalingBatch is the input size for the motivation figures (the standard
// 20-image batch of Section V-B).
const scalingBatch = 20

// scalingPerf measures, for every benchmark, the normalized performance
// (1/time, relative to one instance) of n = 1..MaxInstances homogeneous
// instances on both platforms. Results are cached in the Env.
func (e *Env) scalingPerf() (cpu, gpu map[string][]float64, err error) {
	e.scalingOnce.Do(func() {
		e.scalingCPU, e.scalingGPU, e.scalingErr = e.computeScaling()
	})
	return e.scalingCPU, e.scalingGPU, e.scalingErr
}

// computeScaling sweeps every configured benchmark's 1..MaxInstances
// homogeneous concurrency on both simulated platforms. Benchmarks fan out
// over the measurement engine's worker pool (Config.Workers); each worker
// simulates private workload clones and writes its results by benchmark
// index, so the cached maps are identical for every worker count.
func (e *Env) computeScaling() (cpu, gpu map[string][]float64, err error) {
	names := e.Cfg.BenchmarkNames()
	cpuRows := make([][]float64, len(names))
	gpuRows := make([][]float64, len(names))
	err = parallel.ForEach(e.Cfg.Workers, len(names), func(bi int) error {
		b, err := vision.ByName(names[bi])
		if err != nil {
			return err
		}
		res, err := vision.Run(b, scalingBatch, e.Cfg.Seed)
		if err != nil {
			return err
		}
		w := res.Workload
		cpuPerf := make([]float64, MaxInstances)
		gpuPerf := make([]float64, MaxInstances)
		for n := 1; n <= MaxInstances; n++ {
			apps := make([]cpusim.App, n)
			gws := make([]*trace.Workload, n)
			for i := 0; i < n; i++ {
				apps[i] = cpusim.App{Workload: w, Threads: e.Cfg.Threads}
				gws[i] = w
			}
			cr, err := cpusim.RunMemo(e.Cfg.CPU, nil, apps)
			if err != nil {
				return err
			}
			gr, err := gpusim.RunMemo(e.Cfg.GPU, nil, gws)
			if err != nil {
				return err
			}
			// The paper plots each instance's performance; with a
			// homogeneous bag all instances are statistically
			// identical, so the first is representative.
			cpuPerf[n-1] = cr[0].Performance()
			gpuPerf[n-1] = gr[0].Performance()
		}
		cpuRows[bi] = normalizeTo1(cpuPerf)
		gpuRows[bi] = normalizeTo1(gpuPerf)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	cpu = make(map[string][]float64, len(names))
	gpu = make(map[string][]float64, len(names))
	for bi, name := range names {
		cpu[name] = cpuRows[bi]
		gpu[name] = gpuRows[bi]
	}
	return cpu, gpu, nil
}

func normalizeTo1(perf []float64) []float64 {
	out := make([]float64, len(perf))
	if perf[0] == 0 {
		return out
	}
	for i, p := range perf {
		out[i] = p / perf[0]
	}
	return out
}

func scalingHeader() []string {
	h := []string{"benchmark"}
	for n := 1; n <= MaxInstances; n++ {
		h = append(h, fmt.Sprintf("%d inst", n))
	}
	return h
}

// Figure1 reproduces the CPU performance scaling of Figure 1: per
// benchmark, the performance of n homogeneous instances normalized to one
// instance.
func Figure1(e *Env) (*Table, error) {
	cpu, _, err := e.scalingPerf()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "figure1",
		Title:  "CPU performance with multi-application concurrency (normalized to 1 instance)",
		Header: scalingHeader(),
		Notes: []string{
			"paper shape: CPU degradation is mild and benchmark-dependent; far gentler than the GPU's",
		},
	}
	for _, name := range e.Cfg.BenchmarkNames() {
		row := []string{name}
		for _, v := range cpu[name] {
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Figure2 reproduces the GPU scaling of Figure 2 under MPS.
func Figure2(e *Env) (*Table, error) {
	_, gpu, err := e.scalingPerf()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "figure2",
		Title:  "GPU performance with multi-application concurrency under MPS (normalized to 1 instance)",
		Header: scalingHeader(),
		Notes: []string{
			"paper shape: GPU performance degrades steadily with instance count; cross-benchmark ordering stays roughly stable",
		},
	}
	for _, name := range e.Cfg.BenchmarkNames() {
		row := []string{name}
		for _, v := range gpu[name] {
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Figure3 reproduces the GPU/CPU performance ratio of Figure 3.
func Figure3(e *Env) (*Table, error) {
	cpu, gpu, err := e.scalingPerf()
	if err != nil {
		return nil, err
	}
	// Ratios need absolute performance, not normalized: recompute from
	// 1-instance absolute times via the workload cache.
	t := &Table{
		ID:     "figure3",
		Title:  "GPU/CPU performance ratio with multi-application concurrency",
		Header: scalingHeader(),
		Notes: []string{
			"paper shape: GPU beats CPU for most single-instance benchmarks with a few exceptions (branchy or poorly-parallel kernels), and the advantage shrinks as instances are added",
		},
	}
	for _, name := range e.Cfg.BenchmarkNames() {
		b, err := vision.ByName(name)
		if err != nil {
			return nil, err
		}
		res, err := vision.Run(b, scalingBatch, e.Cfg.Seed)
		if err != nil {
			return nil, err
		}
		cr, err := cpusim.RunMemo(e.Cfg.CPU, nil, []cpusim.App{{Workload: res.Workload, Threads: e.Cfg.Threads}})
		if err != nil {
			return nil, err
		}
		gr, err := gpusim.RunMemo(e.Cfg.GPU, nil, []*trace.Workload{res.Workload})
		if err != nil {
			return nil, err
		}
		base := cr[0].TimeSec / gr[0].TimeSec // GPU/CPU perf at 1 instance
		row := []string{b.Name()}
		for n := 0; n < MaxInstances; n++ {
			// ratio(n) = base * (gpuNorm(n) / cpuNorm(n))
			ratio := 0.0
			if cpu[b.Name()][n] > 0 {
				ratio = base * gpu[b.Name()][n] / cpu[b.Name()][n]
			}
			row = append(row, fmt.Sprintf("%.3f", ratio))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
