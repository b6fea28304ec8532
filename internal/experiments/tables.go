package experiments

import (
	"fmt"

	"mapc/internal/features"
	"mapc/internal/isa"
	"mapc/internal/vision"
)

// The paper's Tables II-IV are descriptive rather than computed; rendering
// them from the live registries keeps the documentation honest — the table
// contents are whatever the code actually implements. (Table I is a
// related-work survey with no code counterpart.)

// benchmarkDescriptions mirrors Table II's one-line descriptions.
var benchmarkDescriptions = map[string]string{
	"sift":    "Extracts features invariant to image orientation, illumination and scaling",
	"surf":    "Feature extraction with scale invariance (integral-image box filters)",
	"fast":    "Extracts corners from an image (segment test on a Bresenham circle)",
	"orb":     "FAST detector + BRIEF binary descriptors, orientation-compensated",
	"hog":     "Histograms of oriented gradients over cells with block normalization",
	"svm":     "Trains a support vector machine (SMO), then classifies features",
	"knn":     "Classifies features by brute-force nearest-neighbour search",
	"objrec":  "Object recognition: feature extraction + matching + voting",
	"facedet": "Face detection with a Haar cascade over an integral image",
}

// TableII renders the benchmark suite from the vision registry.
func TableII(e *Env) (*Table, error) {
	t := &Table{
		ID:     "table2",
		Title:  "Benchmarks (derived from MEVBench/SD-VBS, reimplemented in Go)",
		Header: []string{"benchmark", "description"},
	}
	for _, b := range vision.All() {
		desc, ok := benchmarkDescriptions[b.Name()]
		if !ok {
			return nil, fmt.Errorf("experiments: benchmark %q has no Table-II description", b.Name())
		}
		t.Rows = append(t.Rows, []string{b.Name(), desc})
	}
	return t, nil
}

// TableIII renders the simulated baseline system from the live configs.
func TableIII(e *Env) (*Table, error) {
	cpu := e.Cfg.CPU
	gpu := e.Cfg.GPU
	t := &Table{
		ID:     "table3",
		Title:  "Details of the simulated baseline system (paper: 2x Xeon Gold 5118 + Tesla T4)",
		Header: []string{"parameter", "value"},
	}
	rows := [][2]string{
		{"CPU cores (physical)", fmt.Sprintf("%d", cpu.Cores)},
		{"CPU SMT ways", fmt.Sprintf("%d", cpu.ThreadsPerCore)},
		{"CPU frequency", fmt.Sprintf("%.1f GHz", cpu.FreqGHz)},
		{"CPU L1D / L2 (private)", fmt.Sprintf("%d KB / %d KB", cpu.L1Bytes>>10, cpu.L2Bytes>>10)},
		{"CPU shared LLC", "not modelled: no L2-miss stream repeats a line, so every L2 miss goes to DRAM"},
		{"CPU DRAM bandwidth", fmt.Sprintf("%.0f GB/s", cpu.DRAMBandwidth/1e9)},
		{"GPU SMs", fmt.Sprintf("%d", gpu.SMs)},
		{"GPU CUDA-core equivalent", fmt.Sprintf("%d", gpu.SMs*int(gpu.Throughput[0]))},
		{"GPU frequency", fmt.Sprintf("%.2f GHz", gpu.FreqGHz)},
		{"GPU shared L2", fmt.Sprintf("%d MB", gpu.L2Bytes>>20)},
		{"GPU shared TLB entries", fmt.Sprintf("%d", gpu.TLBEntries)},
		{"GPU DRAM bandwidth", fmt.Sprintf("%.0f GB/s", gpu.DRAMBandwidth/1e9)},
		{"PCIe bandwidth", fmt.Sprintf("%.0f GB/s", gpu.PCIeBandwidth/1e9)},
		{"Multiplexing", "MPS-style spatial partitioning, phased co-runs"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r[0], r[1]})
	}
	return t, nil
}

// featureDescriptions mirrors Table IV's per-feature descriptions.
var featureDescriptions = map[string]string{
	features.KindCPUTime:  "Execution time of the benchmark on the CPU (isolated)",
	features.KindGPUTime:  "Execution time of the benchmark on the GPU (single instance)",
	isa.SSE.String():      "% of packed/vector (SSE-class) instructions",
	isa.ALU.String():      "% of scalar integer arithmetic instructions",
	isa.MEM.String():      "% of load/store instructions",
	isa.FP.String():       "% of floating point instructions",
	isa.Stack.String():    "% of stack push/pop instructions",
	isa.String.String():   "% of string operations",
	isa.Shift.String():    "% of multiply/shift operations",
	isa.Control.String():  "% of control/branch instructions",
	features.KindFairness: "Fairness of concurrent multi-application execution (Eq. 2)",
}

// TableIV renders the feature list from the live feature vocabulary.
func TableIV(e *Env) (*Table, error) {
	t := &Table{
		ID:     "table4",
		Title:  "List of features (per application, replicated per bag member)",
		Header: []string{"num", "feature", "description"},
	}
	for i, kind := range features.KindNames() {
		desc, ok := featureDescriptions[kind]
		if !ok {
			return nil, fmt.Errorf("experiments: feature kind %q has no Table-IV description", kind)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", i+1), kind, desc})
	}
	t.Notes = append(t.Notes,
		"the paper's novel features are gpu_time (single-instance) and fairness; the rest follow prior work")
	return t, nil
}
