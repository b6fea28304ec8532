// Command mapc-train generates the corpus, trains the decision-tree
// predictor with a chosen feature scheme, reports cross-validation error,
// and optionally prints the learned tree for manual decision-path analysis
// (Section VI-C).
//
// Usage:
//
//	mapc-train                         # full scheme, LOOCV report
//	mapc-train -scheme insmix+cputime  # one of the Figure-5 schemes
//	mapc-train -dump-tree              # print the fitted tree
//	mapc-train -protocol containing    # stricter LOOCV protocol
package main

import (
	"flag"
	"fmt"
	"os"

	"mapc/internal/core"
	"mapc/internal/dataset"
	"mapc/internal/phasesum"
)

func main() {
	schemeName := flag.String("scheme", "full", "feature scheme: insmix, insmix+cputime, insmix+cputime+fairness, full")
	dumpTree := flag.Bool("dump-tree", false, "print the tree fitted on the full corpus")
	protoName := flag.String("protocol", "own", "LOOCV protocol: own (hold out the benchmark's homogeneous points) or containing (hold out every bag containing it)")
	maxDepth := flag.Int("max-depth", 0, "tree depth bound (0 = unbounded)")
	outModel := flag.String("o", "", "save the full-corpus model to this JSON file")
	k := flag.Int("k", 2, "bag size: applications co-scheduled per corpus point (2 = the paper's 91-run pair corpus, up to 8)")
	workers := flag.Int("workers", 0, "measurement/fold worker goroutines (0 = NumCPU, 1 = serial); results are identical for every value")
	simCacheMB := flag.Int("simcache-mb", dataset.DefaultSimCacheMB, "simulation memo budget in MiB (0 = off); output is identical at every budget")
	fidelity := flag.String("fidelity", "exact", "co-run fidelity tier: exact | fast (analytic co-runs trade accuracy for speed; isolated runs stay exact)")
	flag.Parse()

	scheme, ok := core.SchemeByName(*schemeName)
	if !ok {
		fatal(fmt.Errorf("unknown scheme %q", *schemeName))
	}
	protocol := core.HoldOutOwn
	switch *protoName {
	case "own":
	case "containing":
		protocol = core.HoldOutContaining
	default:
		fatal(fmt.Errorf("unknown protocol %q", *protoName))
	}

	cfg := dataset.DefaultConfig()
	cfg.Workers = *workers
	cfg.SimCacheMB = *simCacheMB
	cfg.K = *k
	fid, err := phasesum.ParseFidelity(*fidelity)
	if err != nil {
		fatal(err)
	}
	cfg.Fidelity = fid
	gen, err := dataset.NewGenerator(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "mapc-train: generating %d-app-bag corpus (%d workers)...\n",
		cfg.EffectiveK(), cfg.EffectiveWorkers())
	corpus, err := gen.Generate()
	if err != nil {
		fatal(err)
	}

	params := core.DefaultTreeParams()
	params.MaxDepth = *maxDepth
	results, err := core.LOOCVWorkers(corpus, scheme, params, protocol, *workers)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("scheme=%s protocol=%s\n", scheme.Name, protocol)
	for _, r := range results {
		fmt.Printf("  %-8s mean rel. error %7.2f%% over %d points\n",
			r.Benchmark, r.MeanRelErr, len(r.PerPoint))
	}
	fmt.Printf("  %-8s mean rel. error %7.2f%%\n", "MEAN", core.MeanLOOCVError(results))

	var fullModel *core.Predictor
	if *outModel != "" || *dumpTree {
		fullModel, err = core.Train(corpus, scheme, params)
		if err != nil {
			fatal(err)
		}
	}
	if *outModel != "" {
		if err := fullModel.SaveFile(*outModel); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mapc-train: saved model to %s\n", *outModel)
	}

	if *dumpTree {
		p := fullModel
		fmt.Println("\nfitted tree (full corpus):")
		fmt.Print(p.Tree().Export(p.FeatureNames()))
		imps, err := p.Tree().FeatureImportances()
		if err != nil {
			fatal(err)
		}
		fmt.Println("feature importances:")
		for i, name := range p.FeatureNames() {
			if imps[i] > 0 {
				fmt.Printf("  %-12s %.4f\n", name, imps[i])
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mapc-train:", err)
	os.Exit(1)
}
