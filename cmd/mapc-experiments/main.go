// Command mapc-experiments regenerates the paper's evaluation artifacts
// (Figures 1-12) on the simulated substrate and prints them as tables.
//
// Usage:
//
//	mapc-experiments                 # all figures
//	mapc-experiments -only figure5   # one figure
//	mapc-experiments -list           # list artifact IDs
package main

import (
	"flag"
	"fmt"
	"os"

	"mapc/internal/dataset"
	"mapc/internal/experiments"
	"mapc/internal/phasesum"
	"mapc/internal/profiling"
)

func main() {
	only := flag.String("only", "", "regenerate a single artifact (e.g. figure5)")
	list := flag.Bool("list", false, "list artifact IDs and exit")
	workers := flag.Int("workers", 0, "measurement worker goroutines (0 = NumCPU, 1 = serial); figures are identical for every value")
	simCacheMB := flag.Int("simcache-mb", dataset.DefaultSimCacheMB, "simulation memo budget in MiB (0 = off); output is identical at every budget")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of artifact regeneration to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a post-GC heap profile to this file on exit")
	fidelity := flag.String("fidelity", "exact", "co-run fidelity tier: exact | fast (figures regenerate faster at the fast tier, with model-bounded deviations)")
	flag.Parse()

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "mapc-experiments: profiling:", err)
		}
	}()

	if *list {
		for _, g := range experiments.Generators() {
			fmt.Printf("%-10s %s\n", g.ID, g.Doc)
		}
		for _, g := range experiments.ExtraGenerators() {
			fmt.Printf("%-10s %s (extension)\n", g.ID, g.Doc)
		}
		return
	}

	cfg := dataset.DefaultConfig()
	cfg.Workers = *workers
	cfg.SimCacheMB = *simCacheMB
	fid, err := phasesum.ParseFidelity(*fidelity)
	if err != nil {
		fatal(err)
	}
	cfg.Fidelity = fid
	env := experiments.NewEnv(cfg)
	if *only != "" {
		t, err := experiments.Run(env, *only)
		if err != nil {
			fatal(err)
		}
		if err := t.Render(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	tables, err := experiments.All(env)
	if err != nil {
		fatal(err)
	}
	for _, t := range tables {
		if err := t.Render(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mapc-experiments:", err)
	os.Exit(1)
}
