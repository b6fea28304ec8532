// Command mapc-datagen generates the 91-run training corpus of Section V-B
// and writes it as CSV (features + target) to stdout or a file.
//
// Generation is crash-safe when a checkpoint journal is enabled: every
// completed measurement point is durably appended to the journal before
// the run proceeds, SIGINT/SIGTERM stop the worker pool cleanly (in-flight
// measurements finish and commit, then the journal is flushed), and a
// later -resume run re-measures only the missing bags. The resumed corpus
// is bit-for-bit identical to an uninterrupted run at any worker count.
//
// Usage:
//
//	mapc-datagen                                  # CSV to stdout
//	mapc-datagen -o corpus.csv                    # CSV to a file
//	mapc-datagen -o corpus.csv -checkpoint corpus.journal   # crash-safe
//	mapc-datagen -o corpus.csv -checkpoint corpus.journal -resume  # continue
//	mapc-datagen -fidelity fast -oracle 0.1 -max-oracle-err 0.05   # analytic tier, exactness-gated
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"syscall"
	"text/tabwriter"
	"time"

	"mapc/internal/dataset"
	"mapc/internal/features"
	"mapc/internal/phasesum"
	"mapc/internal/profiling"
)

// exitInterrupted is the exit code for a clean signal-triggered stop with
// a flushed journal (128+SIGINT, the conventional shell encoding).
const exitInterrupted = 130

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	workers := flag.Int("workers", 0, "measurement worker goroutines (0 = NumCPU, 1 = serial); output is identical for every value")
	simCacheMB := flag.Int("simcache-mb", dataset.DefaultSimCacheMB, "simulation memo budget in MiB (0 = off); output is identical at every budget")
	k := flag.Int("k", 2, "bag size: applications co-scheduled per data point (2 = the paper's pair corpus, up to 8)")
	checkpoint := flag.String("checkpoint", "", "journal file for crash-safe generation: completed points are committed here and survive kills")
	resume := flag.Bool("resume", false, "continue from an existing -checkpoint journal, re-measuring only missing bags")
	benchmarks := flag.String("benchmarks", "", "comma-separated benchmark subset (empty = full Table-II suite)")
	batches := flag.String("batches", "", "comma-separated batch sizes (empty = 20,40,80,160,320)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of corpus generation to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a post-GC heap profile to this file on exit")
	fidelity := flag.String("fidelity", "exact", "co-run fidelity tier: exact | fast (exact is cycle-level replay, fast the closed-form model); isolated runs are exact at every tier")
	shares := flag.String("shares", "", "MPS share profile for every shared GPU co-run: k slash- or comma-separated relative weights, e.g. 0.7/0.2/0.1 (empty = equal split)")
	scenarios := flag.String("scenarios", "", "run a k × share-skew scenario matrix instead of one corpus: semicolon-separated cells ('2;2:0.7/0.3;4:0.85/0.05/0.05/0.05'), or 'default' for the benchmarked skew suite")
	scenariosJSON := flag.String("scenarios-json", "", "with -scenarios, also write the matrix report as JSON to this file")
	oracleFrac := flag.Float64("oracle", 0, "differential oracle: re-measure this fraction of bags through the exact simulators and report relative-error bounds (0 = off)")
	oracleSeed := flag.Uint64("oracle-seed", 1, "seed selecting the oracle's bag sample (reproducible per (config, fraction, seed))")
	maxOracleErr := flag.Float64("max-oracle-err", 0, "exit 1 when the oracle's max relative error exceeds this bound (0 = report only)")
	flag.Parse()

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "mapc-datagen: profiling:", err)
		}
	}()

	cfg := dataset.DefaultConfig()
	cfg.Workers = *workers
	cfg.SimCacheMB = *simCacheMB
	cfg.K = *k
	fid, err := phasesum.ParseFidelity(*fidelity)
	if err != nil {
		fatal(err)
	}
	cfg.Fidelity = fid
	if *shares != "" {
		cfg.Shares, err = dataset.ParseShares(*shares)
		if err != nil {
			fatal(fmt.Errorf("parsing -shares: %w", err))
		}
	}
	if *benchmarks != "" {
		if cfg.Benchmarks, err = dataset.ParseList("-benchmarks", *benchmarks); err != nil {
			fatal(err)
		}
	}
	if *batches != "" {
		bs, err := dataset.ParseBatches("-batches", *batches)
		if err != nil {
			fatal(err)
		}
		cfg.BatchSizes = bs
	}
	if *scenarios != "" {
		if *shares != "" {
			fatal(errors.New("-scenarios cells carry their own share profiles; drop -shares"))
		}
		runScenarioMatrix(cfg, *scenarios, *scenariosJSON, *oracleFrac, *oracleSeed, *maxOracleErr)
		return
	}

	gen, err := dataset.NewGenerator(cfg)
	if err != nil {
		fatal(err)
	}

	if *resume && *checkpoint == "" {
		fatal(errors.New("-resume requires -checkpoint"))
	}

	// Throughput accounting: prefilled counts the points replayed from a
	// resumed journal — they cost no simulation, so the points/sec summary
	// excludes them from both numerator and denominator. Counting them used
	// to make resumed runs look misleadingly fast.
	var (
		corpus    *dataset.Corpus
		prefilled int
	)
	measureStart := time.Now()
	if *checkpoint == "" {
		corpus, err = gen.Generate()
		if err != nil {
			fatal(err)
		}
	} else {
		corpus, prefilled = generateCheckpointed(gen, cfg, *checkpoint, *resume)
	}
	measureDur := time.Since(measureStart)

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}
	if err := writeCSV(w, corpus); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "mapc-datagen: wrote %d data points (%d features + target)\n",
		len(corpus.Points), len(corpus.FeatureNames))
	if fresh := len(corpus.Points) - prefilled; fresh > 0 && measureDur > 0 {
		msg := fmt.Sprintf("mapc-datagen: measured %d fresh point(s) in %v (%.2f points/sec",
			fresh, measureDur.Round(time.Millisecond), float64(fresh)/measureDur.Seconds())
		if prefilled > 0 {
			msg += fmt.Sprintf("; %d journal-prefilled point(s) excluded", prefilled)
		}
		fmt.Fprintln(os.Stderr, msg+")")
	}
	if fs := gen.FidelityStats(); fs.AnalyticRuns > 0 {
		fmt.Fprintf(os.Stderr, "mapc-datagen: fidelity %s: %d analytic co-run(s), %d under confidence %g\n",
			fs.Fidelity, fs.AnalyticRuns, fs.LowConfidenceRuns, phasesum.DefaultMinConfidence)
	}
	if st := gen.SimCacheStats(); st.Hits+st.Misses > 0 {
		fmt.Fprintf(os.Stderr, "mapc-datagen: simcache: %.1f%% hit rate (%d hits, %d misses, %d evictions, %.1f MiB resident)\n",
			100*st.HitRate(), st.Hits, st.Misses, st.Evictions, float64(st.Bytes)/(1<<20))
		domains := gen.SimCacheDomainBytes()
		names := make([]string, 0, len(domains))
		for d := range domains {
			names = append(names, d)
		}
		sort.Strings(names)
		for _, d := range names {
			fmt.Fprintf(os.Stderr, "mapc-datagen: simcache: %s %.1f MiB resident (%d bytes)\n", d, float64(domains[d])/(1<<20), domains[d])
		}
	}

	if *oracleFrac > 0 {
		rep, err := gen.RunOracle(*oracleFrac, *oracleSeed)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr,
			"mapc-datagen: oracle (%s, %d/%d bags, seed %d): cpu max %.4g mean %.4g, gpu max %.4g mean %.4g rel. err\n",
			rep.Fidelity, rep.Sampled, rep.Total, *oracleSeed,
			rep.MaxRelErrCPU, rep.MeanRelErrCPU, rep.MaxRelErrGPU, rep.MeanRelErrGPU)
		if *maxOracleErr > 0 && !rep.Within(*maxOracleErr) {
			fatal(fmt.Errorf("oracle max relative error exceeds bound %g", *maxOracleErr))
		}
	}
}

// runScenarioMatrix generates every cell of a k × share-skew matrix,
// prints a per-cell table (throughput, low-confidence runs, oracle error)
// to stdout and optionally writes the full report as JSON.
// -max-oracle-err gates the worst cell, so a CI invocation fails loudly
// when skew pushes the analytic tier out of its exactness envelope.
func runScenarioMatrix(cfg dataset.Config, spec, jsonPath string, oracleFrac float64, oracleSeed uint64, maxOracleErr float64) {
	var (
		specs []dataset.ScenarioSpec
		err   error
	)
	if spec == "default" {
		specs = dataset.DefaultSkewScenarios()
	} else if specs, err = dataset.ParseScenarios(spec); err != nil {
		fatal(fmt.Errorf("parsing -scenarios: %w", err))
	}
	rep, err := dataset.RunScenarios(cfg, specs, oracleFrac, oracleSeed)
	if err != nil {
		fatal(err)
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "scenario\tpoints\tpts/sec\tconf < %g\toracle max gpu err\n", phasesum.DefaultMinConfidence)
	for _, s := range rep.Scenarios {
		oracle := "-"
		if s.Oracle != nil {
			oracle = strconv.FormatFloat(s.Oracle.MaxRelErrGPU, 'g', 3, 64)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%d\t%s\n",
			s.Name, s.Points, s.PointsPerSec, s.LowConfidenceRuns, oracle)
	}
	if err := tw.Flush(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "mapc-datagen: scenarios (%s): max oracle gpu err %.4g\n", rep.Fidelity, rep.MaxRelErrGPU())

	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if maxOracleErr > 0 && rep.MaxRelErrGPU() > maxOracleErr {
		fatal(fmt.Errorf("scenario oracle max relative error %.4g exceeds bound %g", rep.MaxRelErrGPU(), maxOracleErr))
	}
}

// generateCheckpointed runs journaled generation with clean SIGINT/SIGTERM
// handling: on a signal the worker pool stops claiming bags, in-flight
// measurements finish and commit, the journal is flushed through an atomic
// rename, and the process exits with status 130 and resume instructions.
// It only returns on full success, along with the number of points that
// were already journaled before this run started (resume pre-fill).
func generateCheckpointed(gen *dataset.Generator, cfg dataset.Config, path string, resume bool) (*dataset.Corpus, int) {
	var (
		j   *dataset.Journal
		err error
	)
	if resume {
		j, err = dataset.OpenJournal(path, cfg)
	} else {
		j, err = dataset.CreateJournal(path, cfg)
	}
	if err != nil {
		fatal(err)
	}
	bags, err := gen.Bags()
	if err != nil {
		fatal(err)
	}
	prefilled := j.Len()
	if resume {
		msg := fmt.Sprintf("mapc-datagen: resuming: %d/%d points journaled in %s", prefilled, len(bags), path)
		if d := j.Dropped(); d > 0 {
			msg += fmt.Sprintf(" (%d torn record(s) discarded)", d)
		}
		fmt.Fprintln(os.Stderr, msg)
	} else {
		fmt.Fprintf(os.Stderr, "mapc-datagen: checkpointing %d points to %s\n", len(bags), path)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	corpus, err := gen.Resume(ctx, j)
	if err != nil {
		if cerr := j.Close(); cerr != nil { // flush: atomic commit + close
			fmt.Fprintln(os.Stderr, "mapc-datagen: closing journal:", cerr)
		}
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr,
				"mapc-datagen: interrupted; journal %s holds %d/%d points — rerun with -checkpoint %s -resume to continue\n",
				path, j.Len(), len(bags), path)
			os.Exit(exitInterrupted)
		}
		fatal(err)
	}
	if err := j.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "mapc-datagen: journal complete (%d points); safe to delete %s\n", j.Len(), path)
	return corpus, prefilled
}

func writeCSV(w io.Writer, corpus *dataset.Corpus) error {
	// The member-column count follows the corpus's bag size (recovered
	// from the feature width); at k=2 the header and rows are byte-for-byte
	// the legacy pair CSV.
	k, err := features.BagSizeForWidth(len(corpus.FeatureNames))
	if err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	var header []string
	for i := 0; i < k; i++ {
		sfx := string(rune('a' + i))
		header = append(header, "bench_"+sfx, "batch_"+sfx)
	}
	header = append(header, "homogeneous")
	header = append(header, corpus.FeatureNames...)
	header = append(header, "gpu_bag_time_sec")
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := range corpus.Points {
		p := &corpus.Points[i]
		var row []string
		for _, m := range p.Members {
			row = append(row, m.Benchmark, strconv.Itoa(m.Batch))
		}
		row = append(row, strconv.FormatBool(p.Homogeneous))
		for _, v := range p.X {
			row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
		}
		row = append(row, strconv.FormatFloat(p.Y, 'g', -1, 64))
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mapc-datagen:", err)
	os.Exit(1)
}
