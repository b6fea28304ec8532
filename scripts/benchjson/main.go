// Command benchjson records Go benchmark results as JSON and gates CI on
// regressions against a committed baseline.
//
// Record mode runs the memsim and simcache microbenchmarks and the
// corpus-generation benchmark (or parses saved `go test -bench` output) and
// appends one labelled entry to the baseline file. With -fidelity it also
// runs the per-tier fidelity benchmark (BenchmarkFidelityCorpus), the
// in-process differential exactness oracle, and the k × share-skew
// scenario suite (dataset.DefaultSkewScenarios at the fast tier),
// recording per-tier points/sec and the fast tier's relative-error bounds,
// overall and per cell:
//
//	go run ./scripts/benchjson -label after -out BENCH_baseline.json
//	go run ./scripts/benchjson -label before -input old_bench.txt -out BENCH_baseline.json
//	go run ./scripts/benchjson -label phase-replay -fidelity -out BENCH_baseline.json
//
// Check mode re-runs only the fast microbenchmarks and fails (exit 1)
// if any ns/op exceeds factor x the newest baseline entry. The corpus
// points/sec figure is machine-dependent context and is never gated; the
// *fidelity* figures are gated statically against the committed entry —
// the newest entry carrying them must show fast-tier throughput at or
// above -min-fast-points and oracle bounds at or under -max-oracle-err,
// and the newest skew-suite entry must keep every cell's sampled oracle
// inside the same error bound:
//
//	go run ./scripts/benchjson -check BENCH_baseline.json            # default -factor 2
//
// Serve-check mode gates a BENCH_serve.json produced by cmd/mapc-loadgen
// (schema: internal/benchio): every entry must show real traffic, a shed
// rate at or under -max-shed and a p99 at or under -max-p99-ms. CI runs it
// after the loadgen smoke job:
//
//	go run ./scripts/benchjson -serve-check BENCH_serve.json -max-shed 0.1 -max-p99-ms 10000
//
// Only the Go toolchain and stdlib are required.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"mapc/internal/benchio"
	"mapc/internal/dataset"
	"mapc/internal/phasesum"
)

// Entry is one labelled benchmark snapshot.
type Entry struct {
	Label              string  `json:"label"`
	Date               string  `json:"date"`
	CorpusPointsPerSec float64 `json:"corpus_points_per_sec,omitempty"`
	// FidelityPointsPerSec holds per-tier bag-measurement throughput from
	// BenchmarkFidelityCorpus, keyed "exact" | "fast".
	FidelityPointsPerSec map[string]float64 `json:"fidelity_points_per_sec,omitempty"`
	// Oracle holds the differential exactness oracle's error bounds for
	// the fast tier on the paper corpus.
	Oracle *dataset.OracleReport `json:"oracle,omitempty"`
	// SkewSuite records the k × share-skew scenario matrix
	// (dataset.DefaultSkewScenarios) run at the fast tier: per-cell
	// throughput, low-confidence run counts and sampled oracle bounds.
	// Check mode hard-gates its worst cell's oracle error.
	SkewSuite         *dataset.ScenarioReport `json:"skew_suite,omitempty"`
	MicrobenchNsPerOp map[string]float64      `json:"microbench_ns_per_op"`
}

// Baseline is the schema of BENCH_baseline.json.
type Baseline struct {
	Machine string  `json:"machine"`
	Entries []Entry `json:"entries"`
}

func main() {
	label := flag.String("label", "", "record mode: append an entry with this label to -out")
	out := flag.String("out", "BENCH_baseline.json", "record mode: baseline file to create or append to")
	input := flag.String("input", "", "record mode: comma-separated saved `go test -bench` output files to parse instead of running benchmarks")
	check := flag.String("check", "", "check mode: baseline file to gate against (re-runs memsim+simcache microbenchmarks)")
	factor := flag.Float64("factor", 2.0, "check mode: fail when fresh ns/op > factor x baseline")
	benchtime := flag.String("benchtime", "", "passed to `go test -benchtime` (empty = go default)")
	corpus := flag.Bool("corpus", true, "record mode: also run the slow corpus-generation benchmark")
	fidelity := flag.Bool("fidelity", false, "record mode: also run the per-tier fidelity benchmark and the differential exactness oracle")
	oracleFrac := flag.Float64("oracle-frac", 0.1, "record mode with -fidelity: fraction of bags the oracle re-measures exactly")
	oracleSeed := flag.Uint64("oracle-seed", 1, "record mode with -fidelity: seed selecting the oracle's bag sample")
	minFastPoints := flag.Float64("min-fast-points", 100, "check mode: fail when the baseline's fast-tier throughput is below this many points/sec (0 = skip the fidelity gate)")
	maxOracleErr := flag.Float64("max-oracle-err", 0.05, "check mode: fail when the baseline's oracle max relative error exceeds this")
	serveCheck := flag.String("serve-check", "", "serve-check mode: BENCH_serve.json (mapc-loadgen output) to gate")
	maxShed := flag.Float64("max-shed", 0.10, "serve-check mode: fail when any entry's shed rate exceeds this")
	maxP99Ms := flag.Float64("max-p99-ms", 10000, "serve-check mode: fail when any entry's p99 exceeds this many ms")
	maxErrorRate := flag.Float64("max-error-rate", 1, "serve-check mode: fail when any entry's hard-failure rate (transport errors + non-503 5xx, recomputed from status counts) exceeds this")
	minAvailability := flag.Float64("min-availability", 0, "serve-check mode: fail when any entry's availability (1 - hard-failure rate) is below this; 0 disables the gate")
	flag.Parse()

	switch {
	case *serveCheck != "":
		if err := runServeCheck(*serveCheck, *maxShed, *maxP99Ms, *maxErrorRate, *minAvailability); err != nil {
			fatal(err)
		}
	case *check != "":
		if err := runCheck(*check, *factor, *benchtime, *minFastPoints, *maxOracleErr); err != nil {
			fatal(err)
		}
	case *label != "":
		if err := runRecord(*label, *out, *input, *benchtime, *corpus, *fidelity, *oracleFrac, *oracleSeed); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// microbenchRuns lists the fast, gated microbenchmark suites: the memsim
// hot paths (TLB/cache/stream), the simcache memo paths (hit,
// move-to-front, miss+evict churn) and the phasesum reuse sketch. Both
// record and check mode run exactly this set so baseline entries and fresh
// runs always cover the same names.
var microbenchRuns = []struct{ pkg, pattern string }{
	{"./internal/memsim", "BenchmarkTLBAccess|BenchmarkCacheAccess|BenchmarkStreamNext|BenchmarkStreamFill"},
	{"./internal/simcache", "BenchmarkSimCache"},
	{"./internal/phasesum", "BenchmarkSummarize"},
}

func runRecord(label, out, input, benchtime string, corpus, fidelity bool, oracleFrac float64, oracleSeed uint64) error {
	var outputs []string
	if input != "" {
		for _, f := range strings.Split(input, ",") {
			b, err := os.ReadFile(strings.TrimSpace(f))
			if err != nil {
				return err
			}
			outputs = append(outputs, string(b))
		}
	} else {
		for _, mb := range microbenchRuns {
			micro, err := goBench(mb.pkg, mb.pattern, benchtime)
			if err != nil {
				return err
			}
			outputs = append(outputs, micro)
		}
		if corpus {
			c, err := goBench("./internal/dataset", "BenchmarkGenerateCorpus", benchtime)
			if err != nil {
				return err
			}
			outputs = append(outputs, c)
		}
		if fidelity {
			c, err := goBench("./internal/dataset", "BenchmarkFidelityCorpus", benchtime)
			if err != nil {
				return err
			}
			outputs = append(outputs, c)
		}
	}

	entry := Entry{
		Label:             label,
		Date:              time.Now().UTC().Format("2006-01-02"),
		MicrobenchNsPerOp: map[string]float64{},
	}
	var machine string
	points := map[string][]float64{}
	for _, o := range outputs {
		res := parseBench(o)
		if machine == "" {
			machine = res.machine
		}
		for name, ns := range res.nsPerOp {
			entry.MicrobenchNsPerOp[name] = ns
		}
		for name, vals := range res.points {
			points[name] = append(points[name], vals...)
		}
	}
	var corpusVals []float64
	for name, vals := range points {
		if strings.HasPrefix(name, "GenerateCorpus") {
			corpusVals = append(corpusVals, vals...)
		}
	}
	if len(corpusVals) > 0 {
		entry.CorpusPointsPerSec = round3(mean(corpusVals))
	}
	for _, tier := range []string{"exact", "fast"} {
		if vals := points["FidelityCorpus/"+tier]; len(vals) > 0 {
			if entry.FidelityPointsPerSec == nil {
				entry.FidelityPointsPerSec = map[string]float64{}
			}
			entry.FidelityPointsPerSec[tier] = round3(mean(vals))
		}
	}
	// points/sec entries also report a (meaningless at n=1) ns/op; drop the
	// throughput benchmarks from the gated microbench map.
	for name := range entry.MicrobenchNsPerOp {
		if strings.HasPrefix(name, "GenerateCorpus") || strings.HasPrefix(name, "FidelityCorpus") {
			delete(entry.MicrobenchNsPerOp, name)
		}
	}
	if len(entry.MicrobenchNsPerOp) == 0 && entry.CorpusPointsPerSec == 0 && len(entry.FidelityPointsPerSec) == 0 {
		return fmt.Errorf("no benchmark results parsed")
	}

	if fidelity && input == "" {
		rep, err := runOracle(oracleFrac, oracleSeed)
		if err != nil {
			return err
		}
		entry.Oracle = &rep
		fmt.Fprintf(os.Stderr,
			"benchjson: oracle (%s, %d/%d bags): cpu max %.4g mean %.4g, gpu max %.4g mean %.4g rel. err\n",
			rep.Fidelity, rep.Sampled, rep.Total,
			rep.MaxRelErrCPU, rep.MeanRelErrCPU, rep.MaxRelErrGPU, rep.MeanRelErrGPU)

		skew, err := runSkewSuite(oracleFrac, oracleSeed)
		if err != nil {
			return err
		}
		entry.SkewSuite = skew
		fmt.Fprintf(os.Stderr,
			"benchjson: skew suite (%s, %d cells): max oracle gpu err %.4g\n",
			skew.Fidelity, len(skew.Scenarios), skew.MaxRelErrGPU())
	}

	base := &Baseline{}
	if b, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(b, base); err != nil {
			return fmt.Errorf("parsing existing %s: %w", out, err)
		}
	}
	if base.Machine == "" {
		base.Machine = machine
	}
	base.Entries = append(base.Entries, entry)
	b, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: appended entry %q (%d microbenches, corpus %.3g points/sec) to %s\n",
		label, len(entry.MicrobenchNsPerOp), entry.CorpusPointsPerSec, out)
	return nil
}

// runOracle measures the fast tier's relative-error bounds in-process on
// the paper corpus (Workers 1 so the figure matches the single-core
// throughput target's conditions).
func runOracle(frac float64, seed uint64) (dataset.OracleReport, error) {
	cfg := dataset.DefaultConfig()
	cfg.Workers = 1
	cfg.Fidelity = phasesum.Fast
	gen, err := dataset.NewGenerator(cfg)
	if err != nil {
		return dataset.OracleReport{}, err
	}
	return gen.RunOracle(frac, seed)
}

// runSkewSuite generates the benchmarked k × share-skew matrix at the
// fast tier over a compact three-benchmark suite — small enough to record
// in seconds, skewed enough (minority shares down to 0.05) to exercise the
// fractional-share closed form's whole envelope.
func runSkewSuite(oracleFrac float64, oracleSeed uint64) (*dataset.ScenarioReport, error) {
	cfg := dataset.DefaultConfig()
	cfg.Benchmarks = []string{"fast", "hog", "knn"}
	cfg.BatchSizes = []int{20, 40, 80}
	cfg.MixedPairs = 2
	cfg.Fidelity = phasesum.Fast
	return dataset.RunScenarios(cfg, dataset.DefaultSkewScenarios(), oracleFrac, oracleSeed)
}

// mean averages a non-empty slice.
func mean(vals []float64) float64 {
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

func runCheck(path string, factor float64, benchtime string, minFastPoints, maxOracleErr float64) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Baseline
	if err := json.Unmarshal(b, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(base.Entries) == 0 {
		return fmt.Errorf("%s has no entries", path)
	}
	ref := base.Entries[len(base.Entries)-1] // newest entry is the current expectation
	if len(ref.MicrobenchNsPerOp) == 0 {
		return fmt.Errorf("newest entry %q has no microbenches to gate on", ref.Label)
	}

	fresh := map[string]float64{}
	for _, mb := range microbenchRuns {
		out, err := goBench(mb.pkg, mb.pattern, benchtime)
		if err != nil {
			return err
		}
		for name, ns := range parseBench(out).nsPerOp {
			fresh[name] = ns
		}
	}

	names := make([]string, 0, len(ref.MicrobenchNsPerOp))
	for name := range ref.MicrobenchNsPerOp {
		names = append(names, name)
	}
	sort.Strings(names)
	var failed bool
	for _, name := range names {
		want := ref.MicrobenchNsPerOp[name]
		got, ok := fresh[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: FAIL %-28s missing from fresh run\n", name)
			failed = true
			continue
		}
		ratio := got / want
		status := "ok  "
		if got > want*factor {
			status = "FAIL"
			failed = true
		}
		fmt.Fprintf(os.Stderr, "benchjson: %s %-28s baseline %8.2f ns/op, fresh %8.2f ns/op (%.2fx, limit %.1fx)\n",
			status, name, want, got, ratio, factor)
	}
	if failed {
		return fmt.Errorf("microbenchmark regression beyond %.1fx baseline (%s entry %q)", factor, path, ref.Label)
	}
	fmt.Fprintf(os.Stderr, "benchjson: all %d microbenches within %.1fx of baseline entry %q\n", len(names), factor, ref.Label)
	if minFastPoints > 0 {
		if err := checkFidelity(&base, path, minFastPoints, maxOracleErr); err != nil {
			return err
		}
	}
	return checkSkewSuite(&base, path, maxOracleErr)
}

// checkFidelity gates the committed fidelity figures: the newest entry
// carrying them must record fast-tier throughput at or above minFastPoints
// points/sec and oracle error bounds at or under maxOracleErr. The gate is
// static — it holds the baseline a contributor commits to the bar, so a
// regression recorded into BENCH_baseline.json fails CI instead of
// quietly becoming the new normal.
func checkFidelity(base *Baseline, path string, minFastPoints, maxOracleErr float64) error {
	for i := len(base.Entries) - 1; i >= 0; i-- {
		e := base.Entries[i]
		if len(e.FidelityPointsPerSec) == 0 {
			continue
		}
		fast, ok := e.FidelityPointsPerSec["fast"]
		if !ok {
			return fmt.Errorf("entry %q records fidelity throughput but no fast tier", e.Label)
		}
		if fast < minFastPoints {
			return fmt.Errorf("entry %q: fast tier %.3g points/sec below the %.3g floor", e.Label, fast, minFastPoints)
		}
		if e.Oracle == nil {
			return fmt.Errorf("entry %q records fidelity throughput but no oracle bounds", e.Label)
		}
		if !e.Oracle.Within(maxOracleErr) {
			return fmt.Errorf("entry %q: oracle max relative error (cpu %.4g, gpu %.4g) exceeds %.4g",
				e.Label, e.Oracle.MaxRelErrCPU, e.Oracle.MaxRelErrGPU, maxOracleErr)
		}
		fmt.Fprintf(os.Stderr,
			"benchjson: ok   fidelity entry %q: fast %.4g points/sec (floor %.4g), oracle max err cpu %.4g gpu %.4g (bound %.4g)\n",
			e.Label, fast, minFastPoints, e.Oracle.MaxRelErrCPU, e.Oracle.MaxRelErrGPU, maxOracleErr)
		return nil
	}
	return fmt.Errorf("%s has no entry with fidelity figures — record one with -label <x> -fidelity", path)
}

// checkSkewSuite gates the committed skew-suite matrix: the newest entry
// carrying one must keep the worst sampled oracle error at or under
// maxOracleErr. Like checkFidelity, the gate is static; CI's
// fidelity-smoke job runs the same matrix live at the same bound.
func checkSkewSuite(base *Baseline, path string, maxOracleErr float64) error {
	for i := len(base.Entries) - 1; i >= 0; i-- {
		e := base.Entries[i]
		if e.SkewSuite == nil {
			continue
		}
		if gpuErr := e.SkewSuite.MaxRelErrGPU(); gpuErr > maxOracleErr {
			return fmt.Errorf("entry %q: skew-suite oracle max gpu error %.4g exceeds %.4g", e.Label, gpuErr, maxOracleErr)
		}
		fmt.Fprintf(os.Stderr,
			"benchjson: ok   skew-suite entry %q: %d cells, max oracle gpu err %.4g (bound %.4g)\n",
			e.Label, len(e.SkewSuite.Scenarios), e.SkewSuite.MaxRelErrGPU(), maxOracleErr)
		return nil
	}
	return fmt.Errorf("%s has no entry with a skew suite — record one with -label <x> -fidelity", path)
}

// runServeCheck gates every entry of a loadgen-produced BENCH_serve.json:
// real successful traffic, shed rate within maxShed, p99 within maxP99Ms,
// and — for the chaos job — a hard-failure rate within maxErrorRate and an
// availability at or above minAvailability. Error rate and availability are
// recomputed from StatusCounts rather than trusted from the entry, so
// hand-edited or pre-resilience entries gate on the same ground truth.
// Gating every entry (not just the newest) lets one CI run record several
// configurations — 1-replica and 3-replica, say — and hold them all to the
// same bar.
func runServeCheck(path string, maxShed, maxP99Ms, maxErrorRate, minAvailability float64) error {
	sb, err := benchio.Load(path)
	if err != nil {
		return err
	}
	if len(sb.Entries) == 0 {
		return fmt.Errorf("%s has no entries — did mapc-loadgen run?", path)
	}
	var failed bool
	for _, e := range sb.Entries {
		var faults []string
		if e.StatusCounts["200"] == 0 {
			faults = append(faults, "no successful responses")
		}
		if e.ShedRate > maxShed {
			faults = append(faults, fmt.Sprintf("shed %.3f > %.3f", e.ShedRate, maxShed))
		}
		if e.P99Ms > maxP99Ms {
			faults = append(faults, fmt.Sprintf("p99 %.1fms > %.1fms", e.P99Ms, maxP99Ms))
		}
		errRate := e.ComputedErrorRate()
		avail := e.ComputedAvailability()
		if errRate > maxErrorRate {
			faults = append(faults, fmt.Sprintf("error rate %.4f > %.4f", errRate, maxErrorRate))
		}
		if minAvailability > 0 && avail < minAvailability {
			faults = append(faults, fmt.Sprintf("availability %.4f < %.4f", avail, minAvailability))
		}
		status := "ok  "
		if len(faults) > 0 {
			status = "FAIL"
			failed = true
		}
		fmt.Fprintf(os.Stderr,
			"benchjson: %s %-20s %s x%d: %d req, shed %.3f, err %.4f, avail %.4f, p50 %.2fms p99 %.2fms p999 %.2fms, %.1f rps (%.2f/core)%s\n",
			status, e.Label, e.Target, e.Replicas, e.Requests, e.ShedRate, errRate, avail,
			e.P50Ms, e.P99Ms, e.P999Ms, e.ThroughputRPS, e.ThroughputPerCore,
			suffixFaults(faults))
	}
	if failed {
		return fmt.Errorf("serving-tier gate failed (%s)", path)
	}
	fmt.Fprintf(os.Stderr, "benchjson: all %d serve entries within shed <= %.3f, p99 <= %.1fms, error rate <= %.4f\n",
		len(sb.Entries), maxShed, maxP99Ms, maxErrorRate)
	return nil
}

func suffixFaults(faults []string) string {
	if len(faults) == 0 {
		return ""
	}
	return " [" + strings.Join(faults, "; ") + "]"
}

func goBench(pkg, pattern, benchtime string) (string, error) {
	args := []string{"test", "-run", "^$", "-bench", pattern, "-benchmem", pkg}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	fmt.Fprintf(os.Stderr, "benchjson: go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go test -bench %s: %w\n%s", pkg, err, out)
	}
	return string(out), nil
}

type benchResults struct {
	machine string
	nsPerOp map[string]float64
	// points collects points/sec values per benchmark name (repeated runs
	// of one name are averaged by the caller).
	points map[string][]float64
}

var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench extracts ns/op and points/sec from `go test -bench` output.
// Benchmark names are reported without the "Benchmark" prefix or the
// -GOMAXPROCS suffix, e.g. "TLBAccessHitHeavy", "StreamNext/random".
func parseBench(out string) benchResults {
	res := benchResults{nsPerOp: map[string]float64{}, points: map[string][]float64{}}
	var cpu, goos, goarch string
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "cpu: "):
			cpu = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "goos: "):
			goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			goarch = strings.TrimPrefix(line, "goarch: ")
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(strings.TrimPrefix(fields[0], "Benchmark"), "")
		// Sub-benchmarks repeated with identical names gain a #NN suffix;
		// fold them onto the base name (points/sec values are averaged by
		// the caller, ns/op keeps the last value seen).
		if i := strings.Index(name, "#"); i >= 0 {
			name = name[:i]
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				res.nsPerOp[name] = v
			case "points/sec":
				res.points[name] = append(res.points[name], v)
			}
		}
	}
	if cpu != "" {
		res.machine = fmt.Sprintf("%s (%s/%s)", cpu, goos, goarch)
	}
	return res
}

func round3(v float64) float64 {
	f, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 4, 64), 64)
	return f
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
