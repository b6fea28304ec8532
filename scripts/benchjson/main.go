// Command benchjson gates CI on benchmark results.
//
// Against mode is the microbenchmark gate. It checks a base commit out into
// a temporary git worktree, builds the microbenchmark test binaries in both
// that tree and the working tree (HEAD), and runs them on this host in
// abRounds alternating rounds, flipping which tree goes first each round.
// It fails (exit 1) when a benchmark's median ns/op at HEAD exceeds
// maxRatio × its median at the base, or when a benchmark the base has is
// missing at HEAD. A benchmark only HEAD has is reported as new and not
// gated. Both trees are timed on one host in one job, so the ratio measures
// the change, not the machine or the date:
//
//	go run ./scripts/benchjson -against "$(git merge-base HEAD origin/main)"
//	go run ./scripts/benchjson -against HEAD   # A/A: the working tree against its own commit
//
// Serve-check mode gates a BENCH_serve.json produced by cmd/mapc-loadgen
// (schema: internal/benchio): every entry must show real traffic, a shed
// rate at or under -max-shed and a p99 at or under -max-p99-ms. CI runs it
// after the loadgen smoke job:
//
//	go run ./scripts/benchjson -serve-check BENCH_serve.json -max-shed 0.1 -max-p99-ms 10000
//
// Only the Go toolchain, git and the stdlib are required.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"mapc/internal/benchio"
)

const (
	// abRounds is odd, so with every round reporting a name its median is
	// one measured sample rather than an average of two.
	abRounds = 3
	// maxRatio is the largest HEAD/base median ns/op ratio that passes.
	// Same-host runs of one commit stay within about ±15% of each other,
	// so 2× catches algorithmic regressions without tripping on noise.
	maxRatio = 2.0
)

func main() {
	against := flag.String("against", "", "against mode: git ref of the base commit to time the working tree's microbenchmarks against")
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
	case *against != "":
		// An interrupt kills the running benchmark and still removes the
		// base worktree on the way out.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		err := runAgainst(ctx, *against)
		stop()
		if err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// microbenchRuns lists the gated microbenchmark suites: the memsim hot
// paths (TLB/cache/stream), the simcache memo paths (hit, move-to-front,
// miss+evict churn) and the phasesum reuse sketch.
var microbenchRuns = []struct{ pkg, pattern string }{
	{"./internal/memsim", "BenchmarkTLBAccess|BenchmarkCacheAccess|BenchmarkStreamNext|BenchmarkStreamFill"},
	{"./internal/simcache", "BenchmarkSimCache"},
	{"./internal/phasesum", "BenchmarkSummarize"},
}

// Tree indices into the per-tree arrays.
const (
	base = 0
	head = 1
)

var treeNames = [2]string{"base", "head"}

// runAgainst times microbenchRuns at ref and in the working tree and gates
// the working tree's medians against ref's.
func runAgainst(ctx context.Context, ref string) (err error) {
	root, err := command(ctx, "", "git", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	sha, err := command(ctx, root, "git", "rev-parse", "--verify", ref+"^{commit}")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "benchjson-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	baseDir := filepath.Join(tmp, "base")
	if _, err := command(ctx, root, "git", "worktree", "add", "--detach", baseDir, sha); err != nil {
		return err
	}
	defer func() {
		// Not ctx: an interrupted run must still unregister the worktree.
		if _, rmErr := command(context.Background(), root, "git", "worktree", "remove", "--force", baseDir); rmErr != nil && err == nil {
			err = rmErr
		}
	}()
	fmt.Fprintf(os.Stderr, "benchjson: base %s (%s), head %s\n", ref, sha[:12], root)

	dirs := [2]string{baseDir, root}
	var bins [2][]string
	for t, dir := range dirs {
		for i, mb := range microbenchRuns {
			bin := filepath.Join(tmp, fmt.Sprintf("%s-%d.test", treeNames[t], i))
			if _, err := command(ctx, dir, "go", "test", "-c", "-o", bin, mb.pkg); err != nil {
				return fmt.Errorf("building %s at %s: %w", mb.pkg, treeNames[t], err)
			}
			bins[t] = append(bins[t], bin)
		}
	}

	samples, err := measure(func(t int) (map[string]float64, error) {
		ns := map[string]float64{}
		for i, mb := range microbenchRuns {
			out, err := command(ctx, filepath.Join(dirs[t], mb.pkg), bins[t][i],
				"-test.run", "^$", "-test.bench", mb.pattern, "-test.timeout", "10m")
			if err != nil {
				return nil, fmt.Errorf("benchmarking %s at %s: %w", mb.pkg, treeNames[t], err)
			}
			for name, v := range parseBench(out) {
				ns[name] = v
			}
		}
		return ns, nil
	})
	if err != nil {
		return err
	}

	rows, failed := gate(samples[base], samples[head])
	for _, r := range rows {
		fmt.Fprintln(os.Stderr, "benchjson:", r)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d microbenches regressed beyond %.1fx of %s or went missing", failed, len(rows), maxRatio, ref)
	}
	fmt.Fprintf(os.Stderr, "benchjson: all %d microbenches within %.1fx of %s (median of %d alternating rounds)\n",
		len(rows), maxRatio, ref, abRounds)
	return nil
}

// measure runs abRounds rounds of run over both trees, head first in even
// rounds and base first in odd ones, so drift on a shared host lands on
// both sides alike. It returns each tree's ns/op samples per benchmark name.
func measure(run func(tree int) (map[string]float64, error)) ([2]map[string][]float64, error) {
	samples := [2]map[string][]float64{{}, {}}
	for r := 0; r < abRounds; r++ {
		order := [2]int{head, base}
		if r%2 == 1 {
			order = [2]int{base, head}
		}
		for _, t := range order {
			fmt.Fprintf(os.Stderr, "benchjson: round %d/%d: %s\n", r+1, abRounds, treeNames[t])
			ns, err := run(t)
			if err != nil {
				return samples, err
			}
			for name, v := range ns {
				samples[t][name] = append(samples[t][name], v)
			}
		}
	}
	return samples, nil
}

// row is one benchmark's verdict.
type row struct {
	name       string
	base, head float64 // median ns/op; 0 when the tree lacks the name
	status     string  // "ok", "FAIL", "missing" (at head; fails) or "new" (at head; not gated)
}

func (r row) String() string {
	switch r.status {
	case "new":
		return fmt.Sprintf("new  %-28s head %12.2f ns/op (no base, not gated)", r.name, r.head)
	case "missing":
		return fmt.Sprintf("FAIL %-28s base %12.2f ns/op, missing at head", r.name, r.base)
	}
	return fmt.Sprintf("%-4s %-28s base %12.2f ns/op, head %12.2f ns/op (%.2fx, limit %.1fx)",
		r.status, r.name, r.base, r.head, r.head/r.base, maxRatio)
}

// gate compares per-name medians, sorted by name: a base name missing at
// head, or whose head median exceeds maxRatio × its base median, fails; a
// head-only name is new. It returns the rows and the number that failed.
func gate(baseNs, headNs map[string][]float64) ([]row, int) {
	var rows []row
	failed := 0
	for name, b := range baseNs {
		r := row{name: name, base: median(b), status: "ok"}
		if h, ok := headNs[name]; !ok {
			r.status = "missing"
		} else if r.head = median(h); r.head > maxRatio*r.base {
			r.status = "FAIL"
		}
		if r.status != "ok" {
			failed++
		}
		rows = append(rows, r)
	}
	for name, h := range headNs {
		if _, ok := baseNs[name]; !ok {
			rows = append(rows, row{name: name, head: median(h), status: "new"})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	return rows, failed
}

// median of a non-empty slice; an even count averages the middle two.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
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

// command runs name with args in dir ("" = the current directory) and
// returns its trimmed stdout; a failure's error carries its stderr.
func command(ctx context.Context, dir, name string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %w\n%s%s", name, strings.Join(args, " "), err, out, stderr.Bytes())
	}
	return strings.TrimSpace(string(out)), nil
}

var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench extracts ns/op per benchmark from `go test -bench` output.
// Names are reported without the "Benchmark" prefix or the -GOMAXPROCS
// suffix, e.g. "TLBAccessHitHeavy", "StreamNext/random".
func parseBench(out string) map[string]float64 {
	ns := map[string]float64{}
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(strings.TrimPrefix(fields[0], "Benchmark"), "")
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != "ns/op" {
				continue
			}
			if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
				ns[name] = v
			}
		}
	}
	return ns
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
