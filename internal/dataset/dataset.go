// Package dataset creates the training corpus of Section V-B: it runs
// every Table-II benchmark at five batch sizes through the instrumented
// vision suite, measures isolated CPU/GPU executions and co-scheduled
// 2-application bags on the simulators, and assembles the 91-run corpus of
// homogeneous and heterogeneous data points with Table-IV feature vectors.
package dataset

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"mapc/internal/cpusim"
	"mapc/internal/faultinject"
	"mapc/internal/features"
	"mapc/internal/gpusim"
	"mapc/internal/mica"
	"mapc/internal/ml"
	"mapc/internal/parallel"
	"mapc/internal/perfmon"
	"mapc/internal/phasesum"
	"mapc/internal/simcache"
	"mapc/internal/trace"
	"mapc/internal/vision"
)

// DefaultSimCacheMB is the default byte budget (in MiB) of the cross-bag
// simulation memo. Sized for the full 91-point paper pair corpus:
// generating it at exact fidelity resides ~188 MiB of entries — almost all
// gpusim's materialized reference streams (~8 bytes per sampled reference,
// per member per slot) — and evicts nothing at 512 MiB. Nothing
// sizes it for larger corpora: the 181-bag k=4 fast-tier corpus also
// generates without evictions, but only because the fast tier publishes
// summaries rather than gpusim streams. A tighter budget only costs
// recomputation time, never accuracy (outputs are bit-identical at every
// budget).
const DefaultSimCacheMB = 512

// DefaultBatchSizes are the five input sizes of Section V-B: the standard
// 20-image batch and its doublings.
var DefaultBatchSizes = []int{20, 40, 80, 160, 320}

// DefaultThreads is the per-application CPU thread count (the paper picks
// each benchmark's best configuration; on the Table-III server the OpenCV
// kernels saturate around 16 threads).
const DefaultThreads = 16

// Member identifies one application instance inside a bag.
type Member struct {
	Benchmark string
	Batch     int
}

// String is the member's key form, "<benchmark>/<batch>": BagKeyOf of the
// one-member bag.
func (m Member) String() string { return BagKeyOf([]Member{m}) }

// Point is one data point: a k-application bag with its feature vector and
// measured GPU bag execution time. The paper's corpus uses k=2; the
// generator accepts any k in [2, features.MaxApps]. Slices marshal to the
// same JSON arrays the former fixed-size pair fields produced, so v1
// journals written by the pair pipeline load unchanged.
type Point struct {
	// Members lists the bag's applications in canonical (measured) order.
	Members []Member
	// Homogeneous records whether every member is identical.
	Homogeneous bool
	// X is the Table-IV feature vector (see features.Names(len(Members))).
	X []float64
	// Y is the target: the bag's GPU execution time (makespan) under MPS,
	// in seconds.
	Y float64
	// Fairness is the bag's CPU fairness metric (also inside X).
	Fairness float64
	// CPUTimes and GPUTimes are the members' isolated execution times,
	// indexed like Members.
	CPUTimes []float64
	GPUTimes []float64
}

// Corpus is the complete generated dataset.
type Corpus struct {
	Points       []Point
	FeatureNames []string
	// CPUTimeDivisor is the Section V-C normalization constant applied to
	// the time columns.
	CPUTimeDivisor float64
}

// Config controls corpus generation.
type Config struct {
	CPU        cpusim.Config
	GPU        gpusim.Config
	BatchSizes []int
	Threads    int
	// Seed drives image synthesis; fixed by default for reproducibility.
	Seed uint64
	// HeteroBatches lists extra mixed-batch heterogeneous combinations;
	// see DefaultConfig for the shipped set.
	MixedPairs int
	// K is the bag size: how many applications are co-scheduled per data
	// point. 0 (the zero value) means 2 — the paper's pair corpus, and
	// bit-identical to the legacy pair pipeline (the golden-hash tests pin
	// this). Values outside [2, features.MaxApps] are rejected by
	// NewGenerator.
	K int
	// CanonicalOrder, when true, sorts bag members heavier-first (by
	// isolated CPU time) before building the replicated feature vector.
	// The paper replicates in arbitrary order; canonical ordering is an
	// extension studied in the ablation benches.
	CanonicalOrder bool
	// Workers bounds the measurement engine's goroutine pools: how many
	// bags Generate measures concurrently, and how many of one bag's
	// members are measured concurrently (so a Generate runs up to
	// Workers × Workers measurement goroutines). 0 (the zero value)
	// selects runtime.NumCPU(); 1 is the exact legacy serial path.
	// Corpus contents and ordering are bit-for-bit identical for every
	// worker count — results are written by bag and member index and
	// every simulator RNG is seeded per member, never shared across
	// goroutines.
	Workers int
	// Benchmarks optionally restricts generation to a subset of the
	// Table-II suite (canonical vision benchmark names). Nil or empty
	// means all nine. Primarily for tests and partial regenerations.
	Benchmarks []string
	// SimCacheMB bounds the cross-bag simulation memo (internal/simcache)
	// in MiB: memoized pure simulation prefixes — per-app private cache
	// replays, materialized GPU reference streams, whole isolated runs —
	// shared across every bag the generator measures. 0 disables the memo
	// (the exact cold path); negative values are rejected by NewGenerator.
	// Like Workers, the value never changes outputs, only speed: corpora
	// are bit-for-bit identical at every budget, so it is excluded from
	// the journal's config fingerprint.
	SimCacheMB int
	// Fidelity selects how contended co-runs (the shared CPU run behind
	// fairness and the shared GPU run behind the target) are computed:
	// exact reference-by-reference simulation (the zero value — the legacy
	// bit-identical path) or the closed-form phase-summary tier ("fast").
	// Isolated runs are always exact. Unlike Workers/SimCacheMB this
	// changes measured values, so the fast tier is folded into the journal
	// fingerprint; the differential oracle (RunOracle) bounds the error.
	Fidelity phasesum.Fidelity
	// Shares is the bag's MPS SM partitioning: relative weights, indexed
	// by canonical bag position (after the CanonicalOrder sort), applied
	// to every shared GPU co-run the generator measures. Nil (the zero
	// value) is the legacy equal split, bit-identical to the pair
	// pipeline; a non-nil vector must have exactly EffectiveK positive
	// finite entries and is folded into the journal fingerprint (like
	// Fidelity, it changes measured targets). The CPU side has no
	// partitioning — fairness co-runs ignore Shares.
	Shares []float64
}

// EffectiveWorkers resolves the configured worker count: values <= 0 mean
// runtime.NumCPU().
func (c Config) EffectiveWorkers() int { return parallel.Resolve(c.Workers) }

// EffectiveK resolves the configured bag size: 0 means the paper's
// 2-application bags.
func (c Config) EffectiveK() int {
	if c.K == 0 {
		return 2
	}
	return c.K
}

// SharesLabel renders the share vector canonically ("0.7/0.2/0.1" —
// shortest round-tripping float form, slash-separated), or "" for the nil
// equal split. Journal fingerprints, serve cache namespaces and scenario
// names all use this one rendering.
func (c Config) SharesLabel() string { return sharesLabel(c.Shares) }

func sharesLabel(shares []float64) string {
	if shares == nil {
		return ""
	}
	parts := make([]string, len(shares))
	for i, s := range shares {
		parts[i] = strconv.FormatFloat(s, 'g', -1, 64)
	}
	return strings.Join(parts, "/")
}

// BenchmarkNames returns the effective benchmark list: Config.Benchmarks if
// set, otherwise the full Table-II suite, always as a fresh slice.
func (c Config) BenchmarkNames() []string {
	if len(c.Benchmarks) == 0 {
		return vision.Names()
	}
	return append([]string(nil), c.Benchmarks...)
}

// DefaultConfig reproduces the paper's 91-run corpus: 45 homogeneous points
// (9 benchmarks x 5 batches), 36 heterogeneous same-batch pairs and 10
// heterogeneous mixed-batch pairs.
func DefaultConfig() Config {
	return Config{
		CPU:            cpusim.DefaultConfig(),
		GPU:            gpusim.DefaultConfig(),
		BatchSizes:     DefaultBatchSizes,
		Threads:        DefaultThreads,
		Seed:           42,
		MixedPairs:     10,
		CanonicalOrder: true,
		Workers:        runtime.NumCPU(),
		SimCacheMB:     DefaultSimCacheMB,
	}
}

// measurement caches one (benchmark, batch) instrumented run and its
// isolated simulator results.
type measurement struct {
	workload *trace.Workload
	mix      mica.Mix
	cpu      cpusim.Result
	gpu      gpusim.Result
}

// onceTable is a never-evicted singleflight map: the first get of a key
// runs compute, and every concurrent or later get of that key waits for
// and shares its result, errors included. A compute that panics publishes
// nothing: its entry is dropped and the panic continues up the computing
// caller's stack, and every waiter retries, so the next get recomputes
// and no key is ever served the zero value.
type onceTable[K comparable, V any] struct {
	mu   sync.Mutex // guards m's structure only
	m    map[K]*onceEntry[V]
	runs atomic.Int64 // compute calls made, for tests
}

type onceEntry[V any] struct {
	once sync.Once
	v    V
	err  error
	// panicked reports that compute did not return; v and err are unset.
	panicked bool
}

func (t *onceTable[K, V]) get(k K, compute func() (V, error)) (V, error) {
	for {
		t.mu.Lock()
		e, ok := t.m[k]
		if !ok {
			if t.m == nil {
				t.m = map[K]*onceEntry[V]{}
			}
			e = &onceEntry[V]{}
			t.m[k] = e
		}
		t.mu.Unlock()
		e.once.Do(func() {
			t.runs.Add(1)
			e.panicked = true
			defer func() {
				if e.panicked {
					t.mu.Lock()
					delete(t.m, k)
					t.mu.Unlock()
				}
			}()
			e.v, e.err = compute()
			e.panicked = false
		})
		if !e.panicked {
			return e.v, e.err
		}
	}
}

// sampleKey identifies one sampled instrumented run. Every batch of a
// benchmark with the same vision.SampleCount extrapolates from it, so no
// input can grow the key space past the nine benchmarks times the three
// sample counts, and the table needs no eviction.
type sampleKey struct {
	benchmark string
	n         int
}

// Generator builds corpora; it caches instrumented runs across points. All
// methods are safe for concurrent use: the sample and measurement tables
// are singleflight maps, the simulation memo is concurrency-safe, and the
// simulators honour a read-only contract on the cached workloads (no
// cloning needed; see cpusim.App and gpusim.RunMemoSharesFidelity).
type Generator struct {
	cfg Config

	// memo is the cross-bag simulation-prefix cache threaded into every
	// cpusim/gpusim run; nil when Config.SimCacheMB == 0 (cold path).
	memo *simcache.Cache

	// fault is the chaos-testing hook (nil in production): fired once per
	// bag at FaultSitePoint before the bag is measured, and once per
	// member measurement at FaultSiteMeasure, indexed by measureCalls.
	fault        faultinject.Injector
	measureCalls atomic.Int64

	// Fidelity-tier counters (atomic): how many contended co-runs the
	// analytic model answered (and how many of those under
	// phasesum.DefaultMinConfidence), how many the exact simulator
	// answered at the fast tier, and how many were asked for at the exact
	// tier.
	analyticRuns      atomic.Uint64
	lowConfidenceRuns atomic.Uint64
	exactFallbacks    atomic.Uint64
	exactRuns         atomic.Uint64

	// samples holds each (benchmark, sample count)'s sampled vision run,
	// shared by every batch that extrapolates from it; it is bounded by the
	// config and lives outside the memo, so it works with the memo off.
	samples onceTable[sampleKey, *vision.Result]
	// measured holds each member's extrapolated workload and isolated
	// results.
	measured onceTable[Member, *measurement]
}

// FidelityStats is a snapshot of the generator's fidelity-tier counters,
// exposed on mapc-serve /metrics and in the mapc-datagen summary.
type FidelityStats struct {
	// Fidelity is the configured tier ("exact" or "fast").
	Fidelity string
	// AnalyticRuns counts contended co-runs answered by the closed-form
	// phase-summary model.
	AnalyticRuns uint64
	// LowConfidenceRuns counts the analytic runs whose model confidence
	// sat under phasesum.DefaultMinConfidence: answers outside the model's
	// calibrated scope (a rising count says the traffic strains it).
	LowConfidenceRuns uint64
	// ExactFallbacks counts co-runs asked for at the fast tier that the
	// exact simulator answered; the engine does that only for a single
	// client, so bag co-runs never add to it.
	ExactFallbacks uint64
	// ExactRuns counts contended co-runs asked for at the exact tier: the
	// configured tier's, and the reference runs of RunOracle (so zero
	// under pure fast fidelity until the oracle runs).
	ExactRuns uint64
}

// FidelityStats returns a snapshot of the fidelity-tier counters.
func (g *Generator) FidelityStats() FidelityStats {
	return FidelityStats{
		Fidelity:          g.cfg.Fidelity.String(),
		AnalyticRuns:      g.analyticRuns.Load(),
		LowConfidenceRuns: g.lowConfidenceRuns.Load(),
		ExactFallbacks:    g.exactFallbacks.Load(),
		ExactRuns:         g.exactRuns.Load(),
	}
}

// countFidelity tallies one contended co-run's outcome at requested tier
// fid (serve's brownout path asks for fast on a generator configured
// exact, so the tier is per call, not the configured one).
func (g *Generator) countFidelity(fid phasesum.Fidelity, kind phasesum.RunKind) {
	switch {
	case !kind.UsedExact:
		g.analyticRuns.Add(1)
		if kind.Conf < phasesum.DefaultMinConfidence {
			g.lowConfidenceRuns.Add(1)
		}
	case fid.Analytic():
		g.exactFallbacks.Add(1)
	default:
		g.exactRuns.Add(1)
	}
}

// NewGenerator returns a generator for the given config.
func NewGenerator(cfg Config) (*Generator, error) {
	if err := cfg.CPU.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.GPU.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.BatchSizes) == 0 {
		return nil, fmt.Errorf("dataset: no batch sizes")
	}
	if cfg.Threads <= 0 {
		return nil, fmt.Errorf("dataset: non-positive thread count")
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("dataset: negative worker count %d (0 means NumCPU, 1 means serial)", cfg.Workers)
	}
	if cfg.SimCacheMB < 0 {
		return nil, fmt.Errorf("dataset: negative simulation cache budget %d MB (0 disables the memo)", cfg.SimCacheMB)
	}
	if cfg.K != 0 && (cfg.K < 2 || cfg.K > features.MaxApps) {
		return nil, fmt.Errorf("dataset: bag size %d outside [2, %d] (0 means 2)", cfg.K, features.MaxApps)
	}
	if _, err := phasesum.ParseFidelity(string(cfg.Fidelity)); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	if cfg.Shares != nil {
		if len(cfg.Shares) != cfg.EffectiveK() {
			return nil, fmt.Errorf("dataset: %d share weights for bag size %d (nil means equal split)", len(cfg.Shares), cfg.EffectiveK())
		}
		for i, s := range cfg.Shares {
			if !(s > 0) || math.IsInf(s, 0) {
				return nil, fmt.Errorf("dataset: Shares[%d] = %v; weights must be positive and finite", i, s)
			}
		}
	}
	seen := make(map[string]int, len(cfg.Benchmarks))
	for i, n := range cfg.Benchmarks {
		if strings.TrimSpace(n) == "" {
			return nil, fmt.Errorf("dataset: Benchmarks[%d] is empty; use a canonical Table-II benchmark name (one of %s)",
				i, strings.Join(vision.Names(), ", "))
		}
		if j, dup := seen[n]; dup {
			return nil, fmt.Errorf("dataset: Benchmarks[%d] duplicates Benchmarks[%d] (%q); each benchmark may appear once", i, j, n)
		}
		seen[n] = i
		if err := vision.CheckName(n); err != nil {
			return nil, fmt.Errorf("dataset: Benchmarks[%d]: %w", i, err)
		}
	}
	var memo *simcache.Cache
	if cfg.SimCacheMB > 0 {
		memo = simcache.MustNew(int64(cfg.SimCacheMB) << 20)
	}
	return &Generator{cfg: cfg, memo: memo}, nil
}

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// SimCacheStats returns a snapshot of the simulation memo's counters
// (zeros when the memo is disabled). Exposed on mapc-serve /metrics and in
// the mapc-datagen end-of-run summary.
func (g *Generator) SimCacheStats() simcache.Stats { return g.memo.Stats() }

// SimCacheDomainBytes splits the simulation memo's resident bytes by key
// domain (e.g. "cpusim/priv"), walking the published entries at call time;
// empty when the memo is disabled or holds nothing. Exposed on mapc-serve
// /metrics and in the mapc-datagen end-of-run summary.
func (g *Generator) SimCacheDomainBytes() map[string]int64 {
	out := map[string]int64{}
	g.memo.Items(func(key simcache.Key, _ any, bytes int64) bool {
		out[key.Domain] += bytes
		return true
	})
	return out
}

// SetFaultInjector installs a chaos-testing hook fired once per bag index
// at FaultSitePoint before the bag is measured, and at FaultSiteMeasure
// before each member measurement. Production code never calls this; the
// nil default costs one pointer check per bag and one atomic add per
// member measured.
func (g *Generator) SetFaultInjector(h faultinject.Injector) { g.fault = h }

// measure returns the memoized isolated measurement for member m, computing
// it exactly once (singleflight) no matter how many goroutines ask.
func (g *Generator) measure(m Member) (*measurement, error) {
	return g.measured.get(m, func() (*measurement, error) { return g.runMeasurement(m) })
}

// runMeasurement extrapolates member m's workload from its benchmark's
// shared sampled run and performs the isolated CPU/GPU simulations. The
// vision RNG is seeded per sample from the config seed, so concurrent
// measurements never share generator state.
func (g *Generator) runMeasurement(m Member) (*measurement, error) {
	if err := faultinject.Fire(g.fault, FaultSiteMeasure, int(g.measureCalls.Add(1)-1)); err != nil {
		return nil, err
	}
	b, err := vision.ByName(m.Benchmark)
	if err != nil {
		return nil, err
	}
	// Checked before the sample table, so a bad batch adds no key to it.
	if m.Batch < 1 {
		return nil, fmt.Errorf("dataset: %s batch size %d must be positive", m.Benchmark, m.Batch)
	}
	n := vision.SampleCount(m.Batch)
	sample, err := g.samples.get(sampleKey{m.Benchmark, n}, func() (*vision.Result, error) {
		return vision.Sample(b, n, g.cfg.Seed)
	})
	if err != nil {
		return nil, err
	}
	res, err := vision.Extrapolate(sample, m.Batch)
	if err != nil {
		return nil, err
	}
	mix, err := mica.Analyze(res.Workload)
	if err != nil {
		return nil, err
	}
	cpuRes, err := cpusim.RunMemo(g.cfg.CPU, g.memo, []cpusim.App{{Workload: res.Workload, Threads: g.cfg.Threads}})
	if err != nil {
		return nil, err
	}
	gpuRes, err := gpusim.RunMemo(g.cfg.GPU, g.memo, []*trace.Workload{res.Workload})
	if err != nil {
		return nil, err
	}
	return &measurement{workload: res.Workload, mix: mix, cpu: cpuRes[0], gpu: gpuRes[0]}, nil
}

// Workload returns the cached instrumented workload for member m, running
// the benchmark if needed. The returned workload is shared with the cache;
// callers that mutate it must Clone first.
func (g *Generator) Workload(m Member) (*trace.Workload, error) {
	mm, err := g.measure(m)
	if err != nil {
		return nil, err
	}
	return mm.workload, nil
}

// IsolatedTimes returns member m's cached isolated CPU and GPU execution
// times in seconds.
func (g *Generator) IsolatedTimes(m Member) (cpuSec, gpuSec float64, err error) {
	mm, err := g.measure(m)
	if err != nil {
		return 0, 0, err
	}
	return mm.cpu.TimeSec, mm.gpu.TimeSec, nil
}

// bagMember pairs one bag member with its memoized isolated measurement,
// in the bag's canonical order.
type bagMember struct {
	member Member
	mm     *measurement
}

// measureBag resolves every member's memoized isolated measurement, up to
// Config.Workers members at once, and applies the canonical ordering. A
// measurement is pure in its member, so the fan-out changes no output; a
// failing bag reports its first failing member in bag order, as a serial
// loop would. A panic while measuring a member is re-raised, so a pool
// running this bag reports it at the bag's index. With
// Config.CanonicalOrder the members
// are sorted heavier-first by isolated CPU time, ties broken by
// (Benchmark, Batch) — a strict total order, which is what makes bag
// features permutation-invariant: every ordering of the same multiset of
// members measures the identical canonical sequence. For 2-member bags
// this reduces exactly to the legacy pair swap (swap iff the second
// member's CPU time is strictly larger), pinned by the golden hashes.
func (g *Generator) measureBag(bag []Member) ([]bagMember, error) {
	if len(bag) < 2 {
		return nil, fmt.Errorf("dataset: bag of %d member(s); bags carry at least 2 applications", len(bag))
	}
	if len(bag) > features.MaxApps {
		return nil, fmt.Errorf("dataset: bag of %d members exceeds the supported maximum of %d", len(bag), features.MaxApps)
	}
	ms := make([]bagMember, len(bag))
	err := parallel.ForEach(g.cfg.Workers, len(bag), func(i int) error {
		mm, err := g.measure(bag[i])
		if err != nil {
			return fmt.Errorf("dataset: %v: %w", bag[i], err)
		}
		ms[i] = bagMember{member: bag[i], mm: mm}
		return nil
	})
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		panic(pe)
	}
	if err != nil {
		return nil, err
	}
	if g.cfg.CanonicalOrder {
		sort.SliceStable(ms, func(i, j int) bool {
			a, b := &ms[i], &ms[j]
			if a.mm.cpu.TimeSec != b.mm.cpu.TimeSec {
				return a.mm.cpu.TimeSec > b.mm.cpu.TimeSec
			}
			if a.member.Benchmark != b.member.Benchmark {
				return a.member.Benchmark < b.member.Benchmark
			}
			return a.member.Batch < b.member.Batch
		})
	}
	return ms, nil
}

// bagLabel renders the canonical "bench/batch+bench/batch+..." label used
// in error messages (identical to the legacy "%v+%v" pair form at k=2).
func bagLabel(ms []bagMember) string {
	parts := make([]string, len(ms))
	for i := range ms {
		parts[i] = ms[i].member.String()
	}
	return strings.Join(parts, "+")
}

// cpuCorun runs the canonical bag's shared CPU co-run at tier fid and
// tallies the outcome. The cached workloads are passed directly: the
// simulators are read-only on their inputs (contract documented on
// cpusim.App, enforced by the mutation-guard tests), so per-point clones
// are unnecessary.
func (g *Generator) cpuCorun(ms []bagMember, fid phasesum.Fidelity) ([]cpusim.Result, error) {
	apps := make([]cpusim.App, len(ms))
	for i := range ms {
		apps[i] = cpusim.App{Workload: ms[i].mm.workload, Threads: g.cfg.Threads}
	}
	res, kind, err := cpusim.RunMemoFidelity(g.cfg.CPU, g.memo, apps, fid)
	if err != nil {
		return nil, fmt.Errorf("dataset: shared CPU run %s: %w", bagLabel(ms), err)
	}
	g.countFidelity(fid, kind)
	return res, nil
}

// gpuCorun runs the canonical bag's shared GPU co-run at tier fid under
// the generation share vector (Config.Shares) and tallies the outcome.
func (g *Generator) gpuCorun(ms []bagMember, fid phasesum.Fidelity) ([]gpusim.Result, error) {
	workloads := make([]*trace.Workload, len(ms))
	for i := range ms {
		workloads[i] = ms[i].mm.workload
	}
	res, kind, err := gpusim.RunMemoSharesFidelity(g.cfg.GPU, g.memo, workloads, g.cfg.Shares, fid)
	if err != nil {
		return nil, fmt.Errorf("dataset: shared GPU run %s: %w", bagLabel(ms), err)
	}
	g.countFidelity(fid, kind)
	return res, nil
}

// bagFairness runs the canonical bag's shared CPU co-run at tier fid and
// reduces it to the fairness metric (Equation 2), capped at 1. Only the
// co-run switches tier: the isolated measurements (memoized per member)
// are exact at every tier, which is what anchors the analytic model.
func (g *Generator) bagFairness(ms []bagMember, fid phasesum.Fidelity) (float64, error) {
	cpuShared, err := g.cpuCorun(ms, fid)
	if err != nil {
		return 0, err
	}
	perf := make([]perfmon.AppPerf, len(ms))
	for i := range ms {
		perf[i] = perfmon.AppPerf{IPCAlone: ms[i].mm.cpu.IPC, IPCShared: cpuShared[i].IPC}
	}
	fairness, err := perfmon.Fairness(perf)
	if err != nil {
		return 0, fmt.Errorf("dataset: fairness %s: %w", bagLabel(ms), err)
	}
	if fairness > 1 {
		// Small simulation noise can push a slowdown ratio above 1;
		// fairness is a ratio of min to max and stays in (0,1].
		fairness = 1
	}
	return fairness, nil
}

// bagApps renders the canonical bag as the featurizer's per-app blocks.
func bagApps(ms []bagMember) []features.App {
	apps := make([]features.App, len(ms))
	for i := range ms {
		apps[i] = features.App{
			CPUTimeSec: ms[i].mm.cpu.TimeSec,
			GPUTimeSec: ms[i].mm.gpu.TimeSec,
			Mix:        ms[i].mm.mix,
		}
	}
	return apps
}

// BagFeatures measures everything a prediction needs for a k-member bag —
// isolated CPU/GPU runs and the co-scheduled CPU run for fairness — without
// executing the bag on the GPU, at the generator's configured tier. This is
// the inference-time entry point: the returned vector is raw
// (un-normalized); apply features.ScaleTimes with the training corpus's
// divisor before passing it to a trained model.
func (g *Generator) BagFeatures(bag []Member) (x []float64, fairness float64, err error) {
	return g.BagFeaturesFidelity(bag, g.cfg.Fidelity)
}

// BagFeaturesFidelity is BagFeatures at an explicit co-run tier: serve's
// brownout path answers from the fast analytic tier on a generator
// configured for exact simulation, without touching the generator's
// configured fidelity (or any other caller's view of it). Isolated
// per-member measurements are shared across tiers — only the contended
// co-run switches.
func (g *Generator) BagFeaturesFidelity(bag []Member, fid phasesum.Fidelity) (x []float64, fairness float64, err error) {
	if _, err := phasesum.ParseFidelity(string(fid)); err != nil {
		return nil, 0, fmt.Errorf("dataset: %w", err)
	}
	ms, err := g.measureBag(bag)
	if err != nil {
		return nil, 0, err
	}
	fairness, err = g.bagFairness(ms, fid)
	if err != nil {
		return nil, 0, err
	}
	x, err = features.BagVector(bagApps(ms), fairness)
	if err != nil {
		return nil, 0, err
	}
	return x, fairness, nil
}

// MeasureBag produces the data point for a k-member bag: co-scheduled CPU
// run for fairness, co-scheduled GPU run for the target. With
// Config.CanonicalOrder, members are sorted heavier-first (by isolated CPU
// time) so the replicated per-app feature blocks are comparable across data
// points.
func (g *Generator) MeasureBag(bag []Member) (Point, error) {
	ms, err := g.measureBag(bag)
	if err != nil {
		return Point{}, err
	}

	// Shared CPU run → fairness (Equation 2).
	fairness, err := g.bagFairness(ms, g.cfg.Fidelity)
	if err != nil {
		return Point{}, err
	}

	// Shared GPU run → the target bag time.
	gpuShared, err := g.gpuCorun(ms, g.cfg.Fidelity)
	if err != nil {
		return Point{}, err
	}

	x, err := features.BagVector(bagApps(ms), fairness)
	if err != nil {
		return Point{}, err
	}
	members := make([]Member, len(ms))
	cpuTimes := make([]float64, len(ms))
	gpuTimes := make([]float64, len(ms))
	homogeneous := true
	for i := range ms {
		members[i] = ms[i].member
		cpuTimes[i] = ms[i].mm.cpu.TimeSec
		gpuTimes[i] = ms[i].mm.gpu.TimeSec
		if ms[i].member != ms[0].member {
			homogeneous = false
		}
	}
	return Point{
		Members:     members,
		Homogeneous: homogeneous,
		X:           x,
		Y:           gpusim.BagTime(gpuShared),
		Fairness:    fairness,
		CPUTimes:    cpuTimes,
		GPUTimes:    gpuTimes,
	}, nil
}

// Bags enumerates the corpus's k-application bags in their canonical
// order: homogeneous points for every (benchmark, batch), heterogeneous
// same-batch C(n,k) combinations with the batch cycling through the sweep,
// then the MixedPairs extra mixed-batch bags. Enumeration is pure — no
// simulator runs — and its order is what makes parallel generation
// reproducible: point i of the corpus is always bag i of this list. At
// the default k=2 the plan is exactly the legacy pair enumeration.
func (g *Generator) Bags() ([][]Member, error) {
	k := g.cfg.EffectiveK()
	names := g.cfg.BenchmarkNames()
	var bags [][]Member

	// Homogeneous: k copies of every (benchmark, batch).
	for _, n := range names {
		for _, bs := range g.cfg.BatchSizes {
			m := Member{Benchmark: n, Batch: bs}
			bag := make([]Member, k)
			for i := range bag {
				bag[i] = m
			}
			bags = append(bags, bag)
		}
	}

	// Heterogeneous, equal-batch: all C(n,k) combinations in
	// lexicographic order, with the batch size cycling through the sweep
	// so the bags cover the same input range as the homogeneous points
	// ("different combinations of batch sizes", Section V-B). For k=2
	// this is the legacy i<j double loop.
	comboNo := 0
	forEachCombination(len(names), k, func(idx []int) {
		bs := g.cfg.BatchSizes[comboNo%len(g.cfg.BatchSizes)]
		comboNo++
		bag := make([]Member, k)
		for i, ix := range idx {
			bag[i] = Member{Benchmark: names[ix], Batch: bs}
		}
		bags = append(bags, bag)
	})

	mixed, err := mixedBags(names, g.cfg.BatchSizes, g.cfg.MixedPairs, k)
	if err != nil {
		return nil, err
	}
	return append(bags, mixed...), nil
}

// forEachCombination visits every size-k subset of {0..n-1} in
// lexicographic order. When k > n there are no subsets and fn never runs.
func forEachCombination(n, k int, fn func(idx []int)) {
	if k <= 0 || k > n {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		fn(idx)
		// Advance: find the rightmost index that can still move up.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// mixedBags enumerates the heterogeneous mixed-batch bags: a fixed
// pseudo-pattern walk over (benchmark, batch) combinations, skipped
// entirely (like the legacy generator) when fewer than three batch sizes
// are configured. The walk is bounded: with a degenerate registry (e.g. a
// single benchmark, where every candidate bag collapses to one
// application) the legacy loop spun forever; now it returns a descriptive
// error at every k. Member m of step t draws benchmark (t*(2m+1)+m) mod n
// and batch 1+((t+2m) mod (B-1)) — at k=2 exactly the legacy i=t%n,
// j=(3t+1)%n, ba=1+t%(B-1), bb=1+(t+2)%(B-1) walk.
func mixedBags(names []string, batchSizes []int, count, k int) ([][]Member, error) {
	if count <= 0 || len(batchSizes) <= 2 {
		return nil, nil
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("dataset: no benchmarks to build %d mixed-batch bags from", count)
	}
	// Every full cycle of len(names) steps visits at least one
	// non-collapsing candidate when len(names) > 1, so count+1 cycles
	// (scaled by the batch period for slack) always suffice for feasible
	// configurations.
	maxSteps := (count + 1) * len(names) * len(batchSizes)
	var out [][]Member
	added := 0
	for t := 0; added < count && t < maxSteps; t++ {
		idx := make([]int, k)
		allSame := true
		for m := 0; m < k; m++ {
			idx[m] = (t*(2*m+1) + m) % len(names)
			if idx[m] != idx[0] {
				allSame = false
			}
		}
		if allSame {
			// A mixed bag must stay heterogeneous: skip candidates that
			// collapse to a single benchmark (for k=2, the legacy i==j).
			continue
		}
		bag := make([]Member, k)
		for m := 0; m < k; m++ {
			bag[m] = Member{
				Benchmark: names[idx[m]],
				Batch:     batchSizes[1+((t+2*m)%(len(batchSizes)-1))],
			}
		}
		out = append(out, bag)
		added++
	}
	if added < count {
		return nil, fmt.Errorf(
			"dataset: assembled only %d of %d mixed-batch bags after %d walk steps (%d benchmarks, %d batch sizes, k=%d): every candidate bag collides",
			added, count, maxSteps, len(names), len(batchSizes), k)
	}
	return out, nil
}

// Generate builds the full corpus over the measurement engine's worker
// pool: the bag list is enumerated up front, Config.Workers goroutines
// measure bags concurrently, and each result is written to its bag's index,
// so the corpus is bit-for-bit identical to a Workers=1 serial run.
func (g *Generator) Generate() (*Corpus, error) {
	return g.generate(context.Background(), nil)
}

// Resume builds the corpus crash-safely against journal j: bags already
// journaled are restored without re-measurement, every freshly measured
// point is durably appended before the run moves on, and cancelling ctx
// (SIGINT/SIGTERM in mapc-datagen) stops the pool claiming new bags while
// in-flight measurements finish and commit. Because each point is a pure
// function of (Config, bag), an interrupted-and-resumed corpus is
// bit-for-bit identical — same SHA-256 — to an uninterrupted run at any
// worker count. The caller owns j (Close).
func (g *Generator) Resume(ctx context.Context, j *Journal) (*Corpus, error) {
	if j == nil {
		return nil, errors.New("dataset: Resume requires a journal (use Generate for unjournaled runs)")
	}
	return g.generate(ctx, j)
}

// generate is the shared engine behind Generate and Resume.
func (g *Generator) generate(ctx context.Context, j *Journal) (*Corpus, error) {
	bags, err := g.Bags()
	if err != nil {
		return nil, err
	}
	points := make([]Point, len(bags))
	have := make([]bool, len(bags))
	if j != nil {
		for i, bag := range bags {
			if p, ok := j.Lookup(BagKeyOf(bag)); ok {
				points[i] = p
				have[i] = true
			}
		}
	}
	err = parallel.ForEach(g.cfg.Workers, len(bags), func(i int) error {
		if have[i] {
			return nil // restored from the journal
		}
		if err := ctx.Err(); err != nil {
			return err // interrupted: stop claiming new bags
		}
		if err := faultinject.Fire(g.fault, FaultSitePoint, i); err != nil {
			return err
		}
		p, err := g.MeasureBag(bags[i])
		if err != nil {
			return err
		}
		points[i] = p
		if j != nil {
			// Durable before visible: the point is fsynced into the
			// journal before the run proceeds, so a crash after this line
			// never re-measures bag i.
			if err := j.Append(BagKeyOf(bags[i]), p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	fnames, err := features.Names(g.cfg.EffectiveK())
	if err != nil {
		return nil, err
	}
	c := &Corpus{Points: points, FeatureNames: fnames}
	if err := c.normalize(); err != nil {
		return nil, err
	}
	return c, nil
}

// normalize applies the Section V-C time normalization in place.
func (c *Corpus) normalize() error {
	d := c.rawDataset()
	div, err := features.NormalizeTimes(d)
	if err != nil {
		return err
	}
	c.CPUTimeDivisor = div
	// rawDataset shares row slices with Points, so Points now hold the
	// normalized features.
	return nil
}

// rawDataset wraps the corpus rows in an ml.Dataset sharing storage.
func (c *Corpus) rawDataset() *ml.Dataset {
	d := &ml.Dataset{FeatureNames: c.FeatureNames}
	for i := range c.Points {
		p := &c.Points[i]
		d.X = append(d.X, p.X)
		d.Y = append(d.Y, p.Y)
		d.Groups = append(d.Groups, p.Members[0].Benchmark)
	}
	return d
}

// Dataset returns the corpus as an ml.Dataset. Group labels hold the first
// member's benchmark; use ContainsBenchmark for the paper's LOOCV split.
func (c *Corpus) Dataset() *ml.Dataset { return c.rawDataset() }

// ContainsBenchmark reports whether point i includes the named benchmark.
func (c *Corpus) ContainsBenchmark(i int, benchmark string) bool {
	for _, m := range c.Points[i].Members {
		if m.Benchmark == benchmark {
			return true
		}
	}
	return false
}

// BenchmarkNames returns the distinct benchmarks present, sorted.
func (c *Corpus) BenchmarkNames() []string {
	seen := map[string]bool{}
	for i := range c.Points {
		for _, m := range c.Points[i].Members {
			seen[m.Benchmark] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
