// Package cpusim models the paper's multicore CPU server (Table III: 2x
// Intel Xeon Gold 5118, 24 physical cores, 128 GB): out-of-order cores with
// per-category issue ports, private L1/L2 caches, a shared last-level cache,
// and finite DRAM bandwidth. It executes trace.Workloads — alone or
// co-scheduled — and reports execution time and IPC, from which the perfmon
// package derives the fairness feature.
//
// The model is a port-pressure + memory-hierarchy simulator: per phase, the
// compute bound is the max of total-issue and per-port cycles, the memory
// bound comes from simulating a sampled synthetic address stream through
// the cache hierarchy (the LLC genuinely shared between co-runners), and
// DRAM bandwidth is apportioned between applications by demand.
package cpusim

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"mapc/internal/isa"
	"mapc/internal/memsim"
	"mapc/internal/phasesum"
	"mapc/internal/simcache"
	"mapc/internal/trace"
)

// Config describes the simulated multicore machine. DefaultConfig mirrors
// the paper's Table III server.
type Config struct {
	Cores          int     // physical cores
	ThreadsPerCore int     // SMT ways
	SMTYield       float64 // extra throughput an SMT sibling adds (0..1)
	FreqGHz        float64 // core clock
	IssueWidth     float64 // total micro-ops issued per cycle per core

	// Throughput holds per-category execution-port throughput in
	// operations per cycle per core.
	Throughput [isa.NumCategories]float64

	L1Bytes int64 // private L1D capacity
	L1Ways  int
	L2Bytes int64 // private L2 capacity
	L2Ways  int
	LLCytes int64 // shared LLC capacity
	LLCWays int

	L2LatencyCycles  float64 // L1 miss, L2 hit
	LLCLatencyCycles float64 // L2 miss, LLC hit
	DRAMLatency      float64 // LLC miss, in cycles
	DRAMBandwidth    float64 // bytes/second shared by all cores
	MLP              float64 // overlapped outstanding misses per thread

	ForkJoinCycles float64 // per-phase parallel region overhead

	// PrefetchDegree attaches a stride prefetcher in front of each app's
	// private L2, issuing this many line prefetches per confident miss.
	// 0 (the default) disables it: the calibrated port/MLP parameters
	// already fold the average benefit of hardware prefetching in; the
	// explicit model is an opt-in refinement studied by the ablations.
	PrefetchDegree int
}

// DefaultConfig returns the Table-III-equivalent machine: 24 cores with SMT,
// 2.3 GHz, 32 KB/1 MB private caches, a 32 MB shared LLC and ~100 GB/s of
// DRAM bandwidth (per-socket share of the 2-socket machine).
func DefaultConfig() Config {
	var tput [isa.NumCategories]float64
	tput[isa.SSE] = 2     // two vector ports
	tput[isa.ALU] = 3     // three scalar ALUs
	tput[isa.MEM] = 2     // two AGU/load-store ports
	tput[isa.FP] = 2      // two FP ports
	tput[isa.Stack] = 2   // handled by the store/ALU ports
	tput[isa.String] = 1  // microcoded
	tput[isa.Shift] = 2   // shift/mul ports
	tput[isa.Control] = 2 // branch units
	return Config{
		Cores:            24,
		ThreadsPerCore:   2,
		SMTYield:         0.35,
		FreqGHz:          2.3,
		IssueWidth:       4,
		Throughput:       tput,
		L1Bytes:          32 << 10,
		L1Ways:           8,
		L2Bytes:          1 << 20,
		L2Ways:           16,
		LLCytes:          16 << 20,
		LLCWays:          11,
		L2LatencyCycles:  14,
		LLCLatencyCycles: 44,
		DRAMLatency:      220,
		DRAMBandwidth:    25e9,
		MLP:              6,
		ForkJoinCycles:   20000,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.Cores <= 0 || c.ThreadsPerCore <= 0:
		return errors.New("cpusim: cores and SMT ways must be positive")
	case c.FreqGHz <= 0:
		return errors.New("cpusim: frequency must be positive")
	case c.IssueWidth <= 0:
		return errors.New("cpusim: issue width must be positive")
	case c.L1Bytes <= 0 || c.L2Bytes <= 0 || c.LLCytes <= 0:
		return errors.New("cpusim: cache capacities must be positive")
	case c.DRAMBandwidth <= 0:
		return errors.New("cpusim: DRAM bandwidth must be positive")
	case c.MLP <= 0:
		return errors.New("cpusim: MLP must be positive")
	}
	for cat, t := range c.Throughput {
		if t <= 0 {
			return fmt.Errorf("cpusim: throughput for %v must be positive", isa.Category(cat))
		}
	}
	return nil
}

// App is one application instance scheduled onto the machine.
type App struct {
	// Workload is the instrumented trace to execute. Read-only contract:
	// the simulator never mutates the workload, so callers may pass one
	// shared *trace.Workload to any number of concurrent runs without
	// cloning. TestRunTreatsWorkloadsAsReadOnly enforces this with a deep
	// content hash before and after every run.
	Workload *trace.Workload
	// Threads is the OpenMP-style thread count; the paper uses each
	// benchmark's best configuration.
	Threads int
}

// Result reports one application's simulated execution.
type Result struct {
	// TimeSec is the wall-clock execution time.
	TimeSec float64
	// Cycles is the wall-clock time in core cycles.
	Cycles float64
	// Instructions is the total dynamic instruction count.
	Instructions uint64
	// IPC is aggregate instructions per wall-clock cycle (all threads).
	IPC float64
	// LLCMissRate is the fraction of this app's LLC accesses that missed.
	LLCMissRate float64
	// DRAMBytes is the total traffic this app drove to memory.
	DRAMBytes float64
}

// Performance returns 1/time, the paper's definition of performance.
func (r Result) Performance() float64 {
	if r.TimeSec <= 0 {
		return 0
	}
	return 1 / r.TimeSec
}

// phaseMem captures one phase's simulated memory behaviour.
type phaseMem struct {
	l1Miss   float64 // per reference
	l2Miss   float64 // per reference (of refs, not of L1 misses)
	llcMiss  float64 // per reference
	llcMissN uint64
}

// RunMemo simulates the co-scheduled execution of apps at exact fidelity
// and returns one Result per app. It is RunMemoFidelity at phasesum.Exact.
// A single-element slice simulates an isolated run.
func RunMemo(cfg Config, memo *simcache.Cache, apps []App) ([]Result, error) {
	res, _, err := RunMemoFidelity(cfg, memo, apps, phasesum.Exact)
	return res, err
}

// RunMemoFidelity is the simulator's tiered entry: the co-run of apps at
// fidelity fid, memoized in memo. Like a real co-run, the execution is
// phased (phasesum.Run): all apps contend while co-resident, and each
// app's exit releases its cores, cache share and bandwidth to the
// survivors. Reported times are completion times and IPC is lifetime IPC
// — what Linux perf attached to each process measures.
// Exact fidelity (and every single-app run) evaluates each step with
// runSteady; fast uses runSteadyAnalytic and reports its confidence in
// the returned RunKind. Every workload is strictly read-only (see
// App.Workload), so callers may share cached workloads across concurrent
// runs.
//
// memo caches the pure simulation prefixes. Two pieces of simulateMemory
// are pure functions of (cfg, workload, slot):
//
//   - the per-app private phase — stream generation, the L1/L2 replay with
//     the stride prefetcher, the per-phase l1/l2 miss ratios and the
//     LLC-bound miss list — which never observes the co-runner (seeds and
//     address bases are slot-derived, and each replay gets fresh private
//     caches);
//   - for single-app runs, the entire memory simulation including the LLC
//     replay (one client, so nothing is shared).
//
// Shared structures (the LLC with more than one client, DRAM bandwidth
// apportioning, the phased completion schedule) are always recomputed per
// call. Outputs are bit-identical for every memo budget, including under
// eviction pressure: cached entries are immutable and hold exactly what
// their compute functions return. A nil memo runs the same lookups and
// retains nothing.
func RunMemoFidelity(cfg Config, memo *simcache.Cache, apps []App, fid phasesum.Fidelity) ([]Result, phasesum.RunKind, error) {
	if err := validateApps(cfg, apps); err != nil {
		return nil, phasesum.RunKind{}, err
	}
	sub := func(active []int) []App {
		s := make([]App, len(active))
		for k, ai := range active {
			s[k] = apps[ai]
		}
		return s
	}
	return phasesum.Run(fid, phasesum.CoRun[Result]{
		N: len(apps),
		Exact: func(active []int) ([]Result, error) {
			return runSteady(cfg, memo, sub(active))
		},
		Analytic: func(active []int) ([]Result, float64, error) {
			return runSteadyAnalytic(cfg, memo, sub(active))
		},
		Time: func(r Result) float64 { return r.TimeSec },
		Finish: func(r Result, t float64) Result {
			r.TimeSec = t
			r.Cycles = t * cfg.FreqGHz * 1e9
			if r.Cycles > 0 {
				r.IPC = float64(r.Instructions) / r.Cycles
			}
			return r
		},
	})
}

func validateApps(cfg Config, apps []App) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(apps) == 0 {
		return errors.New("cpusim: no applications to run")
	}
	for i := range apps {
		if apps[i].Workload == nil {
			return fmt.Errorf("cpusim: app %d has nil workload", i)
		}
		if err := apps[i].Workload.Validate(); err != nil {
			return fmt.Errorf("cpusim: app %d: %w", i, err)
		}
		if apps[i].Threads <= 0 {
			return fmt.Errorf("cpusim: app %d has non-positive thread count", i)
		}
	}
	return nil
}

// runSteady computes per-app times assuming all apps stay co-resident.
// mem is treated as read-only here: for memoized single-app runs it aliases
// an immutable cache entry.
func runSteady(cfg Config, memo *simcache.Cache, apps []App) ([]Result, error) {
	mem, llcStats, err := simulateMemory(cfg, memo, apps)
	if err != nil {
		return nil, err
	}
	llcRates := make([]float64, len(apps))
	for i := range llcStats {
		llcRates[i] = llcStats[i].MissRate()
	}
	return steadyFromMem(cfg, apps, mem, llcRates), nil
}

// steadyFromMem is the timing tail of runSteady: core allocation, the
// two-pass bandwidth apportioning, and result assembly, given the
// per-phase memory behaviour (exact or analytic) and the per-app LLC miss
// ratios to report. Shared by the exact and analytic steady evaluators.
func steadyFromMem(cfg Config, apps []App, mem [][]phaseMem, llcRates []float64) []Result {
	coreScale := coreScaleOf(cfg, apps)

	// Pass 1: compute-and-latency-bound times, ignoring bandwidth.
	prelim := make([]float64, len(apps))
	traffic := make([]float64, len(apps))
	for i := range apps {
		prelim[i], traffic[i] = appCycles(cfg, apps[i], mem[i], coreScale, 0)
	}

	// Pass 2: apportion DRAM bandwidth by demand and re-time with the
	// bandwidth bound in place.
	share := memsim.BandwidthShares(cfg.DRAMBandwidth, cfg.FreqGHz, prelim, traffic)
	results := make([]Result, len(apps))
	for i := range apps {
		cycles, bytes := appCycles(cfg, apps[i], mem[i], coreScale, share[i])
		w := apps[i].Workload
		results[i] = Result{
			TimeSec:      cycles / (cfg.FreqGHz * 1e9),
			Cycles:       cycles,
			Instructions: w.Instructions(),
			DRAMBytes:    bytes,
			LLCMissRate:  llcRates[i],
		}
		if cycles > 0 {
			results[i].IPC = float64(w.Instructions()) / cycles
		}
	}
	return results
}

// coreScaleOf is the core allocation. The machine provides Cores
// full-speed thread contexts plus diminishing-return SMT siblings: its
// total capacity in core-equivalents is Cores*(1 + SMTYield*(ThreadsPerCore-1)).
// While demand fits within physical cores every thread runs at full
// speed; beyond that, all runnable threads share the capacity
// proportionally — the OS time-slices them fairly.
func coreScaleOf(cfg Config, apps []App) float64 {
	capacity := float64(cfg.Cores) * (1 + cfg.SMTYield*float64(cfg.ThreadsPerCore-1))
	demanded := 0
	for i := range apps {
		demanded += apps[i].Threads
	}
	if d := float64(demanded); d > float64(cfg.Cores) {
		if scale := capacity / d; scale < 1 {
			return scale
		}
	}
	return 1
}

// appCycles computes one app's wall-clock cycles and DRAM traffic given its
// per-phase memory behaviour. bwShare, when positive, bounds phase
// throughput by the app's bandwidth allocation in bytes/second.
func appCycles(cfg Config, app App, mem []phaseMem, coreScale float64, bwShare float64) (float64, float64) {
	return appCyclesTraced(cfg, app, mem, coreScale, bwShare, nil)
}

func appCyclesTraced(cfg Config, app App, mem []phaseMem, coreScale float64, bwShare float64, timings *[]PhaseTiming) (float64, float64) {
	var cycles, bytes float64
	for pi := range app.Workload.Phases {
		p := &app.Workload.Phases[pi]
		m := mem[pi]

		// Compute bound: port-pressure roofline per thread.
		var portMax, totalOps float64
		for cat := isa.Category(0); cat < isa.NumCategories; cat++ {
			n := float64(p.Counts[cat])
			totalOps += n
			if c := n / cfg.Throughput[cat]; c > portMax {
				portMax = c
			}
		}
		issue := totalOps / cfg.IssueWidth
		if portMax > issue {
			issue = portMax
		}

		// Memory stalls from the simulated hierarchy.
		refs := float64(p.MemRefs())
		stall := refs * (m.l1Miss*cfg.L2LatencyCycles +
			m.l2Miss*cfg.LLCLatencyCycles +
			m.llcMiss*cfg.DRAMLatency) / cfg.MLP

		// Thread scaling: parallelism-capped, core-share-scaled; a
		// modest sublinear efficiency models synchronization.
		effT := float64(app.Threads) * coreScale
		if par := float64(p.Parallelism); effT > par {
			effT = par
		}
		if effT < 1 {
			effT = 1
		}
		eff := 1 / (1 + 0.04*(effT-1)) // Amdahl-style coordination tax
		phaseCycles := (issue+stall)/(effT*eff) + cfg.ForkJoinCycles*float64(p.LaunchCount())

		// Bandwidth bound.
		phaseBytes := refs * m.llcMiss * memsim.LineSize
		bytes += phaseBytes
		if bwShare > 0 {
			bwCycles := phaseBytes / bwShare * cfg.FreqGHz * 1e9
			if bwCycles > phaseCycles {
				phaseCycles = bwCycles
			}
		}
		cycles += phaseCycles
		if timings != nil {
			*timings = append(*timings, PhaseTiming{
				Name:             p.Name,
				ComputeCycles:    issue,
				StallCycles:      stall,
				TotalCycles:      phaseCycles,
				EffectiveThreads: effT,
				L1MissRate:       m.l1Miss,
				L2MissRate:       m.l2Miss,
				LLCMissRate:      m.llcMiss,
			})
		}
	}
	return cycles, bytes
}

// PhaseTiming reports one phase's simulated timing decomposition.
type PhaseTiming struct {
	Name             string
	ComputeCycles    float64 // single-thread issue/port bound
	StallCycles      float64 // single-thread memory-latency bound
	TotalCycles      float64 // after thread scaling, fork-join and bandwidth
	EffectiveThreads float64
	L1MissRate       float64 // per reference
	L2MissRate       float64 // per reference
	LLCMissRate      float64 // per reference
}

// PhaseBreakdown retraces one app of an exact co-run and returns its
// per-phase timing decomposition — the CPU-side counterpart of
// gpusim.PhaseBreakdown. apps must match the run being explained.
func PhaseBreakdown(cfg Config, apps []App, app int) ([]PhaseTiming, error) {
	if err := validateApps(cfg, apps); err != nil {
		return nil, err
	}
	if app < 0 || app >= len(apps) {
		return nil, fmt.Errorf("cpusim: app %d out of range", app)
	}
	mem, _, err := simulateMemory(cfg, nil, apps)
	if err != nil {
		return nil, err
	}
	var out []PhaseTiming
	appCyclesTraced(cfg, apps[app], mem[app], coreScaleOf(cfg, apps), 0, &out)
	return out, nil
}

// replayScratch is privateReplay's transient working set: fill is the
// per-phase address batch Stream.Fill writes into, and bound collects the
// LLC-bound (L2-miss) stream at worst-case capacity.
type replayScratch struct {
	fill, bound []uint64
}

// fillPool holds replayScratch buffers. Pooled because corpus generation
// replays thousands of private phases, potentially from concurrent
// measurement workers; privFor keeps only an exact-length copy of bound.
var fillPool = sync.Pool{New: func() any { return new(replayScratch) }}

// Memo key domains (simcache.Key.Domain) for the two cached prefixes.
const (
	memoDomainPriv = "cpusim/priv" // per-app private phase (stream + L1/L2 replay)
	memoDomainIso  = "cpusim/iso"  // entire single-app memory simulation
)

// configKey renders cfg exactly for memo keys: two configurations share a
// cache entry only when every field of the simulated machine is identical.
func configKey(cfg Config) string { return fmt.Sprintf("%+v", cfg) }

// Fixed per-entry allowances on top of the backing arrays an entry's
// bytes() counts: the value's own slice headers plus the memo's key, map
// cell and list links.
const (
	privEntryBytes = 96
	isoEntryBytes  = 128
)

// privResult is the memoized pure prefix of one app's memory simulation:
// everything that depends only on (cfg, workload, slot), not on the
// co-runner. Cached entries are immutable — the shared-LLC replay reads
// bound/ends and accumulates into a private copy of mem.
type privResult struct {
	mem   []phaseMem // l1Miss/l2Miss per phase; llcMiss fields zero
	bound []uint64   // LLC-bound (L2-miss) addresses, phase-contiguous
	ends  []int      // cumulative end offset of each phase within bound
}

// bytes reports the entry's approximate resident size for LRU accounting.
func (pr privResult) bytes() int64 {
	return privEntryBytes + simcache.SliceBytes(pr.mem) + simcache.SliceBytes(pr.bound) + simcache.SliceBytes(pr.ends)
}

// isoResult is the memoized outcome of a whole single-app simulateMemory
// call: with one client nothing is shared, so the finalized per-phase miss
// behaviour and LLC statistics are pure in (cfg, workload). Immutable.
type isoResult struct {
	mem   [][]phaseMem
	stats []memsim.CacheStats
}

func (ir isoResult) bytes() int64 {
	n := isoEntryBytes + simcache.SliceBytes(ir.mem) + simcache.SliceBytes(ir.stats)
	for _, m := range ir.mem {
		n += simcache.SliceBytes(m)
	}
	return n
}

// privateReplay runs one app's private phase: per phase, generate the
// sampled synthetic stream, replay it through the private L1/L2 pair (with
// the stride prefetcher in front of L2), record the per-phase l1/l2 miss
// ratios, and append every L2 miss — the LLC-bound stream — to bound.
// bound must have capacity for the worst case (every sampled reference
// missing); the appends never reallocate, so the returned bound aliases
// the caller's buffer. addrs is the reusable fill batch. The result is a
// pure function of (cfg, w, ai): l1/l2 must be fresh.
func privateReplay(cfg Config, w *trace.Workload, ai int, l1, l2 *memsim.Cache, addrs, bound []uint64) (privResult, error) {
	mem := make([]phaseMem, len(w.Phases))
	ends := make([]int, len(w.Phases))
	base := uint64(ai+1) << 40 // disjoint address spaces per slot
	// Seed strings are per-app constants; strconv.Itoa produces exactly
	// the bytes fmt.Sprint emitted here before, without the interface
	// boxing per phase.
	batchStr := strconv.Itoa(w.BatchSize)
	slotStr := strconv.Itoa(ai)
	for pi := range w.Phases {
		p := &w.Phases[pi]
		refs := p.MemRefs()
		if refs == 0 {
			ends[pi] = len(bound)
			continue
		}
		seed := memsim.StreamSeed("cpu", w.Benchmark, p.Name, batchStr, slotStr)
		st, err := memsim.NewStream(p, base+uint64(pi)<<32, seed)
		if err != nil {
			return privResult{}, err
		}
		pf := memsim.NewStridePrefetcher(cfg.PrefetchDegree)
		n := memsim.SampleRefs(refs)
		if n == 0 {
			// Explicit guard mirroring gpusim's pa.acc == 0 pattern:
			// today unreachable (refs > 0 implies n >= 1), but the
			// divides below must never see n == 0 even if SampleRefs
			// grows a subsampling mode.
			ends[pi] = len(bound)
			continue
		}
		batch := addrs[:n]
		st.Fill(batch)
		var l1m, l2m int
		for _, a := range batch {
			if l1.Access(0, a) {
				continue
			}
			l1m++
			if l2.Access(0, a) {
				continue
			}
			l2m++
			bound = append(bound, a)
			// Train the stride prefetcher on the L2 demand-miss
			// stream; fills land in L2 ahead of the access.
			for _, pa := range pf.OnMiss(a) {
				l2.Install(0, pa)
			}
		}
		mem[pi].l1Miss = float64(l1m) / float64(n)
		mem[pi].l2Miss = float64(l2m) / float64(n)
		ends[pi] = len(bound)
	}
	return privResult{mem: mem, bound: bound, ends: ends}, nil
}

// privFor returns app w's private replay for slot ai: the memoized
// "cpusim/priv" entry, computed on a miss — and on every call when memo is
// nil — with fresh L1/L2 caches and pooled scratch. The entry keeps an
// exact-length copy of the LLC-bound list: the worst-case buffer the replay
// appends into (every sampled reference missing L2) goes back to the pool.
// The exact shared path and the analytic tier both read it.
func privFor(cfg Config, memo *simcache.Cache, cfgKey string, w *trace.Workload, ai int) (privResult, error) {
	key := simcache.Key{Domain: memoDomainPriv, Config: cfgKey, Workload: w.Fingerprint(), Slot: ai}
	pr, _, err := simcache.GetOrCompute(memo, key, func() (privResult, int64, error) {
		l1, err := memsim.NewCache("l1", cfg.L1Bytes, cfg.L1Ways, 1)
		if err != nil {
			return privResult{}, 0, err
		}
		l2, err := memsim.NewCache("l2", cfg.L2Bytes, cfg.L2Ways, 1)
		if err != nil {
			return privResult{}, 0, err
		}
		count, maxPhase := 0, 0
		for pi := range w.Phases {
			if refs := w.Phases[pi].MemRefs(); refs > 0 {
				k := memsim.SampleRefs(refs)
				count += k
				maxPhase = max(maxPhase, k)
			}
		}
		sc := fillPool.Get().(*replayScratch)
		defer fillPool.Put(sc)
		if cap(sc.fill) < maxPhase {
			sc.fill = make([]uint64, maxPhase)
		}
		if cap(sc.bound) < count {
			sc.bound = make([]uint64, 0, count)
		}
		pr, err := privateReplay(cfg, w, ai, l1, l2, sc.fill[:maxPhase], sc.bound[:0])
		if err != nil {
			return privResult{}, 0, err
		}
		bound := make([]uint64, len(pr.bound))
		copy(bound, pr.bound)
		pr.bound = bound
		return pr, pr.bytes(), nil
	})
	return pr, err
}

// simulateMemory drives sampled synthetic streams for every phase of every
// app through private L1/L2 hierarchies and one shared LLC, returning the
// per-phase miss behaviour and per-app LLC statistics.
//
// Single-app calls are one "cpusim/iso" lookup (pure: one client shares
// nothing); multi-app calls look up each app's private phase and replay
// only the LLC-bound streams through the genuinely shared LLC. A nil memo
// runs the same lookups, each computing its value and retaining nothing.
func simulateMemory(cfg Config, memo *simcache.Cache, apps []App) ([][]phaseMem, []memsim.CacheStats, error) {
	cfgKey := configKey(cfg)
	if len(apps) != 1 {
		return simulateMemoryShared(cfg, memo, cfgKey, apps)
	}
	ir, err := isoFor(cfg, memo, cfgKey, apps[0])
	return ir.mem, ir.stats, err
}

// isoFor returns the memoized whole-run memory simulation of app alone.
func isoFor(cfg Config, memo *simcache.Cache, cfgKey string, app App) (isoResult, error) {
	key := simcache.Key{Domain: memoDomainIso, Config: cfgKey, Workload: app.Workload.Fingerprint()}
	ir, _, err := simcache.GetOrCompute(memo, key, func() (isoResult, int64, error) {
		mem, stats, err := simulateMemoryShared(cfg, memo, cfgKey, []App{app})
		ir := isoResult{mem: mem, stats: stats}
		return ir, ir.bytes(), err
	})
	return ir, err
}

// simulateMemoryShared is the full memory simulation: each app's private
// phase (privFor) followed by the shared-LLC interleave.
func simulateMemoryShared(cfg Config, memo *simcache.Cache, cfgKey string, apps []App) ([][]phaseMem, []memsim.CacheStats, error) {
	llc, err := memsim.NewCache("llc", cfg.LLCytes, cfg.LLCWays, len(apps))
	if err != nil {
		return nil, nil, err
	}
	mem := make([][]phaseMem, len(apps))
	bounds := make([][]uint64, len(apps))
	ends := make([][]int, len(apps))
	for ai := range apps {
		pr, err := privFor(cfg, memo, cfgKey, apps[ai].Workload, ai)
		if err != nil {
			return nil, nil, err
		}
		// Private copy of the per-phase ratios: the shared replay
		// accumulates llcMissN into it, and cached entries are immutable.
		// Exact length, because an isolated run's cpusim/iso entry keeps it.
		mem[ai] = make([]phaseMem, len(pr.mem))
		copy(mem[ai], pr.mem)
		bounds[ai], ends[ai] = pr.bound, pr.ends
	}

	// Shared-LLC phase: interleave every app's LLC-bound stream round-robin
	// in proportion to stream length, the steady-state mix a shared cache
	// observes from concurrent clients. Phase attribution follows the
	// cursor through the phase-contiguous bound list (ends[ai][p] is the
	// first index past phase p), replacing the per-reference phase tag.
	idx := make([]int, len(apps))
	ph := make([]int, len(apps))
	remaining := 0
	maxLen := 0
	for ai := range bounds {
		remaining += len(bounds[ai])
		if len(bounds[ai]) > maxLen {
			maxLen = len(bounds[ai])
		}
	}
	// Proportional pacing: app ai issues len/maxLen refs per step — i.e.
	// exactly quota(step) = floor(len*(step+1)/maxLen) - floor(len*step/maxLen)
	// references. Because len <= maxLen the quota is always 0 or 1, so a
	// Bresenham error accumulator (er += len; issue and er -= maxLen when
	// er >= maxLen) reproduces the identical schedule without the two
	// integer divisions per app per step the closed form costs (the golden
	// corpus hashes pin the equivalence).
	er := make([]int, len(apps))
	for step := 0; step < maxLen && remaining > 0; step++ {
		for ai := range bounds {
			er[ai] += len(bounds[ai])
			if er[ai] >= maxLen {
				er[ai] -= maxLen
				for idx[ai] >= ends[ai][ph[ai]] {
					ph[ai]++
				}
				addr := bounds[ai][idx[ai]]
				idx[ai]++
				remaining--
				if !llc.Access(ai, addr) {
					mem[ai][ph[ai]].llcMissN++
				}
			}
		}
	}

	// Convert LLC miss counts to per-reference ratios.
	for ai := range apps {
		w := apps[ai].Workload
		for pi := range w.Phases {
			p := &w.Phases[pi]
			pm := &mem[ai][pi]
			refs := p.MemRefs()
			if refs == 0 {
				continue
			}
			n := memsim.SampleRefs(refs)
			if n == 0 {
				continue // see the matching guard in privateReplay
			}
			pm.llcMiss = float64(pm.llcMissN) / float64(n)
		}
	}

	stats := make([]memsim.CacheStats, len(apps))
	for ai := range apps {
		stats[ai] = llc.Stats(ai)
	}
	return mem, stats, nil
}
