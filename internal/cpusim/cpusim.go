// Package cpusim models the paper's multicore CPU server (Table III: 2x
// Intel Xeon Gold 5118, 24 physical cores, 128 GB): out-of-order cores with
// per-category issue ports, private L1/L2 caches and finite DRAM
// bandwidth. It executes trace.Workloads — alone or co-scheduled — and
// reports execution time and IPC, from which the perfmon package derives
// the fairness feature.
//
// The model is a port-pressure + memory-hierarchy simulator: per phase, the
// compute bound is the max of total-issue and per-port cycles, the memory
// bound comes from replaying a sampled synthetic address stream through
// each app's private L1/L2, and DRAM bandwidth is apportioned between
// applications by demand. Co-runners interfere through the core share and
// the DRAM bandwidth share only. The shared LLC is not modelled: no
// workload's sampled L2-miss stream ever repeats a line (every phase
// footprint fits the private L2, and phases and slots use disjoint address
// ranges), so an LLC of any capacity would see only compulsory misses and
// every L2 miss goes to DRAM. TestL2MissStreamsNeverRepeatALine pins that
// scope on the benchmark registry.
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

	L2LatencyCycles  float64 // L1 miss, L2 hit
	LLCLatencyCycles float64 // L2 miss: the LLC lookup on the way to DRAM
	DRAMLatency      float64 // L2 miss, in cycles
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
// 2.3 GHz, 32 KiB/1 MiB private caches and 25 GB/s of DRAM bandwidth.
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
	case c.L1Bytes <= 0 || c.L2Bytes <= 0:
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
	l1Miss float64 // per reference
	l2Miss float64 // per reference (of refs, not of L1 misses)
}

// RunMemo simulates the co-scheduled execution of apps at exact fidelity
// and returns one Result per app. It is RunMemoFidelity at phasesum.Exact.
// A single-element slice simulates an isolated run.
func RunMemo(cfg Config, memo *simcache.Cache, apps []App) ([]Result, error) {
	res, _, err := RunMemoFidelity(cfg, memo, apps, phasesum.Exact)
	return res, err
}

// RunMemoFidelity is the simulator's tiered entry: the co-run of apps,
// memoized in memo. Like a real co-run, the execution is phased
// (phasesum.Run): all apps contend while co-resident, and each app's exit
// releases its cores and bandwidth to the survivors. Reported times are
// completion times and IPC is lifetime IPC — what Linux perf attached to
// each process measures. Every workload is strictly read-only (see
// App.Workload), so callers may share cached workloads across concurrent
// runs.
//
// The CPU co-run is one closed form over each app's private miss ratios
// (core share plus DRAM bandwidth share), exact at every tier: fid only
// labels the answer. At the fast tier runSteady is handed to phasesum.Run
// as the analytic evaluator too, with confidence 1, so the fidelity
// counters read as they do for the GPU.
//
// memo caches each app's private replay (privFor), a pure function of
// (cfg, workload, slot): the stream seeds and address bases are
// slot-derived, and each replay gets fresh private caches. Core and
// bandwidth apportioning and the phased completion schedule are always
// recomputed. Outputs are bit-identical for every memo budget, including
// under eviction pressure: cached entries are immutable and hold exactly
// what their compute functions return. A nil memo runs the same lookups
// and retains nothing.
func RunMemoFidelity(cfg Config, memo *simcache.Cache, apps []App, fid phasesum.Fidelity) ([]Result, phasesum.RunKind, error) {
	if err := validateApps(cfg, apps); err != nil {
		return nil, phasesum.RunKind{}, err
	}
	steady := func(active []int) ([]Result, error) {
		sub := make([]App, len(active))
		for k, ai := range active {
			sub[k] = apps[ai]
		}
		return runSteady(cfg, memo, sub)
	}
	return phasesum.Run(fid, phasesum.CoRun[Result]{
		N:     len(apps),
		Exact: steady,
		Analytic: func(active []int) ([]Result, float64, error) {
			r, err := steady(active)
			return r, 1, err
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

// runSteady computes per-app times assuming all apps stay co-resident:
// core allocation, the two-pass bandwidth apportioning, and result
// assembly over each app's memoized per-phase memory behaviour, which is
// read-only here because it aliases immutable cache entries.
func runSteady(cfg Config, memo *simcache.Cache, apps []App) ([]Result, error) {
	mem, err := simulateMemory(cfg, memo, apps)
	if err != nil {
		return nil, err
	}
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
		}
		if cycles > 0 {
			results[i].IPC = float64(w.Instructions()) / cycles
		}
	}
	return results, nil
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

		// Memory stalls from the simulated hierarchy. Every L2 miss pays
		// the LLC lookup and goes to DRAM: no sampled L2-miss stream
		// repeats a line, so an LLC would only see compulsory misses. (The
		// three terms stay separate so results keep their rounding.)
		refs := float64(p.MemRefs())
		stall := refs * (m.l1Miss*cfg.L2LatencyCycles +
			m.l2Miss*cfg.LLCLatencyCycles +
			m.l2Miss*cfg.DRAMLatency) / cfg.MLP

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
		phaseBytes := refs * m.l2Miss * memsim.LineSize
		bytes += phaseBytes
		if bwShare > 0 {
			bwCycles := phaseBytes / bwShare * cfg.FreqGHz * 1e9
			if bwCycles > phaseCycles {
				phaseCycles = bwCycles
			}
		}
		cycles += phaseCycles
	}
	return cycles, bytes
}

// fillPool holds the per-phase address batch privateReplay fills.
// Pooled because corpus generation replays thousands of private phases,
// potentially from concurrent measurement workers.
var fillPool = sync.Pool{New: func() any { return new([]uint64) }}

// memoDomainPriv is the memo key domain (simcache.Key.Domain) of one app's
// private replay at one slot; an isolated run is the slot-0 entry.
const memoDomainPriv = "cpusim/priv"

// configKey renders cfg exactly for memo keys: two configurations share a
// cache entry only when every field of the simulated machine is identical.
func configKey(cfg Config) string { return fmt.Sprintf("%+v", cfg) }

// privEntryBytes is the fixed per-entry allowance on top of the backing
// array an entry's size counts: the slice header plus the memo's key, map
// cell and list links.
const privEntryBytes = 96

// privateReplay runs one app's private phase at slot ai: per phase,
// generate the sampled synthetic stream, replay it through fresh private
// L1/L2 caches (with the stride prefetcher in front of L2) and record the
// per-phase miss ratios. missed, when non-nil, observes every L2 demand
// miss in order: the stream an LLC would see. The result is a pure
// function of (cfg, w, ai).
func privateReplay(cfg Config, w *trace.Workload, ai int, missed func(addr uint64)) ([]phaseMem, error) {
	l1, err := memsim.NewCache("l1", cfg.L1Bytes, cfg.L1Ways, 1)
	if err != nil {
		return nil, err
	}
	l2, err := memsim.NewCache("l2", cfg.L2Bytes, cfg.L2Ways, 1)
	if err != nil {
		return nil, err
	}
	maxPhase := 0
	for pi := range w.Phases {
		if refs := w.Phases[pi].MemRefs(); refs > 0 {
			maxPhase = max(maxPhase, memsim.SampleRefs(refs))
		}
	}
	fill := fillPool.Get().(*[]uint64)
	defer fillPool.Put(fill)
	if cap(*fill) < maxPhase {
		*fill = make([]uint64, maxPhase)
	}

	mem := make([]phaseMem, len(w.Phases))
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
			continue
		}
		seed := memsim.StreamSeed("cpu", w.Benchmark, p.Name, batchStr, slotStr)
		st, err := memsim.NewStream(p, base+uint64(pi)<<32, seed)
		if err != nil {
			return nil, err
		}
		pf := memsim.NewStridePrefetcher(cfg.PrefetchDegree)
		n := memsim.SampleRefs(refs)
		if n == 0 {
			// Explicit guard mirroring gpusim's pa.acc == 0 pattern:
			// today unreachable (refs > 0 implies n >= 1), but the
			// divides below must never see n == 0 even if SampleRefs
			// grows a subsampling mode.
			continue
		}
		batch := (*fill)[:n]
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
			if missed != nil {
				missed(a)
			}
			// Train the stride prefetcher on the L2 demand-miss
			// stream; fills land in L2 ahead of the access.
			for _, pa := range pf.OnMiss(a) {
				l2.Install(0, pa)
			}
		}
		mem[pi].l1Miss = float64(l1m) / float64(n)
		mem[pi].l2Miss = float64(l2m) / float64(n)
	}
	return mem, nil
}

// privFor returns app w's private replay for slot ai: the memoized
// "cpusim/priv" entry, computed on a miss and on every call when memo is
// nil.
func privFor(cfg Config, memo *simcache.Cache, cfgKey string, w *trace.Workload, ai int) ([]phaseMem, error) {
	key := simcache.Key{Domain: memoDomainPriv, Config: cfgKey, Workload: w.Fingerprint(), Slot: ai}
	mem, _, err := simcache.GetOrCompute(memo, key, func() ([]phaseMem, int64, error) {
		mem, err := privateReplay(cfg, w, ai, nil)
		return mem, privEntryBytes + simcache.SliceBytes(mem), err
	})
	return mem, err
}

// simulateMemory returns every app's per-phase memory behaviour: its
// private replay at its slot. Nothing in the memory path is shared between
// co-runners; they meet in runSteady's core and bandwidth apportioning.
func simulateMemory(cfg Config, memo *simcache.Cache, apps []App) ([][]phaseMem, error) {
	cfgKey := configKey(cfg)
	mem := make([][]phaseMem, len(apps))
	for ai := range apps {
		pm, err := privFor(cfg, memo, cfgKey, apps[ai].Workload, ai)
		if err != nil {
			return nil, err
		}
		mem[ai] = pm
	}
	return mem, nil
}
