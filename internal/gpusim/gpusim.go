// Package gpusim models the paper's GPU (Table III: NVIDIA Tesla T4,
// Turing, 2560 CUDA cores across 40 SMs) executing trace.Workloads as
// sequences of SIMT kernels, alone or concurrently under MPS-style spatial
// multiplexing.
//
// The model captures the mechanisms Section II of the paper identifies as
// the sources of multi-application slowdown:
//
//   - SM partitioning: concurrent clients receive disjoint SM subsets, so
//     per-app compute throughput shrinks with the client count;
//   - shared L2: all clients' miss streams interleave into one cache, so
//     footprints evict each other (destructive interference);
//   - shared TLB: translations from different address spaces compete for
//     entries, and client interleaving periodically flushes the TLB;
//   - shared DRAM bandwidth, apportioned by demand;
//   - warp divergence: branchy kernels pay a throughput penalty that grows
//     with their control-instruction fraction — the reason the FAST/ORB
//     style workloads underperform on GPUs in Figure 3;
//   - occupancy: kernels whose exposed parallelism cannot fill the SM
//     partition leave compute lanes idle.
package gpusim

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"

	"mapc/internal/isa"
	"mapc/internal/memsim"
	"mapc/internal/phasesum"
	"mapc/internal/simcache"
	"mapc/internal/trace"
)

// Config describes the simulated GPU. DefaultConfig mirrors the Tesla T4.
type Config struct {
	SMs             int     // streaming multiprocessors
	WarpSize        int     // threads per warp
	MaxThreadsPerSM int     // resident thread capacity per SM
	FreqGHz         float64 // SM clock

	// Throughput is per-SM operations per cycle for each category.
	Throughput [isa.NumCategories]float64

	L2Bytes int64 // device-wide shared L2
	L2Ways  int

	TLBEntries    int     // shared TLB entries (all MPS clients)
	TLBMissCycles float64 // page-walk latency
	// TLBFlushPeriod is the number of references between full TLB
	// flushes when more than one client shares the GPU (MPS context
	// interleaving); 0 disables flushing.
	TLBFlushPeriod int

	L2LatencyCycles float64 // L1/SM miss, L2 hit (beyond pipeline)
	DRAMLatency     float64 // L2 miss, in cycles
	DRAMBandwidth   float64 // bytes/second
	MLP             float64 // overlapped outstanding misses per SM partition

	KernelLaunchCycles float64 // per-phase launch + driver overhead

	// PCIeBandwidth and PCIeLatencySec model the host-to-device transfer
	// of the input batch before the kernels run; the transfer volume
	// comes from the workload's TransferBytes. PCIe bandwidth is shared
	// among concurrent clients by max-min fairness.
	PCIeBandwidth  float64 // bytes/second
	PCIeLatencySec float64 // fixed per-direction setup latency
	// SchedulerOverhead is the extra per-kernel cost factor per
	// additional concurrent client (thread scheduling across apps,
	// Section II issue 5).
	SchedulerOverhead float64

	// DivergencePenalty scales the throughput loss of branchy kernels:
	// effective compute cycles are multiplied by
	// (1 + DivergencePenalty * controlFraction).
	DivergencePenalty float64

	// FullUtilThreads is the resident-thread count needed to saturate one
	// SM's pipelines (latency hiding); occupancy below this scales
	// throughput down.
	FullUtilThreads int

	// PatternCoalescing, when true, scales LSU pressure by each phase's
	// access pattern (sequential warps coalesce into fewer transactions).
	// Off by default: the calibrated LSU throughput already reflects the
	// suite's average coalescing; the explicit model is an opt-in
	// refinement studied by the ablations.
	PatternCoalescing bool
}

// DefaultConfig returns the Tesla-T4-equivalent device.
func DefaultConfig() Config {
	var tput [isa.NumCategories]float64
	tput[isa.SSE] = 64     // FP32 lanes consume packed work directly
	tput[isa.ALU] = 64     // INT32 lanes
	tput[isa.MEM] = 16     // LSU width
	tput[isa.FP] = 64      // FP32 lanes
	tput[isa.Stack] = 16   // local-memory traffic
	tput[isa.String] = 8   // byte-wise ops serialize
	tput[isa.Shift] = 32   // half-rate integer multiply/shift
	tput[isa.Control] = 16 // branch resolution
	return Config{
		SMs:                40,
		WarpSize:           32,
		MaxThreadsPerSM:    1024,
		FreqGHz:            1.59,
		Throughput:         tput,
		L2Bytes:            4 << 20,
		L2Ways:             16,
		TLBEntries:         512,
		TLBMissCycles:      300,
		TLBFlushPeriod:     12000,
		L2LatencyCycles:    160,
		DRAMLatency:        400,
		DRAMBandwidth:      320e9,
		MLP:                24,
		KernelLaunchCycles: 8000,
		PCIeBandwidth:      7e9,
		PCIeLatencySec:     25e-6,
		SchedulerOverhead:  0.06,
		DivergencePenalty:  4.0,
		FullUtilThreads:    128,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.SMs <= 0 || c.WarpSize <= 0 || c.MaxThreadsPerSM <= 0:
		return errors.New("gpusim: SM geometry must be positive")
	case c.FreqGHz <= 0:
		return errors.New("gpusim: frequency must be positive")
	case c.L2Bytes <= 0:
		return errors.New("gpusim: L2 capacity must be positive")
	case c.TLBEntries <= 0:
		return errors.New("gpusim: TLB entries must be positive")
	case c.DRAMBandwidth <= 0:
		return errors.New("gpusim: DRAM bandwidth must be positive")
	case c.PCIeBandwidth <= 0:
		return errors.New("gpusim: PCIe bandwidth must be positive")
	case c.PCIeLatencySec < 0:
		return errors.New("gpusim: PCIe latency must be non-negative")
	case c.MLP <= 0:
		return errors.New("gpusim: MLP must be positive")
	case c.FullUtilThreads <= 0:
		return errors.New("gpusim: FullUtilThreads must be positive")
	}
	for cat, t := range c.Throughput {
		if t <= 0 {
			return fmt.Errorf("gpusim: throughput for %v must be positive", isa.Category(cat))
		}
	}
	return nil
}

// Result reports one application's simulated GPU execution.
type Result struct {
	TimeSec      float64
	Cycles       float64
	Instructions uint64
	// IPC is aggregate instructions per device cycle.
	IPC float64
	// L2MissRate is the app's L2 miss ratio.
	L2MissRate float64
	// TLBMissRate is the app's TLB miss ratio.
	TLBMissRate float64
	// SMShare is the number of SMs the app's MPS partition received.
	SMShare float64
}

// Performance returns 1/time, the paper's definition of performance.
func (r Result) Performance() float64 {
	if r.TimeSec <= 0 {
		return 0
	}
	return 1 / r.TimeSec
}

type phaseMem struct {
	l2Miss  float64 // per reference
	tlbMiss float64 // per reference
}

// RunMemo simulates apps launched together under MPS at exact fidelity with
// the default equal SM split, and returns each app's completion time. It is
// RunMemoSharesFidelity at phasesum.Exact with nil shares. A single-element
// slice is an isolated run.
func RunMemo(cfg Config, memo *simcache.Cache, workloads []*trace.Workload) ([]Result, error) {
	res, _, err := RunMemoSharesFidelity(cfg, memo, workloads, nil, phasesum.Exact)
	return res, err
}

// RunMemoSharesFidelity is the simulator's tiered entry: the co-run of
// workloads with SM partition shares at fidelity fid, memoized in memo.
// The execution is phased (phasesum.Run): all clients contend while
// co-resident, and as each one finishes, the survivors are re-simulated
// with the smaller client set (more SMs, less cache/TLB/bandwidth
// interference). Exact fidelity (and every single-client run)
// evaluates each step with runSteady, the reference every analytic
// estimate is scored against; fast uses runSteadyAnalytic, whose
// confidence falls with extreme share skew and drops to zero for demand
// far past the device bandwidth. The returned RunKind reports which
// simulator answered and the model's confidence.
//
// shares[i] is client i's relative weight of the SM pool (an MPS
// active-thread percentage). Shares are normalized internally, so {1,1} and
// {50,50} are the same split. A nil shares slice selects the default equal
// MPS split — the equal path evaluates the exact legacy SMs/n expression.
// When a client finishes, the survivors keep their relative weights over
// the freed partition (renormalized over the active set), mirroring how the
// equal split re-divides among survivors.
//
// memo caches the pure prefixes of the memory simulation — the
// materialized per-slot reference streams of exact multi-client co-runs
// ("gpusim/stream", config-independent) and entire single-client
// simulations ("gpusim/iso") — so repeated runs over the same workloads
// replay only the genuinely shared TLB/L2 interleave. A single-client run
// publishes no stream: it replays its one stream from pooled scratch, so
// only a co-run's streams, which later co-runs re-read, take memo space.
// Outputs are bit-identical at every memo budget,
// including nil, which runs the same lookups and retains nothing: cached
// values are exactly what their compute functions return, and entries are
// immutable once published.
//
// Read-only contract: no tier mutates the workloads — they may be shared
// across concurrent calls and reused afterwards without cloning.
// TestRunTreatsWorkloadsAsReadOnly enforces this with a full-field
// fingerprint before/after.
func RunMemoSharesFidelity(cfg Config, memo *simcache.Cache, workloads []*trace.Workload, shares []float64, fid phasesum.Fidelity) ([]Result, phasesum.RunKind, error) {
	if err := validateRun(cfg, workloads, shares); err != nil {
		return nil, phasesum.RunKind{}, err
	}
	sub := func(active []int) ([]*trace.Workload, []float64) {
		ws := make([]*trace.Workload, len(active))
		var ss []float64
		if shares != nil {
			ss = make([]float64, len(active))
		}
		for k, ai := range active {
			ws[k] = workloads[ai]
			if shares != nil {
				ss[k] = shares[ai]
			}
		}
		return ws, ss
	}
	return phasesum.Run(fid, phasesum.CoRun[Result]{
		N: len(workloads),
		Exact: func(active []int) ([]Result, error) {
			ws, ss := sub(active)
			return runSteady(cfg, memo, ws, ss)
		},
		Analytic: func(active []int) ([]Result, float64, error) {
			ws, ss := sub(active)
			return runSteadyAnalytic(cfg, memo, ws, ss)
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

// validateRun checks the configuration, the workloads and the optional
// partition shares before any simulation work starts.
func validateRun(cfg Config, workloads []*trace.Workload, shares []float64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(workloads) == 0 {
		return errors.New("gpusim: no workloads")
	}
	for i, w := range workloads {
		if w == nil {
			return fmt.Errorf("gpusim: workload %d is nil", i)
		}
		if err := w.Validate(); err != nil {
			return fmt.Errorf("gpusim: workload %d: %w", i, err)
		}
	}
	if shares != nil {
		if len(shares) != len(workloads) {
			return fmt.Errorf("gpusim: %d partition shares for %d workloads", len(shares), len(workloads))
		}
		for i, s := range shares {
			if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
				return fmt.Errorf("gpusim: partition share %d is %v; shares are positive finite weights", i, s)
			}
		}
	}
	return nil
}

// runSteady computes per-app execution times assuming the full client set
// stays resident for the whole run. A nil shares slice is the equal MPS
// split (the exact legacy SMs/n computation); otherwise each client gets
// SMs scaled by its normalized weight.
func runSteady(cfg Config, memo *simcache.Cache, workloads []*trace.Workload, shares []float64) ([]Result, error) {
	mem, l2Stats, tlbStats, err := simulateMemory(cfg, memo, workloads)
	if err != nil {
		return nil, err
	}
	l2Rates := make([]float64, len(workloads))
	tlbRates := make([]float64, len(workloads))
	for i := range workloads {
		l2Rates[i] = l2Stats[i].MissRate()
		tlbRates[i] = tlbStats[i].MissRate()
	}
	return steadyFromMem(cfg, workloads, shares, mem, l2Rates, tlbRates), nil
}

// steadyFromMem is the timing tail of runSteady: SM partitioning, PCIe
// sharing, the two-pass bandwidth apportioning, and result assembly, given
// the per-phase memory behaviour (exact or analytic) and the per-app
// L2/TLB miss ratios to report. Shared by the exact and analytic steady
// evaluators.
func steadyFromMem(cfg Config, workloads []*trace.Workload, shares []float64, mem [][]phaseMem, l2Rates, tlbRates []float64) []Result {
	n := len(workloads)
	smShares := smSharesOf(cfg, n, shares)

	prelim := make([]float64, n)
	traffic := make([]float64, n)
	for i, w := range workloads {
		prelim[i], traffic[i] = appCycles(cfg, w, mem[i], smShares[i], n, 0, nil)
	}
	// PCIe: each client first ships its input batch; concurrent clients
	// split the link evenly while their transfers overlap.
	transferring := 0
	for _, w := range workloads {
		if w.TransferBytes > 0 {
			transferring++
		}
	}
	pcieShare := cfg.PCIeBandwidth
	if transferring > 1 {
		pcieShare /= float64(transferring)
	}

	share := memsim.BandwidthShares(cfg.DRAMBandwidth, cfg.FreqGHz, prelim, traffic)
	results := make([]Result, n)
	for i, w := range workloads {
		cycles, _ := appCycles(cfg, w, mem[i], smShares[i], n, share[i], nil)
		if w.TransferBytes > 0 {
			xfer := cfg.PCIeLatencySec + float64(w.TransferBytes)/pcieShare
			cycles += xfer * cfg.FreqGHz * 1e9
		}
		results[i] = Result{
			TimeSec:      cycles / (cfg.FreqGHz * 1e9),
			Cycles:       cycles,
			Instructions: w.Instructions(),
			L2MissRate:   l2Rates[i],
			TLBMissRate:  tlbRates[i],
			SMShare:      smShares[i],
		}
		if cycles > 0 {
			results[i].IPC = float64(w.Instructions()) / cycles
		}
	}
	return results
}

// smSharesOf is the MPS spatial partitioning: the exact legacy SMs/n
// equal split for nil shares, SMs scaled by normalized weights otherwise.
func smSharesOf(cfg Config, n int, shares []float64) []float64 {
	out := make([]float64, n)
	if shares == nil {
		equal := float64(cfg.SMs) / float64(n)
		for i := range out {
			out[i] = equal
		}
		return out
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	for i, s := range shares {
		out[i] = float64(cfg.SMs) * (s / sum)
	}
	return out
}

// BagTime returns the makespan of a concurrent run: the paper's prediction
// target for a bag of tasks.
func BagTime(results []Result) float64 {
	var max float64
	for _, r := range results {
		if r.TimeSec > max {
			max = r.TimeSec
		}
	}
	return max
}

// PhaseTiming reports one kernel's simulated timing decomposition.
type PhaseTiming struct {
	Name          string
	ComputeCycles float64 // pipe-roofline bound including divergence
	StallCycles   float64 // memory-latency bound
	TotalCycles   float64 // binding bound plus scheduling tax and launch
	Occupancy     float64
	L2MissRate    float64
	TLBMissRate   float64
}

// PhaseBreakdown retraces one client of an exact equal-split co-run and
// returns its per-kernel timing decomposition — the explainability hook
// used by the examples and ablation benches. workloads must match the run
// being explained; client selects the member to decompose.
func PhaseBreakdown(cfg Config, workloads []*trace.Workload, client int) ([]PhaseTiming, error) {
	if err := validateRun(cfg, workloads, nil); err != nil {
		return nil, err
	}
	if client < 0 || client >= len(workloads) {
		return nil, fmt.Errorf("gpusim: client %d out of range", client)
	}
	mem, _, _, err := simulateMemory(cfg, nil, workloads)
	if err != nil {
		return nil, err
	}
	smShare := float64(cfg.SMs) / float64(len(workloads))
	var out []PhaseTiming
	appCycles(cfg, workloads[client], mem[client], smShare, len(workloads), 0, &out)
	return out, nil
}

// appCycles times one app's kernels on its SM partition and returns its
// cycles and DRAM traffic in bytes. bwShare, when positive, bounds each
// kernel by the app's bandwidth allocation; timings, when non-nil, receives
// each kernel's decomposition.
func appCycles(cfg Config, w *trace.Workload, mem []phaseMem, smShare float64, clients int, bwShare float64, timings *[]PhaseTiming) (float64, float64) {
	var cycles, bytes float64
	schedTax := 1 + cfg.SchedulerOverhead*float64(clients-1)
	for pi := range w.Phases {
		p := &w.Phases[pi]
		m := mem[pi]

		// Occupancy: threads resident on the partition vs. what latency
		// hiding needs.
		maxResident := smShare * float64(cfg.MaxThreadsPerSM)
		threads := float64(p.Parallelism)
		if threads > maxResident {
			threads = maxResident
		}
		occupancy := threads / (smShare * float64(cfg.FullUtilThreads))
		if occupancy > 1 {
			occupancy = 1
		}
		if occupancy <= 0 {
			occupancy = 1e-6
		}

		// Compute bound: per-category pipe roofline on the partition.
		var portMax float64
		var totalOps float64
		for cat := isa.Category(0); cat < isa.NumCategories; cat++ {
			nOps := float64(p.Counts[cat])
			totalOps += nOps
			if cat == isa.MEM && cfg.PatternCoalescing {
				// Coalescing: warps accessing consecutive addresses
				// issue one transaction per several threads.
				nOps /= coalesceFactor(p.Pattern)
			}
			if c := nOps / (cfg.Throughput[cat] * smShare * occupancy); c > portMax {
				portMax = c
			}
		}
		// Divergence: branch-heavy kernels serialize warp lanes.
		ctrlFrac := 0.0
		if totalOps > 0 {
			ctrlFrac = float64(p.Counts[isa.Control]) / totalOps
		}
		compute := portMax * (1 + cfg.DivergencePenalty*ctrlFrac)

		// Memory bound: L2/TLB/DRAM latency, overlapped by MLP across
		// the partition's warps.
		// MLP scales with the partition size: fewer SMs sustain fewer
		// outstanding misses.
		refs := float64(p.MemRefs())
		if cfg.PatternCoalescing {
			// Coalesced warps issue fewer memory transactions, so the
			// latency-bound path sees proportionally fewer stalls.
			refs /= coalesceFactor(p.Pattern)
		}
		stall := refs * (m.l2Miss*cfg.DRAMLatency +
			(1-m.l2Miss)*cfg.L2LatencyCycles*0.25 + // L2 hits partially hidden
			m.tlbMiss*cfg.TLBMissCycles) / (cfg.MLP * smShare)
		stall /= occupancyScale(occupancy)

		phaseCycles := compute
		if stall > phaseCycles {
			phaseCycles = stall // latency-bound kernel
		}
		phaseCycles = phaseCycles*schedTax + cfg.KernelLaunchCycles*float64(p.LaunchCount())

		phaseBytes := refs * m.l2Miss * memsim.LineSize
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
				Name:          p.Name,
				ComputeCycles: compute,
				StallCycles:   stall,
				TotalCycles:   phaseCycles,
				Occupancy:     occupancy,
				L2MissRate:    m.l2Miss,
				TLBMissRate:   m.tlbMiss,
			})
		}
	}
	return cycles, bytes
}

// coalesceFactor returns how many same-warp accesses merge into one memory
// transaction for each access pattern.
func coalesceFactor(pat trace.Pattern) float64 {
	switch pat {
	case trace.Sequential:
		return 8 // a 64B line serves eight 8B lanes
	case trace.Windowed:
		return 4
	case trace.Strided:
		return 2
	default:
		return 1 // scattered accesses do not coalesce
	}
}

// occupancyScale converts occupancy into latency-hiding ability: fully
// occupied SMs overlap misses well; sparse kernels expose raw latency.
func occupancyScale(occ float64) float64 {
	if occ > 1 {
		return 1
	}
	if occ < 0.02 {
		return 0.02
	}
	return occ
}

// Memo key domains (simcache.Key.Domain) for the two cached prefixes.
const (
	memoDomainStream = "gpusim/stream" // materialized per-slot reference stream
	memoDomainIso    = "gpusim/iso"    // entire single-client memory simulation
)

// configKey renders cfg exactly for memo keys: two configurations share a
// cache entry only when every field of the simulated device is identical.
func configKey(cfg Config) string { return fmt.Sprintf("%+v", cfg) }

// streamEntry is the memoized reference stream of one (workload, slot):
// the sampled addresses of every phase, phase-contiguous, with ends[pi]
// the first index past phase pi. Stream generation is a pure function of
// the workload and the slot alone — seeds hash (benchmark, phase, batch,
// slot) and the address-space base is slot-derived — so stream entries are
// keyed with an empty Config and shared across device configurations.
// Cached entries are immutable: the interleave only reads them.
type streamEntry struct {
	addrs []uint64
	ends  []int
}

// Fixed per-entry allowances on top of the backing arrays an entry's
// bytes() counts: the value's own slice headers plus the memo's key, map
// cell and list links.
const (
	streamEntryBytes = 64
	isoEntryBytes    = 128
)

// bytes reports the entry's approximate resident size for LRU accounting.
func (se streamEntry) bytes() int64 {
	return streamEntryBytes + simcache.SliceBytes(se.addrs) + simcache.SliceBytes(se.ends)
}

// isoResult is the memoized outcome of a whole single-client simulateMemory
// call: with one client the TLB never flushes (n > 1 gate) and nothing is
// shared, so the per-phase miss behaviour and L2/TLB statistics are pure
// in (cfg, workload). Immutable.
type isoResult struct {
	mem      [][]phaseMem
	l2Stats  []memsim.CacheStats
	tlbStats []memsim.CacheStats
}

func (ir isoResult) bytes() int64 {
	n := isoEntryBytes + simcache.SliceBytes(ir.mem) + simcache.SliceBytes(ir.l2Stats) + simcache.SliceBytes(ir.tlbStats)
	for _, m := range ir.mem {
		n += simcache.SliceBytes(m)
	}
	return n
}

// sampleCount is the exact length of w's sampled reference stream: the sum
// of every memory phase's SampleRefs.
func sampleCount(w *trace.Workload) int {
	count := 0
	for pi := range w.Phases {
		if refs := w.Phases[pi].MemRefs(); refs > 0 {
			count += memsim.SampleRefs(refs)
		}
	}
	return count
}

// materializeStream fills addrs (length = the workload's exact sample
// count) with every phase's sampled reference stream and returns the
// phase-contiguous streamEntry over it. Pure in (w, ai).
func materializeStream(w *trace.Workload, ai int, addrs []uint64) (streamEntry, error) {
	base := uint64(ai+1) << 40
	// Seed strings are per-slot constants; strconv.Itoa produces exactly
	// the bytes fmt.Sprint emitted here before, without the interface
	// boxing per phase.
	batchStr := strconv.Itoa(w.BatchSize)
	slotStr := strconv.Itoa(ai)
	ends := make([]int, len(w.Phases))
	pos := 0
	for pi := range w.Phases {
		p := &w.Phases[pi]
		refs := p.MemRefs()
		if refs == 0 {
			ends[pi] = pos
			continue
		}
		seed := memsim.StreamSeed("gpu", w.Benchmark, p.Name, batchStr, slotStr)
		st, err := memsim.NewStream(p, base+uint64(pi)<<32, seed)
		if err != nil {
			return streamEntry{}, err
		}
		k := memsim.SampleRefs(refs)
		st.Fill(addrs[pos : pos+k])
		pos += k
		ends[pi] = pos
	}
	return streamEntry{addrs: addrs[:pos], ends: ends}, nil
}

// scratchPool holds the transient stream copies of withScratchStream.
// Pooled because corpus generation and serve materialize thousands of
// single-use streams, potentially from concurrent measurement workers.
var scratchPool = sync.Pool{New: func() any { return new([]uint64) }}

// withScratchStream materializes client w's stream for slot ai into a
// pooled scratch arena, hands it to use, and returns the arena to the pool.
// For streams read exactly once: publishing them to the "gpusim/stream"
// memo (8 bytes per sampled reference) would only crowd out entries that
// are read again. use must not retain se.addrs past its return.
func withScratchStream(w *trace.Workload, ai int, use func(se streamEntry) error) error {
	buf := scratchPool.Get().(*[]uint64)
	defer scratchPool.Put(buf)
	n := sampleCount(w)
	if cap(*buf) < n {
		*buf = make([]uint64, n)
	}
	se, err := materializeStream(w, ai, (*buf)[:n])
	if err != nil {
		return err
	}
	return use(se)
}

// simulateMemory interleaves every client's sampled reference stream into
// the shared L2 and shared TLB, with periodic TLB flushes when more than
// one client is resident.
//
// Single-client calls are one "gpusim/iso" lookup whose miss replays the
// lone stream from pooled scratch and publishes no stream: serve and the
// fast tier never read it again, and an exact co-run that needs the same
// slot-0 stream generates and publishes its own. Multi-client calls look
// up each client's memoized stream (each phase generated through one
// batched Stream.Fill into an exact-capacity slice) and replay only the
// genuinely shared TLB/L2 interleave. A nil memo runs the same lookups,
// each computing its value and retaining nothing.
func simulateMemory(cfg Config, memo *simcache.Cache, workloads []*trace.Workload) ([][]phaseMem, []memsim.CacheStats, []memsim.CacheStats, error) {
	if len(workloads) != 1 {
		return simulateMemoryShared(cfg, memo, workloads)
	}
	key := simcache.Key{Domain: memoDomainIso, Config: configKey(cfg), Workload: workloads[0].Fingerprint()}
	ir, _, err := simcache.GetOrCompute(memo, key, func() (isoResult, int64, error) {
		// interleave's outputs are fresh per-phase ratios and counters, so
		// the published isoResult never aliases the scratch arena.
		var ir isoResult
		err := withScratchStream(workloads[0], 0, func(se streamEntry) error {
			var err error
			ir.mem, ir.l2Stats, ir.tlbStats, err = interleave(cfg, workloads, []streamEntry{se})
			return err
		})
		return ir, ir.bytes(), err
	})
	return ir.mem, ir.l2Stats, ir.tlbStats, err
}

// simulateMemoryShared is the multi-client memory simulation: each
// client's "gpusim/stream" lookup followed by the shared TLB/L2 interleave.
func simulateMemoryShared(cfg Config, memo *simcache.Cache, workloads []*trace.Workload) ([][]phaseMem, []memsim.CacheStats, []memsim.CacheStats, error) {
	entries := make([]streamEntry, len(workloads))
	for ai, w := range workloads {
		key := simcache.Key{Domain: memoDomainStream, Workload: w.Fingerprint(), Slot: ai}
		se, _, err := simcache.GetOrCompute(memo, key, func() (streamEntry, int64, error) {
			se, err := materializeStream(w, ai, make([]uint64, sampleCount(w)))
			return se, se.bytes(), err
		})
		if err != nil {
			return nil, nil, nil, err
		}
		entries[ai] = se
	}
	return interleave(cfg, workloads, entries)
}

// interleave replays the clients' materialized streams (entries[ai] is
// client ai's) through the shared TLB and shared L2. It only reads the
// entries, and its outputs share no memory with them.
func interleave(cfg Config, workloads []*trace.Workload, entries []streamEntry) ([][]phaseMem, []memsim.CacheStats, []memsim.CacheStats, error) {
	n := len(workloads)
	l2, err := memsim.NewCache("gpul2", cfg.L2Bytes, cfg.L2Ways, n)
	if err != nil {
		return nil, nil, nil, err
	}
	tlb, err := memsim.NewTLB(cfg.TLBEntries, n)
	if err != nil {
		return nil, nil, nil, err
	}

	mem := make([][]phaseMem, n)
	streams := make([][]uint64, n)
	ends := make([][]int, n)
	for ai, w := range workloads {
		mem[ai] = make([]phaseMem, len(w.Phases))
		streams[ai], ends[ai] = entries[ai].addrs, entries[ai].ends
	}

	// Interleave all clients proportionally; every reference consults the
	// shared TLB then the shared L2. Phase attribution follows the cursor
	// through the phase-contiguous stream (ends[ai][p] is the first index
	// past phase p), replacing the per-reference phase tag.
	idx := make([]int, n)
	ph := make([]int, n)
	maxLen := 0
	for ai := range streams {
		if len(streams[ai]) > maxLen {
			maxLen = len(streams[ai])
		}
	}
	phaseAcc := make([][]struct{ acc, l2m, tlbm uint64 }, n)
	for ai, w := range workloads {
		phaseAcc[ai] = make([]struct{ acc, l2m, tlbm uint64 }, len(w.Phases))
	}
	// Each client issues quota(step) = floor(len*(step+1)/maxLen) -
	// floor(len*step/maxLen) references per step; len <= maxLen makes that
	// 0 or 1, so a Bresenham error accumulator replays the identical
	// schedule without two integer divisions per client per step. The TLB
	// flush on every TLBFlushPeriod-th issued reference likewise becomes a
	// countdown instead of a modulo. Both are pinned bit-identical by the
	// golden corpus hashes and the memo on/off differential tests.
	er := make([]int, n)
	flushEvery := n > 1 && cfg.TLBFlushPeriod > 0
	flushIn := cfg.TLBFlushPeriod
	for step := 0; step < maxLen; step++ {
		for ai := range streams {
			er[ai] += len(streams[ai])
			if er[ai] >= maxLen {
				er[ai] -= maxLen
				for idx[ai] >= ends[ai][ph[ai]] {
					ph[ai]++
				}
				addr := streams[ai][idx[ai]]
				idx[ai]++
				if flushEvery {
					flushIn--
					if flushIn == 0 {
						tlb.Flush()
						flushIn = cfg.TLBFlushPeriod
					}
				}
				pa := &phaseAcc[ai][ph[ai]]
				pa.acc++
				if !tlb.Access(ai, addr) {
					pa.tlbm++
				}
				if !l2.Access(ai, addr) {
					pa.l2m++
				}
			}
		}
	}

	for ai, w := range workloads {
		for pi := range w.Phases {
			pa := phaseAcc[ai][pi]
			if pa.acc == 0 {
				continue
			}
			mem[ai][pi].l2Miss = float64(pa.l2m) / float64(pa.acc)
			mem[ai][pi].tlbMiss = float64(pa.tlbm) / float64(pa.acc)
		}
	}

	l2Stats := make([]memsim.CacheStats, n)
	tlbStats := make([]memsim.CacheStats, n)
	for ai := 0; ai < n; ai++ {
		l2Stats[ai] = l2.Stats(ai)
		tlbStats[ai] = tlb.Stats(ai)
	}
	return mem, l2Stats, tlbStats, nil
}
