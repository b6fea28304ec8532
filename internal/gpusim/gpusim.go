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
	// DRAMBytes is total memory traffic.
	DRAMBytes float64
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

// Run simulates apps launched together under MPS and returns each app's
// completion time. The execution is *phased*: all clients contend while
// co-resident, and as each one finishes, the survivors are re-simulated with
// the smaller client set (more SMs, less cache/TLB/bandwidth interference).
// This matches real MPS behaviour, where a short job's exit releases its SM
// partition to the remaining clients. A single-element slice is an isolated
// run.
//
// Read-only contract: Run (and RunMemo) never mutate the workloads — they
// may be shared across concurrent calls and reused afterwards without
// cloning. TestRunTreatsWorkloadsAsReadOnly enforces this with a
// full-field fingerprint before/after.
func Run(cfg Config, workloads []*trace.Workload) ([]Result, error) {
	return RunMemo(cfg, nil, workloads)
}

// RunMemo is Run with a cross-call simulation memo. A non-nil memo caches
// the pure prefixes of the memory simulation — the materialized per-slot
// reference streams ("gpusim/stream", config-independent) and entire
// single-client simulations ("gpusim/iso") — so repeated runs over the
// same workloads replay only the genuinely shared TLB/L2 interleave.
// Outputs are bit-identical to Run at every memo budget, including nil:
// cached values are exactly the bytes the cold path produces, and entries
// are immutable once published.
func RunMemo(cfg Config, memo *simcache.Cache, workloads []*trace.Workload) ([]Result, error) {
	return RunMemoShares(cfg, memo, workloads, nil)
}

// RunMemoShares is RunMemo with asymmetric SM partition shares: shares[i]
// is client i's relative weight of the SM pool (an MPS active-thread
// percentage). Shares are normalized internally, so {1,1} and {50,50} are
// the same split. A nil shares slice selects the default equal MPS split
// and is bit-identical to RunMemo — the equal path evaluates the exact
// legacy SMs/n expression. When a client finishes, the survivors keep
// their relative weights over the freed partition (renormalized over the
// active set), mirroring how the equal split re-divides among survivors.
func RunMemoShares(cfg Config, memo *simcache.Cache, workloads []*trace.Workload, shares []float64) ([]Result, error) {
	if err := validateRun(cfg, workloads, shares); err != nil {
		return nil, err
	}
	return runPhased(cfg, workloads, shares, func(sub []*trace.Workload, subShares []float64) ([]Result, error) {
		return runSteady(cfg, memo, sub, subShares)
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

// runPhased executes the phased completion schedule over steady-state
// rates: progress every active client proportionally to its current rate;
// when the earliest finisher completes, re-evaluate the survivors (with
// their shares renormalized over the active set) as a smaller client set.
// Shared by the exact path (RunMemoShares) and the analytic fidelity tier
// (RunMemoSharesFidelity) — same schedule, different steady evaluators.
func runPhased(cfg Config, workloads []*trace.Workload, shares []float64, steadyFn func(sub []*trace.Workload, subShares []float64) ([]Result, error)) ([]Result, error) {
	// Steady-state results for the full client set: the per-app rates and
	// statistics while everyone is resident.
	steady, err := steadyFn(workloads, shares)
	if err != nil {
		return nil, err
	}
	if len(workloads) == 1 {
		return steady, nil
	}

	// Phased schedule: progress every active app proportionally to its
	// current steady-state rate; when the earliest finisher completes,
	// re-evaluate the survivors as a smaller client set.
	n := len(workloads)
	remaining := make([]float64, n) // fraction of work left
	finish := make([]float64, n)    // completion time (seconds)
	active := make([]int, n)
	for i := range active {
		active[i] = i
		remaining[i] = 1
	}
	cur := steady
	var clock float64
	for len(active) > 0 {
		// Earliest completion among active apps at current rates.
		best := -1
		bestDT := 0.0
		for k, ai := range active {
			dt := remaining[ai] * cur[k].TimeSec
			if best < 0 || dt < bestDT {
				best, bestDT = k, dt
			}
		}
		for k, ai := range active {
			if cur[k].TimeSec > 0 {
				remaining[ai] -= bestDT / cur[k].TimeSec
			} else {
				remaining[ai] = 0
			}
		}
		clock += bestDT
		done := active[best]
		finish[done] = clock
		remaining[done] = 0
		active = append(active[:best], active[best+1:]...)
		if len(active) == 0 {
			break
		}
		sub := make([]*trace.Workload, len(active))
		var subShares []float64
		if shares != nil {
			subShares = make([]float64, len(active))
		}
		for k, ai := range active {
			sub[k] = workloads[ai]
			if shares != nil {
				subShares[k] = shares[ai]
			}
		}
		cur, err = steadyFn(sub, subShares)
		if err != nil {
			return nil, err
		}
	}

	// Report: completion times from the phased schedule; rates and memory
	// statistics from the full-contention period (the shared-run counters
	// a profiler attached to the co-run window would read).
	out := make([]Result, n)
	for i := range workloads {
		out[i] = steady[i]
		out[i].TimeSec = finish[i]
		out[i].Cycles = finish[i] * cfg.FreqGHz * 1e9
		if out[i].Cycles > 0 {
			out[i].IPC = float64(out[i].Instructions) / out[i].Cycles
		}
	}
	return out, nil
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
	smShares := make([]float64, n) // MPS spatial partitioning
	if shares == nil {
		equal := float64(cfg.SMs) / float64(n)
		for i := range smShares {
			smShares[i] = equal
		}
	} else {
		var sum float64
		for _, s := range shares {
			sum += s
		}
		for i, s := range shares {
			smShares[i] = float64(cfg.SMs) * (s / sum)
		}
	}

	results := make([]Result, n)
	traffic := make([]float64, n)
	for i, w := range workloads {
		cycles, bytes := appCycles(cfg, w, mem[i], smShares[i], n, 0)
		results[i].Cycles = cycles
		traffic[i] = bytes
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

	share := bandwidthShares(cfg, results, traffic)
	for i, w := range workloads {
		cycles, bytes := appCycles(cfg, w, mem[i], smShares[i], n, share[i])
		if w.TransferBytes > 0 {
			xfer := cfg.PCIeLatencySec + float64(w.TransferBytes)/pcieShare
			cycles += xfer * cfg.FreqGHz * 1e9
		}
		results[i] = Result{
			TimeSec:      cycles / (cfg.FreqGHz * 1e9),
			Cycles:       cycles,
			Instructions: w.Instructions(),
			DRAMBytes:    bytes,
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

// bandwidthShares apportions device DRAM bandwidth among MPS clients with
// max-min fairness (see memsim.Waterfill).
func bandwidthShares(cfg Config, prelim []Result, traffic []float64) []float64 {
	demand := make([]float64, len(prelim))
	for i := range prelim {
		t := prelim[i].Cycles / (cfg.FreqGHz * 1e9)
		if t > 0 {
			demand[i] = traffic[i] / t
		}
	}
	return memsim.Waterfill(cfg.DRAMBandwidth, demand)
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

// PhaseBreakdown retraces one client of a Run configuration and returns its
// per-kernel timing decomposition — the explainability hook used by the
// examples and ablation benches. workloads must match the Run call being
// explained; client selects the member to decompose.
func PhaseBreakdown(cfg Config, workloads []*trace.Workload, client int) ([]PhaseTiming, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if client < 0 || client >= len(workloads) {
		return nil, fmt.Errorf("gpusim: client %d out of range", client)
	}
	for i, w := range workloads {
		if w == nil {
			return nil, fmt.Errorf("gpusim: workload %d is nil", i)
		}
		if err := w.Validate(); err != nil {
			return nil, fmt.Errorf("gpusim: workload %d: %w", i, err)
		}
	}
	mem, _, _, err := simulateMemory(cfg, nil, workloads)
	if err != nil {
		return nil, err
	}
	smShare := float64(cfg.SMs) / float64(len(workloads))
	var out []PhaseTiming
	appCyclesTraced(cfg, workloads[client], mem[client], smShare, len(workloads), 0, &out)
	return out, nil
}

// appCycles times one app's kernels on its SM partition.
func appCycles(cfg Config, w *trace.Workload, mem []phaseMem, smShare float64, clients int, bwShare float64) (float64, float64) {
	return appCyclesTraced(cfg, w, mem, smShare, clients, bwShare, nil)
}

func appCyclesTraced(cfg Config, w *trace.Workload, mem []phaseMem, smShare float64, clients int, bwShare float64, timings *[]PhaseTiming) (float64, float64) {
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

// simScratch holds a reusable stream arena: simulateMemory's cold path
// partitions it among all clients' sampled reference addresses by exact
// precomputed size, and the fast tier's summarizeStream sketches one
// client's stream in it. Pooled because corpus generation makes thousands
// of such calls, potentially from concurrent measurement workers.
type simScratch struct {
	addrs []uint64
}

// grow sizes the arena, reusing prior capacity, and returns it with length
// total.
func (s *simScratch) grow(total int) []uint64 {
	if cap(s.addrs) < total {
		s.addrs = make([]uint64, total)
	}
	return s.addrs[:cap(s.addrs)][:total]
}

var scratchPool = sync.Pool{New: func() any { return new(simScratch) }}

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

// bytes reports the entry's approximate resident size for LRU accounting.
func (se streamEntry) bytes() int64 {
	return int64(cap(se.addrs))*8 + int64(len(se.ends))*8 + 64
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
	var n int64 = 128
	for _, m := range ir.mem {
		n += int64(len(m)) * 16
	}
	n += int64(len(ir.l2Stats)+len(ir.tlbStats)) * 16
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

// simulateMemory interleaves every client's sampled reference stream into
// the shared L2 and shared TLB, with periodic TLB flushes when more than
// one client is resident.
//
// The hot path is allocation-free: per-client sample counts are exact
// functions of the workload (SampleRefs is pure), so the stream arena is
// sized once up front from a pooled scratch buffer and each phase's
// references are generated through one batched Stream.Fill directly into
// its arena segment.
//
// With a non-nil memo, single-client calls are answered entirely from the
// isolated-run memo and multi-client calls reuse memoized streams,
// replaying only the genuinely shared TLB/L2 interleave. Outputs are
// bit-identical to the cold path at every budget.
func simulateMemory(cfg Config, memo *simcache.Cache, workloads []*trace.Workload) ([][]phaseMem, []memsim.CacheStats, []memsim.CacheStats, error) {
	if memo != nil && len(workloads) == 1 {
		key := simcache.Key{
			Domain:   memoDomainIso,
			Config:   configKey(cfg),
			Workload: workloads[0].Fingerprint(),
			Slot:     0,
		}
		v, _, err := memo.GetOrCompute(key, func() (any, int64, error) {
			mem, l2s, tlbs, err := simulateMemoryShared(cfg, memo, workloads)
			if err != nil {
				return nil, 0, err
			}
			ir := isoResult{mem: mem, l2Stats: l2s, tlbStats: tlbs}
			return ir, ir.bytes(), nil
		})
		if err != nil {
			return nil, nil, nil, err
		}
		ir := v.(isoResult)
		return ir.mem, ir.l2Stats, ir.tlbStats, nil
	}
	return simulateMemoryShared(cfg, memo, workloads)
}

// simulateMemoryShared is the full memory simulation: stream
// materialization (memo hits or cold fills) followed by the shared TLB/L2
// interleave.
func simulateMemoryShared(cfg Config, memo *simcache.Cache, workloads []*trace.Workload) ([][]phaseMem, []memsim.CacheStats, []memsim.CacheStats, error) {
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
	counts := make([]int, n)
	total := 0
	for ai, w := range workloads {
		mem[ai] = make([]phaseMem, len(w.Phases))
		counts[ai] = sampleCount(w)
		total += counts[ai]
	}

	// Pooled arena, acquired lazily: an all-hit memoized run never touches
	// it.
	var scratch *simScratch
	var arena []uint64
	defer func() {
		if scratch != nil {
			scratchPool.Put(scratch)
		}
	}()
	off := 0
	streams := make([][]uint64, n)
	ends := make([][]int, n)
	for ai, w := range workloads {
		if memo != nil {
			w, ai := w, ai // capture per-iteration for the compute closure
			key := simcache.Key{Domain: memoDomainStream, Workload: w.Fingerprint(), Slot: ai}
			v, _, err := memo.GetOrCompute(key, func() (any, int64, error) {
				// Exact-capacity heap slice: the entry outlives this
				// call, so it cannot live in the pooled arena.
				se, err := materializeStream(w, ai, make([]uint64, counts[ai]))
				if err != nil {
					return nil, 0, err
				}
				return se, se.bytes(), nil
			})
			if err != nil {
				return nil, nil, nil, err
			}
			se := v.(streamEntry)
			streams[ai], ends[ai] = se.addrs, se.ends
			continue
		}
		if scratch == nil {
			scratch = scratchPool.Get().(*simScratch)
			arena = scratch.grow(total)
		}
		se, err := materializeStream(w, ai, arena[off:off+counts[ai]])
		if err != nil {
			return nil, nil, nil, err
		}
		off += counts[ai]
		streams[ai], ends[ai] = se.addrs, se.ends
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
	// golden corpus hashes and the memoized-vs-cold differential tests.
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
