package gpusim

import (
	"testing"

	"mapc/internal/isa"
	"mapc/internal/trace"
)

func synthWorkload(name string, instr uint64, memFrac, ctrlFrac float64, pattern trace.Pattern, footprint int64, par int) *trace.Workload {
	var counts isa.Counts
	mem := uint64(float64(instr) * memFrac)
	ctrl := uint64(float64(instr) * ctrlFrac)
	counts.Add(isa.MEM, mem)
	counts.Add(isa.Control, ctrl)
	counts.Add(isa.FP, instr-mem-ctrl)
	return &trace.Workload{
		Benchmark: name, BatchSize: 1, TransferBytes: 1 << 20,
		Phases: []trace.Phase{{
			Name: "kernel", Counts: counts, Footprint: footprint,
			Pattern: pattern, StrideBytes: 64, Reuse: 0.2,
			Parallelism: par, VectorWidth: 1,
		}},
	}
}

func computeKernel(name string) *trace.Workload {
	return synthWorkload(name, 200_000_000, 0.05, 0.02, trace.Sequential, 1<<20, 1<<22)
}

func memKernel(name string) *trace.Workload {
	return synthWorkload(name, 200_000_000, 0.5, 0.02, trace.Random, 64<<20, 1<<22)
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.SMs = 0 },
		func(c *Config) { c.WarpSize = 0 },
		func(c *Config) { c.FreqGHz = 0 },
		func(c *Config) { c.L2Bytes = 0 },
		func(c *Config) { c.TLBEntries = 0 },
		func(c *Config) { c.DRAMBandwidth = 0 },
		func(c *Config) { c.PCIeBandwidth = 0 },
		func(c *Config) { c.PCIeLatencySec = -1 },
		func(c *Config) { c.MLP = 0 },
		func(c *Config) { c.FullUtilThreads = 0 },
		func(c *Config) { c.Throughput[isa.FP] = 0 },
	}
	for i, m := range mutations {
		cfg := DefaultConfig()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestRunArgumentErrors(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := RunMemo(cfg, nil, nil); err == nil {
		t.Error("empty workload list accepted")
	}
	if _, err := RunMemo(cfg, nil, []*trace.Workload{nil}); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := RunMemo(cfg, nil, []*trace.Workload{{}}); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestSingleRunBasics(t *testing.T) {
	cfg := DefaultConfig()
	res, err := RunMemo(cfg, nil, []*trace.Workload{computeKernel("k")})
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.TimeSec <= 0 || r.IPC <= 0 {
		t.Fatalf("bad result %+v", r)
	}
	if r.SMShare != float64(cfg.SMs) {
		t.Errorf("single client SM share %v", r.SMShare)
	}
}

func TestMPSSlowdown(t *testing.T) {
	cfg := DefaultConfig()
	w := computeKernel("k")
	alone, err := RunMemo(cfg, nil, []*trace.Workload{w})
	if err != nil {
		t.Fatal(err)
	}
	pair, err := RunMemo(cfg, nil, []*trace.Workload{w.Clone(), w.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	slow := pair[0].TimeSec / alone[0].TimeSec
	// SM partitioning halves compute throughput: a saturating
	// compute-bound kernel must slow by roughly 2x.
	if slow < 1.5 || slow > 2.6 {
		t.Fatalf("homogeneous compute pair slowdown %.2f outside [1.5, 2.6]", slow)
	}
	if pair[0].SMShare != float64(cfg.SMs)/2 {
		t.Errorf("pair SM share %v", pair[0].SMShare)
	}
}

func TestSlowdownGrowsWithClients(t *testing.T) {
	cfg := DefaultConfig()
	w := memKernel("m")
	var prev float64
	for n := 1; n <= 4; n++ {
		ws := make([]*trace.Workload, n)
		for i := range ws {
			ws[i] = w.Clone()
		}
		res, err := RunMemo(cfg, nil, ws)
		if err != nil {
			t.Fatal(err)
		}
		if res[0].TimeSec <= prev {
			t.Fatalf("time did not grow from %d to %d clients (%v <= %v)",
				n-1, n, res[0].TimeSec, prev)
		}
		prev = res[0].TimeSec
	}
}

func TestDivergencePenalizesBranchyKernels(t *testing.T) {
	cfg := DefaultConfig()
	smooth := synthWorkload("smooth", 100_000_000, 0.05, 0.0, trace.Sequential, 1<<20, 1<<22)
	branchy := synthWorkload("branchy", 100_000_000, 0.05, 0.4, trace.Sequential, 1<<20, 1<<22)
	rs, err := RunMemo(cfg, nil, []*trace.Workload{smooth})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RunMemo(cfg, nil, []*trace.Workload{branchy})
	if err != nil {
		t.Fatal(err)
	}
	if rb[0].TimeSec <= rs[0].TimeSec {
		t.Fatalf("branchy kernel (%v) not slower than smooth (%v)",
			rb[0].TimeSec, rs[0].TimeSec)
	}
}

func TestLowOccupancySlower(t *testing.T) {
	cfg := DefaultConfig()
	wide := synthWorkload("wide", 100_000_000, 0.3, 0.02, trace.Random, 16<<20, 1<<22)
	narrow := synthWorkload("narrow", 100_000_000, 0.3, 0.02, trace.Random, 16<<20, 256)
	rw, err := RunMemo(cfg, nil, []*trace.Workload{wide})
	if err != nil {
		t.Fatal(err)
	}
	rn, err := RunMemo(cfg, nil, []*trace.Workload{narrow})
	if err != nil {
		t.Fatal(err)
	}
	if rn[0].TimeSec <= rw[0].TimeSec {
		t.Fatalf("low-parallelism kernel (%v) not slower than wide one (%v)",
			rn[0].TimeSec, rw[0].TimeSec)
	}
}

func TestTransferAddsTime(t *testing.T) {
	cfg := DefaultConfig()
	with := computeKernel("k")
	without := with.Clone()
	without.TransferBytes = 0
	rw, err := RunMemo(cfg, nil, []*trace.Workload{with})
	if err != nil {
		t.Fatal(err)
	}
	ro, err := RunMemo(cfg, nil, []*trace.Workload{without})
	if err != nil {
		t.Fatal(err)
	}
	if rw[0].TimeSec <= ro[0].TimeSec {
		t.Fatal("PCIe transfer did not add time")
	}
}

func TestBagTime(t *testing.T) {
	if got := BagTime([]Result{{TimeSec: 1}, {TimeSec: 3}, {TimeSec: 2}}); got != 3 {
		t.Fatalf("BagTime = %v", got)
	}
	if got := BagTime(nil); got != 0 {
		t.Fatalf("BagTime(nil) = %v", got)
	}
}

func TestPhasedShortJobExitsEarly(t *testing.T) {
	cfg := DefaultConfig()
	short := synthWorkload("short", 5_000_000, 0.3, 0.02, trace.Random, 8<<20, 1<<22)
	long := synthWorkload("long", 500_000_000, 0.3, 0.02, trace.Random, 8<<20, 1<<22)
	aloneLong, err := RunMemo(cfg, nil, []*trace.Workload{long.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	pair, err := RunMemo(cfg, nil, []*trace.Workload{short.Clone(), long.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if pair[0].TimeSec >= pair[1].TimeSec {
		t.Fatal("short job did not finish first")
	}
	// The long job runs nearly alone: its completion must be far below
	// the full-contention bound of ~2x isolated.
	if pair[1].TimeSec > aloneLong[0].TimeSec*1.4 {
		t.Fatalf("long job slowed %.2fx by a brief co-runner",
			pair[1].TimeSec/aloneLong[0].TimeSec)
	}
}

func TestPhaseBreakdown(t *testing.T) {
	cfg := DefaultConfig()
	w := computeKernel("k")
	bd, err := PhaseBreakdown(cfg, []*trace.Workload{w}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bd) != len(w.Phases) {
		t.Fatalf("breakdown has %d phases, workload %d", len(bd), len(w.Phases))
	}
	for i, p := range bd {
		if p.TotalCycles <= 0 {
			t.Errorf("phase %d total cycles %v", i, p.TotalCycles)
		}
		if p.Occupancy <= 0 || p.Occupancy > 1 {
			t.Errorf("phase %d occupancy %v", i, p.Occupancy)
		}
		if p.TotalCycles < p.ComputeCycles {
			t.Errorf("phase %d total < compute bound", i)
		}
	}
	if _, err := PhaseBreakdown(cfg, []*trace.Workload{w}, 5); err == nil {
		t.Error("out-of-range client accepted")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	ws := []*trace.Workload{memKernel("a"), computeKernel("b")}
	r1, err := RunMemo(cfg, nil, ws)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunMemo(cfg, nil, ws)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if r1[i].TimeSec != r2[i].TimeSec {
			t.Fatalf("client %d time differs across identical runs", i)
		}
	}
}

func TestTLBContentionWithManyClients(t *testing.T) {
	// Shared-TLB pressure: a kernel's TLB miss rate must not decrease
	// when a second address space competes for the entries.
	cfg := DefaultConfig()
	w := memKernel("m")
	alone, err := RunMemo(cfg, nil, []*trace.Workload{w.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	pair, err := RunMemo(cfg, nil, []*trace.Workload{w.Clone(), w.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if pair[0].TLBMissRate < alone[0].TLBMissRate*0.999 {
		t.Fatalf("TLB miss rate dropped under sharing: %v -> %v",
			alone[0].TLBMissRate, pair[0].TLBMissRate)
	}
}

func TestPatternCoalescing(t *testing.T) {
	// With coalescing on, an LSU-bound sequential kernel gets faster; a
	// random-access kernel must be unaffected.
	seqK := synthWorkload("seq", 100_000_000, 0.9, 0.0, trace.Sequential, 1<<20, 1<<22)
	rndK := synthWorkload("rnd", 100_000_000, 0.9, 0.0, trace.Random, 1<<20, 1<<22)
	run := func(w *trace.Workload, coalesce bool) float64 {
		cfg := DefaultConfig()
		cfg.PatternCoalescing = coalesce
		r, err := RunMemo(cfg, nil, []*trace.Workload{w.Clone()})
		if err != nil {
			t.Fatal(err)
		}
		return r[0].TimeSec
	}
	if on, off := run(seqK, true), run(seqK, false); on >= off {
		t.Errorf("coalescing did not speed a sequential kernel: %v vs %v", on, off)
	}
	if on, off := run(rndK, true), run(rndK, false); on != off {
		t.Errorf("coalescing changed a random-access kernel: %v vs %v", on, off)
	}
}
