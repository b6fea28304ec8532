package dataset

import (
	"math"
	"reflect"
	"testing"

	"mapc/internal/phasesum"
)

// fidelityConfig is smallConfig at the requested tier, serial for
// deterministic counter assertions.
func fidelityConfig(fid phasesum.Fidelity) Config {
	cfg := smallConfig()
	cfg.Fidelity = fid
	cfg.Workers = 1
	return cfg
}

func TestFidelityValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Fidelity = "approximate"
	if _, err := NewGenerator(cfg); err == nil {
		t.Fatal("NewGenerator accepted an unknown fidelity")
	}
}

// TestFidelityFingerprint pins the journal-compat contract: exact (and the
// zero value) keep the legacy fingerprint, analytic tiers change it, and
// no two tiers share one.
func TestFidelityFingerprint(t *testing.T) {
	base := smallConfig()
	fps := map[phasesum.Fidelity]string{}
	for _, fid := range []phasesum.Fidelity{"", phasesum.Exact, phasesum.Mixed, phasesum.Fast} {
		cfg := base
		cfg.Fidelity = fid
		fps[fid] = cfg.Fingerprint()
	}
	if fps[""] != fps[phasesum.Exact] {
		t.Error("zero-value fidelity must fingerprint like exact (legacy journals)")
	}
	if fps[phasesum.Fast] == fps[phasesum.Exact] || fps[phasesum.Mixed] == fps[phasesum.Exact] ||
		fps[phasesum.Fast] == fps[phasesum.Mixed] {
		t.Error("analytic tiers must not share fingerprints with each other or with exact")
	}
}

// TestFidelityExactMatchesLegacy: explicitly configured exact fidelity is
// byte-identical to the zero value (the golden-hash-pinned legacy path).
func TestFidelityExactMatchesLegacy(t *testing.T) {
	legacy := generateWithWorkers(t, smallConfig(), 1)
	exact := generateWithWorkers(t, fidelityConfig(phasesum.Exact), 1)
	if hashCorpus(legacy) != hashCorpus(exact) {
		t.Fatal("exact fidelity diverged from the legacy zero-value path")
	}
}

// TestFidelityFastCorpus: the fast tier generates a complete, finite,
// plausibly-scaled corpus without ever invoking the exact shared replay.
func TestFidelityFastCorpus(t *testing.T) {
	gen, err := NewGenerator(fidelityConfig(phasesum.Fast))
	if err != nil {
		t.Fatal(err)
	}
	c, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	exact := generateWithWorkers(t, fidelityConfig(phasesum.Exact), 1)
	if len(c.Points) != len(exact.Points) {
		t.Fatalf("fast corpus has %d points, exact %d", len(c.Points), len(exact.Points))
	}
	for i := range c.Points {
		p, e := &c.Points[i], &exact.Points[i]
		if p.Y <= 0 || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			t.Fatalf("point %d: non-finite or non-positive bag time %v", i, p.Y)
		}
		if p.Fairness <= 0 || p.Fairness > 1 {
			t.Fatalf("point %d: fairness %v outside (0,1]", i, p.Fairness)
		}
		// The analytic label must stay in the exact label's ballpark; the
		// tight bound is the oracle's job, this catches unit-scale bugs.
		if r := p.Y / e.Y; r < 0.5 || r > 2 {
			t.Fatalf("point %d (%v): fast bag time %v vs exact %v (ratio %.2f)", i, p.Members, p.Y, e.Y, r)
		}
		// Isolated measurements are exact in every tier.
		if !reflect.DeepEqual(p.CPUTimes, e.CPUTimes) || !reflect.DeepEqual(p.GPUTimes, e.GPUTimes) {
			t.Fatalf("point %d: isolated times diverged under fast fidelity", i)
		}
	}
	st := gen.FidelityStats()
	if st.Fidelity != "fast" {
		t.Fatalf("stats fidelity %q, want fast", st.Fidelity)
	}
	if st.AnalyticRuns == 0 {
		t.Fatal("fast generation reported zero analytic runs")
	}
	if st.ExactRuns != 0 || st.ExactFallbacks != 0 {
		t.Fatalf("fast generation ran exact co-runs: %+v", st)
	}
}

// TestFidelityMixedCounters: the mixed tier routes every contended co-run
// either through the model or through the exact fallback, never through
// the unconditional-exact counter.
func TestFidelityMixedCounters(t *testing.T) {
	gen, err := NewGenerator(fidelityConfig(phasesum.Mixed))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Generate(); err != nil {
		t.Fatal(err)
	}
	st := gen.FidelityStats()
	if st.AnalyticRuns+st.ExactFallbacks == 0 {
		t.Fatal("mixed generation recorded no co-runs at all")
	}
	if st.ExactRuns != 0 {
		t.Fatalf("mixed generation used the unconditional-exact counter: %+v", st)
	}
	t.Logf("mixed stats: %+v", st)
}

// TestFidelityExactCounters: exact-by-configuration co-runs land in
// ExactRuns only.
func TestFidelityExactCounters(t *testing.T) {
	gen, err := NewGenerator(fidelityConfig(phasesum.Exact))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Generate(); err != nil {
		t.Fatal(err)
	}
	st := gen.FidelityStats()
	if st.ExactRuns == 0 || st.AnalyticRuns != 0 || st.ExactFallbacks != 0 {
		t.Fatalf("exact generation mis-tallied: %+v", st)
	}
}

// TestBagFeaturesFidelityMatchesConfiguredTier: a per-call fast tier on an
// exact-configured generator (serve's brownout path) answers bit-identically
// to a fast-configured generator's BagFeatures, at k=2 and k=4, and tallies
// its co-run as analytic on the exact generator.
func TestBagFeaturesFidelityMatchesConfiguredTier(t *testing.T) {
	for _, bag := range [][]Member{
		{{Benchmark: "fast", Batch: 20}, {Benchmark: "hog", Batch: 40}},
		{{Benchmark: "fast", Batch: 20}, {Benchmark: "hog", Batch: 40}, {Benchmark: "knn", Batch: 20}, {Benchmark: "fast", Batch: 80}},
	} {
		exactCfg := fidelityConfig(phasesum.Exact)
		exactCfg.K = len(bag)
		exactGen, err := NewGenerator(exactCfg)
		if err != nil {
			t.Fatal(err)
		}
		fastCfg := exactCfg
		fastCfg.Fidelity = phasesum.Fast
		fastGen, err := NewGenerator(fastCfg)
		if err != nil {
			t.Fatal(err)
		}
		want, wantF, err := fastGen.BagFeatures(bag)
		if err != nil {
			t.Fatal(err)
		}
		got, gotF, err := exactGen.BagFeaturesFidelity(bag, phasesum.Fast)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(gotF) != math.Float64bits(wantF) {
			t.Errorf("k=%d: fairness %v, fast-configured generator %v", len(bag), gotF, wantF)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: widths %d vs %d", len(bag), len(got), len(want))
		}
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Errorf("k=%d column %d: %v, fast-configured generator %v", len(bag), j, got[j], want[j])
			}
		}
		if st := exactGen.FidelityStats(); st.AnalyticRuns != 1 || st.ExactFallbacks != 0 || st.ExactRuns != 0 {
			t.Errorf("k=%d: per-call fast co-run mis-tallied on the exact generator: %+v", len(bag), st)
		}
	}
}

func TestOracleDeterministicAndBounded(t *testing.T) {
	gen, err := NewGenerator(fidelityConfig(phasesum.Fast))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := gen.RunOracle(0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fast oracle: %+v", rep)
	if rep.Sampled < 1 || rep.Sampled > rep.Total {
		t.Fatalf("sampled %d of %d", rep.Sampled, rep.Total)
	}
	for _, v := range []float64{rep.MaxRelErrCPU, rep.MeanRelErrCPU, rep.MaxRelErrGPU, rep.MeanRelErrGPU} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("non-finite oracle error in %+v", rep)
		}
	}
	if rep.MeanRelErrCPU > rep.MaxRelErrCPU || rep.MeanRelErrGPU > rep.MaxRelErrGPU {
		t.Fatalf("mean above max in %+v", rep)
	}
	rep2, err := gen.RunOracle(0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rep != rep2 {
		t.Fatalf("oracle not deterministic: %+v vs %+v", rep, rep2)
	}
	other, err := gen.RunOracle(0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if other.Sampled != rep.Sampled {
		t.Fatalf("same fraction sampled %d vs %d bags", other.Sampled, rep.Sampled)
	}
}

func TestOracleExactFidelityIsZeroError(t *testing.T) {
	gen, err := NewGenerator(fidelityConfig(phasesum.Exact))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := gen.RunOracle(0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxRelErrCPU != 0 || rep.MaxRelErrGPU != 0 {
		t.Fatalf("exact-vs-exact oracle reported nonzero error: %+v", rep)
	}
	if !rep.Within(0) {
		t.Fatal("Within(0) must hold for a zero-error report")
	}
}

func TestOracleRejectsBadFraction(t *testing.T) {
	gen, err := NewGenerator(fidelityConfig(phasesum.Fast))
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0, -0.1, 1.5, math.NaN()} {
		if _, err := gen.RunOracle(frac, 1); err == nil {
			t.Errorf("RunOracle accepted fraction %v", frac)
		}
	}
}

// BenchmarkFidelityCorpus measures bag-measurement throughput per tier in
// the member-warm regime: isolated measurements (identical across tiers,
// memoized) are paid once outside the timer, then every iteration
// re-measures all bags through the per-iteration shared co-runs. This
// isolates the cost the fidelity tier actually changes — the contended
// co-run — and is the points/sec figure recorded in BENCH_baseline.json
// ("phase-replay" entry) and gated by scripts/benchjson.
func BenchmarkFidelityCorpus(b *testing.B) {
	for _, fid := range []phasesum.Fidelity{phasesum.Exact, phasesum.Mixed, phasesum.Fast} {
		b.Run(string(fid), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Fidelity = fid
			cfg.Workers = 1
			gen, err := NewGenerator(cfg)
			if err != nil {
				b.Fatal(err)
			}
			bags, err := gen.Bags()
			if err != nil {
				b.Fatal(err)
			}
			// Warm the member measurements and memoized prefixes.
			if _, err := gen.Generate(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, bag := range bags {
					if _, err := gen.MeasureBag(bag); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			pts := float64(len(bags)) * float64(b.N)
			b.ReportMetric(pts/b.Elapsed().Seconds(), "points/sec")
		})
	}
}
