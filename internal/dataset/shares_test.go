package dataset

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mapc/internal/phasesum"
	"mapc/internal/vision"
)

// End-to-end tests for Config.Shares: validation, journal fingerprints,
// the uniform≡nil bit-identity property at corpus level, the per-reason
// fallback split, and the scenario matrix.

func TestSharesValidation(t *testing.T) {
	bad := []struct {
		name   string
		k      int
		shares []float64
	}{
		{"length mismatch", 2, []float64{1, 2, 3}},
		{"zero weight", 2, []float64{1, 0}},
		{"negative weight", 2, []float64{2, -1}},
		{"NaN weight", 2, []float64{1, math.NaN()}},
		{"infinite weight", 2, []float64{1, math.Inf(1)}},
		{"length vs k", 4, []float64{0.5, 0.5}},
	}
	for _, c := range bad {
		cfg := smallConfig()
		cfg.K = c.k
		cfg.Shares = c.shares
		if _, err := NewGenerator(cfg); err == nil {
			t.Errorf("%s: NewGenerator accepted shares %v at k=%d", c.name, c.shares, c.k)
		}
	}
	cfg := smallConfig()
	cfg.Shares = []float64{0.7, 0.3}
	if _, err := NewGenerator(cfg); err != nil {
		t.Errorf("valid share vector rejected: %v", err)
	}
}

// TestSharesFingerprint pins the journal-compat contract: nil shares keep
// the legacy fingerprint, any non-nil vector (including explicit uniform)
// changes it, and distinct vectors never collide.
func TestSharesFingerprint(t *testing.T) {
	base := smallConfig()
	legacy := base.Fingerprint()

	uniform := base
	uniform.Shares = []float64{0.5, 0.5}
	skew := base
	skew.Shares = []float64{0.7, 0.3}

	if uniform.Fingerprint() == legacy {
		t.Error("explicit uniform shares must fingerprint differently from nil (declared intent differs)")
	}
	if skew.Fingerprint() == legacy || skew.Fingerprint() == uniform.Fingerprint() {
		t.Error("distinct share vectors must not share fingerprints")
	}
}

func TestSharesLabel(t *testing.T) {
	cfg := smallConfig()
	if got := cfg.SharesLabel(); got != "" {
		t.Errorf("nil shares label %q, want empty", got)
	}
	cfg.Shares = []float64{0.7, 0.2, 0.1}
	if got := cfg.SharesLabel(); got != "0.7/0.2/0.1" {
		t.Errorf("shares label %q, want 0.7/0.2/0.1", got)
	}
}

// TestUniformSharesCorpusBitIdentical: a corpus generated with an explicit
// 1/k share vector matches the nil-shares corpus point for point, at k=2
// and k=4, under the fast analytic tier (the tier the property unlocks).
func TestUniformSharesCorpusBitIdentical(t *testing.T) {
	for _, k := range []int{2, 4} {
		cfg := fidelityConfig(phasesum.Fast)
		cfg.K = k
		want := generateWithWorkers(t, cfg, 1)

		uniform := make([]float64, k)
		for i := range uniform {
			uniform[i] = 1 / float64(k)
		}
		cfg.Shares = uniform
		got := generateWithWorkers(t, cfg, 1)

		if !reflect.DeepEqual(got.Points, want.Points) {
			t.Fatalf("k=%d: explicit uniform shares changed the corpus", k)
		}
	}
}

// TestSkewedSharesStayAnalytic is the acceptance criterion: skewed
// corpora with minority shares down to 0.05 at k ∈ {2,4} keep >= 90% of
// contended co-runs analytic under mixed fidelity, with the full-corpus
// differential oracle inside 5% on the GPU bag time.
func TestSkewedSharesStayAnalytic(t *testing.T) {
	cases := []struct {
		k      int
		shares []float64
	}{
		{2, []float64{0.95, 0.05}},
		{4, []float64{0.85, 0.05, 0.05, 0.05}},
	}
	for _, c := range cases {
		cfg := smallConfig()
		cfg.MixedPairs = 2
		cfg.K = c.k
		cfg.Shares = c.shares
		cfg.Fidelity = phasesum.Mixed
		gen, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gen.Generate(); err != nil {
			t.Fatal(err)
		}
		st := gen.FidelityStats()
		total := st.AnalyticRuns + st.ExactFallbacks + st.ExactRuns
		if total == 0 {
			t.Fatalf("k=%d: no contended co-runs counted", c.k)
		}
		if cov := float64(st.AnalyticRuns) / float64(total); cov < 0.9 {
			t.Errorf("k=%d shares %v: analytic coverage %.2f < 0.90 (%+v)", c.k, c.shares, cov, st)
		}
		rep, err := gen.RunOracle(1, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Within(0.05) {
			t.Errorf("k=%d shares %v: oracle outside 5%%: %+v", c.k, c.shares, rep)
		}
	}
}

// TestFallbackReasonSplit: extreme share skew leaves the minority client a
// fifth of an SM, so mixed-tier GPU co-runs must fall back with the
// sub-SM-share reason — and the reason counters must sum to the fallback
// total.
func TestFallbackReasonSplit(t *testing.T) {
	cfg := fidelityConfig(phasesum.Mixed)
	cfg.Shares = []float64{0.995, 0.005}
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Generate(); err != nil {
		t.Fatal(err)
	}
	st := gen.FidelityStats()
	if st.FallbackSubSMShare == 0 {
		t.Errorf("no sub-SM-share fallbacks under a 0.2-SM minority partition: %+v", st)
	}
	if sum := st.FallbackLowConfidence + st.FallbackSubSMShare + st.FallbackBandwidthGate; sum != st.ExactFallbacks {
		t.Errorf("fallback reasons sum to %d, want %d: %+v", sum, st.ExactFallbacks, st)
	}
}

func TestParseShares(t *testing.T) {
	got, err := ParseShares("0.7/0.2/0.1")
	if err != nil || !reflect.DeepEqual(got, []float64{0.7, 0.2, 0.1}) {
		t.Errorf("ParseShares slash form: %v, %v", got, err)
	}
	got, err = ParseShares("0.7,0.3")
	if err != nil || !reflect.DeepEqual(got, []float64{0.7, 0.3}) {
		t.Errorf("ParseShares comma form: %v, %v", got, err)
	}
	for _, bad := range []string{"", "a/b", "0.7;0.3"} {
		if _, err := ParseShares(bad); err == nil {
			t.Errorf("ParseShares(%q) accepted", bad)
		}
	}
}

func TestParseListAndBatches(t *testing.T) {
	cases := []struct {
		spec    string
		list    []string
		batches []int
		err     string // substring of both errors when list is nil
	}{
		{spec: "20,40", list: []string{"20", "40"}, batches: []int{20, 40}},
		{spec: " 20 , 40 ", list: []string{"20", "40"}, batches: []int{20, 40}},
		{spec: "20,40,", err: `-batches: empty item in "20,40,"`},
		{spec: "20,,40", err: "empty item"},
		{spec: "", err: "empty item"},
		{spec: "20,0", list: []string{"20", "0"}, err: "-batches: batch size 0 is not positive"},
		{spec: "-5", list: []string{"-5"}, err: "-batches: batch size -5 is not positive"},
		{spec: "20,x", list: []string{"20", "x"}, err: `-batches: batch size "x" is not an integer`},
		{spec: "1048576", list: []string{"1048576"}, batches: []int{vision.MaxBatch}},
		{spec: "20,1048577", list: []string{"20", "1048577"}, err: "-batches: batch size 1048577 exceeds the limit of 1048576 images"},
		{spec: "1125899906842624", list: []string{"1125899906842624"}, err: "exceeds the limit of 1048576"},
		{spec: "4611686018427387904", list: []string{"4611686018427387904"}, err: "exceeds the limit of 1048576"},
	}
	for _, c := range cases {
		list, err := ParseList("-batches", c.spec)
		if c.list == nil {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("ParseList(%q) = %v, %v; want error containing %q", c.spec, list, err, c.err)
			}
		} else if err != nil || !reflect.DeepEqual(list, c.list) {
			t.Errorf("ParseList(%q) = %v, %v; want %v", c.spec, list, err, c.list)
		}
		batches, err := ParseBatches("-batches", c.spec)
		if c.batches == nil {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("ParseBatches(%q) = %v, %v; want error containing %q", c.spec, batches, err, c.err)
			}
		} else if err != nil || !reflect.DeepEqual(batches, c.batches) {
			t.Errorf("ParseBatches(%q) = %v, %v; want %v", c.spec, batches, err, c.batches)
		}
	}
}

func TestParseScenarios(t *testing.T) {
	specs, err := ParseScenarios("2;2:uniform;2:0.7/0.3;4:0.85/0.05/0.05/0.05")
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"k2:uniform", "k2:uniform", "k2:0.7/0.3", "k4:0.85/0.05/0.05/0.05"}
	if len(specs) != len(wantNames) {
		t.Fatalf("parsed %d specs, want %d", len(specs), len(wantNames))
	}
	for i, s := range specs {
		if s.Name() != wantNames[i] {
			t.Errorf("spec %d name %q, want %q", i, s.Name(), wantNames[i])
		}
	}
	for _, bad := range []string{"", "x:0.5/0.5", "2:0.7/0.2/0.1", "2:0.7/oops"} {
		if _, err := ParseScenarios(bad); err == nil {
			t.Errorf("ParseScenarios(%q) accepted", bad)
		}
	}
}

// TestRunScenarios: a two-cell matrix at the fast tier produces full
// analytic coverage, per-cell oracle reports, and canonical names.
func TestRunScenarios(t *testing.T) {
	base := smallConfig()
	base.MixedPairs = 0
	base.Benchmarks = []string{"fast", "knn"}
	base.BatchSizes = []int{20, 40}
	base.Fidelity = phasesum.Fast
	specs := []ScenarioSpec{{K: 2}, {K: 2, Shares: []float64{0.7, 0.3}}}
	rep, err := RunScenarios(base, specs, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fidelity != "fast" || len(rep.Scenarios) != 2 {
		t.Fatalf("report shape: %+v", rep)
	}
	for _, s := range rep.Scenarios {
		if s.AnalyticCoverage != 1 {
			t.Errorf("cell %s: fast-tier coverage %v, want 1", s.Name, s.AnalyticCoverage)
		}
		if s.Oracle == nil || !s.Oracle.Within(0.05) {
			t.Errorf("cell %s: oracle missing or out of bounds: %+v", s.Name, s.Oracle)
		}
		if s.Points == 0 || s.PointsPerSec <= 0 {
			t.Errorf("cell %s: empty or untimed (%d points, %v pts/s)", s.Name, s.Points, s.PointsPerSec)
		}
	}
	if rep.Scenarios[0].Name != "k2:uniform" || rep.Scenarios[1].Name != "k2:0.7/0.3" {
		t.Errorf("cell names: %q, %q", rep.Scenarios[0].Name, rep.Scenarios[1].Name)
	}
	if rep.MinAnalyticCoverage() != 1 {
		t.Errorf("MinAnalyticCoverage %v, want 1", rep.MinAnalyticCoverage())
	}
	if rep.MaxRelErrGPU() > 0.05 {
		t.Errorf("MaxRelErrGPU %v > 0.05", rep.MaxRelErrGPU())
	}

	if _, err := RunScenarios(base, nil, 0, 0); err == nil {
		t.Error("empty scenario list accepted")
	}
}
