package dataset

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mapc/internal/faultinject"
	"mapc/internal/features"
	"mapc/internal/parallel"
	"mapc/internal/vision"
)

// This file is the k-app-bag property suite: it pins the generalization
// from fixed pairs to k-member bags (k = 2..8) with three families of
// invariants:
//
//  1. permutation invariance — features, fairness and the measured bag
//     time depend only on the *multiset* of members, never on the order
//     the caller lists them;
//  2. k=2 reduction — the pair corpus is byte-identical to the legacy
//     pipeline (the golden SHA-256 constants in golden_hash_test.go pass
//     unmodified; here we additionally pin config-fingerprint equality);
//  3. differential oracles at k>2 — memo-on/memo-off, eviction pressure
//     and every worker count must hash bit-identically, and kill+resume
//     must reproduce the uninterrupted corpus.

// hashCorpusK is hashCorpus generalized to any bag size (the original
// stays pair-shaped because its output feeds the recorded golden
// constants). At k=2 the two serializations differ only in the member
// separator, not in coverage: every numeric field is hashed.
func hashCorpusK(c *Corpus) string {
	var sb strings.Builder
	f := func(v float64) {
		sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		sb.WriteByte(',')
	}
	fmt.Fprintf(&sb, "names=%s;", strings.Join(c.FeatureNames, ","))
	f(c.CPUTimeDivisor)
	for i := range c.Points {
		p := &c.Points[i]
		fmt.Fprintf(&sb, ";%s:%t:", BagKeyOf(p.Members), p.Homogeneous)
		for _, v := range p.X {
			f(v)
		}
		f(p.Y)
		f(p.Fairness)
		for _, v := range p.CPUTimes {
			f(v)
		}
		for _, v := range p.GPUTimes {
			f(v)
		}
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

// kConfig is smallConfig at bag size k.
func kConfig(k int) Config {
	cfg := smallConfig()
	cfg.K = k
	return cfg
}

// binomial returns C(n, k).
func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

// TestConfigKValidation pins the accepted bag-size range: 0 (legacy
// default, meaning 2), and 2..MaxApps inclusive; everything else is
// refused at generator construction.
func TestConfigKValidation(t *testing.T) {
	for _, k := range []int{0, 2, 3, 8} {
		cfg := smallConfig()
		cfg.K = k
		if _, err := NewGenerator(cfg); err != nil {
			t.Errorf("K=%d rejected: %v", k, err)
		}
	}
	for _, k := range []int{-1, 1, 9, 100} {
		cfg := smallConfig()
		cfg.K = k
		if _, err := NewGenerator(cfg); err == nil {
			t.Errorf("K=%d accepted; want a validation error", k)
		}
	}
	if got := (Config{}).EffectiveK(); got != 2 {
		t.Errorf("EffectiveK(0) = %d, want the legacy pair default 2", got)
	}
	if got := (Config{K: 5}).EffectiveK(); got != 5 {
		t.Errorf("EffectiveK(5) = %d", got)
	}
}

// TestFingerprintPairCompat pins journal compatibility across the
// generalization: a K=0 (default) config and an explicit K=2 config share
// one fingerprint — so pair journals written before the k-sweep existed
// keep resuming — while every k>2 fingerprint is distinct from the pair
// one and from each other.
func TestFingerprintPairCompat(t *testing.T) {
	base := smallConfig() // K=0
	two := kConfig(2)
	if base.Fingerprint() != two.Fingerprint() {
		t.Errorf("K=0 and K=2 fingerprints differ:\n  %s\n  %s",
			base.Fingerprint(), two.Fingerprint())
	}
	seen := map[string]int{base.Fingerprint(): 2}
	for k := 3; k <= 8; k++ {
		fp := kConfig(k).Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("K=%d and K=%d share fingerprint %q", k, prev, fp)
		}
		seen[fp] = k
	}
}

// TestBagsKSweepShapes pins the enumeration plan at every supported k on
// the small registry (3 benchmarks x 3 batches, 2 mixed bags):
// n*B homogeneous k-copy bags, C(n,k) distinct-benchmark combinations
// with cycling batch sizes, then the mixed-batch walk — and Generate()
// yields exactly one point per bag, in bag order, as multisets.
func TestBagsKSweepShapes(t *testing.T) {
	const n, B, mixed = 3, 3, 2
	for k := 2; k <= 8; k++ {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			cfg := kConfig(k)
			gen, err := NewGenerator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			bags, err := gen.Bags()
			if err != nil {
				t.Fatal(err)
			}
			want := n*B + binomial(n, k) + mixed
			if len(bags) != want {
				t.Fatalf("k=%d: %d bags, want %d (= %d homogeneous + C(%d,%d)=%d + %d mixed)",
					k, len(bags), want, n*B, n, k, binomial(n, k), mixed)
			}
			for i, bag := range bags {
				if len(bag) != k {
					t.Fatalf("bag %d has %d members, want %d: %v", i, len(bag), k, bag)
				}
			}
			// Homogeneous prefix: k identical copies per (benchmark, batch).
			for i := 0; i < n*B; i++ {
				for _, m := range bags[i][1:] {
					if m != bags[i][0] {
						t.Errorf("homogeneous bag %d mixes members: %v", i, bags[i])
					}
				}
			}
			// Combination block: k distinct benchmarks, one shared batch.
			for i := n * B; i < n*B+binomial(n, k); i++ {
				seen := map[string]bool{}
				for _, m := range bags[i] {
					if seen[m.Benchmark] {
						t.Errorf("combination bag %d repeats benchmark %s: %v", i, m.Benchmark, bags[i])
					}
					seen[m.Benchmark] = true
					if m.Batch != bags[i][0].Batch {
						t.Errorf("combination bag %d mixes batches: %v", i, bags[i])
					}
				}
			}
			// Mixed tail: never all one benchmark, batches off the base size.
			for i := len(bags) - mixed; i < len(bags); i++ {
				allSame := true
				for _, m := range bags[i][1:] {
					if m.Benchmark != bags[i][0].Benchmark {
						allSame = false
					}
				}
				if allSame {
					t.Errorf("mixed bag %d is single-benchmark: %v", i, bags[i])
				}
				for _, m := range bags[i] {
					if m.Batch == cfg.BatchSizes[0] {
						t.Errorf("mixed bag %d uses the base batch size: %v", i, bags[i])
					}
				}
			}

			// Generate() is the same plan, measured: point i <-> bag i.
			c, err := gen.Generate()
			if err != nil {
				t.Fatal(err)
			}
			if len(c.Points) != len(bags) {
				t.Fatalf("%d points for %d bags", len(c.Points), len(bags))
			}
			wantWidth := k*10 + 1 // per-app block is 2 + NumCategories = 10
			if len(c.FeatureNames) != wantWidth {
				t.Errorf("k=%d feature width %d, want %d", k, len(c.FeatureNames), wantWidth)
			}
			for i := range c.Points {
				p := &c.Points[i]
				if sortedBagKey(p.Members) != sortedBagKey(bags[i]) {
					t.Errorf("point %d members %v, bag %v", i, p.Members, bags[i])
				}
				if len(p.X) != wantWidth {
					t.Errorf("point %d: %d features, want %d", i, len(p.X), wantWidth)
				}
				if len(p.CPUTimes) != k || len(p.GPUTimes) != k {
					t.Errorf("point %d: %d/%d isolated times, want %d each",
						i, len(p.CPUTimes), len(p.GPUTimes), k)
				}
				if p.Fairness <= 0 || p.Fairness > 1 {
					t.Errorf("point %d: fairness %v outside (0,1]", i, p.Fairness)
				}
			}
		})
	}
}

// sortedBagKey is the multiset identity of a bag: its key after sorting
// by (benchmark, batch).
func sortedBagKey(ms []Member) string {
	s := append([]Member(nil), ms...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && (s[j].Benchmark < s[j-1].Benchmark ||
			(s[j].Benchmark == s[j-1].Benchmark && s[j].Batch < s[j-1].Batch)); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return BagKeyOf(s)
}

// TestBagPermutationInvariance is the headline property: for k in
// {3, 4, 8}, every permutation of a bag yields bit-identical features,
// fairness, measured bag time and isolated-time vectors (after aligning
// by the canonical member order). Randomized: 20 shuffles per bag from a
// fixed seed.
func TestBagPermutationInvariance(t *testing.T) {
	gen, err := NewGenerator(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	bagsByK := map[int][]Member{
		3: {
			{Benchmark: "fast", Batch: 20},
			{Benchmark: "hog", Batch: 40},
			{Benchmark: "knn", Batch: 80},
		},
		4: {
			{Benchmark: "fast", Batch: 20},
			{Benchmark: "fast", Batch: 80},
			{Benchmark: "hog", Batch: 40},
			{Benchmark: "knn", Batch: 40},
		},
		// k=8 exceeds the registry size, so members repeat — the pipeline
		// supports duplicate (benchmark, batch) members and must stay
		// order-blind for them too.
		8: {
			{Benchmark: "fast", Batch: 20},
			{Benchmark: "fast", Batch: 40},
			{Benchmark: "fast", Batch: 80},
			{Benchmark: "hog", Batch: 20},
			{Benchmark: "hog", Batch: 40},
			{Benchmark: "knn", Batch: 20},
			{Benchmark: "knn", Batch: 80},
			{Benchmark: "knn", Batch: 80},
		},
	}
	for k, base := range bagsByK {
		k, base := k, base
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			wantX, wantFair, err := gen.BagFeatures(base)
			if err != nil {
				t.Fatal(err)
			}
			wantPt, err := gen.MeasureBag(base)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(k)))
			for trial := 0; trial < 20; trial++ {
				perm := append([]Member(nil), base...)
				rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
				x, fair, err := gen.BagFeatures(perm)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if !reflect.DeepEqual(x, wantX) {
					t.Fatalf("trial %d: features depend on member order\nperm %v\n got %v\nwant %v",
						trial, perm, x, wantX)
				}
				if fair != wantFair {
					t.Fatalf("trial %d: fairness %v != %v for %v", trial, fair, wantFair, perm)
				}
				pt, err := gen.MeasureBag(perm)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if pt.Y != wantPt.Y {
					t.Fatalf("trial %d: bag time %v != %v for %v", trial, pt.Y, wantPt.Y, perm)
				}
				if !reflect.DeepEqual(pt.Members, wantPt.Members) {
					t.Fatalf("trial %d: canonical member order unstable: %v vs %v",
						trial, pt.Members, wantPt.Members)
				}
				if !reflect.DeepEqual(pt.X, wantPt.X) ||
					!reflect.DeepEqual(pt.CPUTimes, wantPt.CPUTimes) ||
					!reflect.DeepEqual(pt.GPUTimes, wantPt.GPUTimes) {
					t.Fatalf("trial %d: point payload depends on member order for %v", trial, perm)
				}
			}
		})
	}
}

// TestBagTimeMonotoneInMembers is the aggregate-slowdown sanity property:
// adding an application to a bag can only increase contention — the
// measured bag time must never drop as the bag grows, and each bag runs
// at least as long as its slowest member runs alone.
func TestBagTimeMonotoneInMembers(t *testing.T) {
	gen, err := NewGenerator(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	members := []Member{
		{Benchmark: "fast", Batch: 20},
		{Benchmark: "hog", Batch: 40},
		{Benchmark: "knn", Batch: 80},
		{Benchmark: "fast", Batch: 80},
		{Benchmark: "hog", Batch: 20},
		{Benchmark: "knn", Batch: 20},
		{Benchmark: "fast", Batch: 40},
		{Benchmark: "knn", Batch: 40},
	}
	prev := 0.0
	for k := 2; k <= len(members); k++ {
		bag := members[:k]
		pt, err := gen.MeasureBag(bag)
		if err != nil {
			t.Fatal(err)
		}
		if pt.Y < prev {
			t.Errorf("bag time dropped from %v to %v when growing to k=%d (%v)",
				prev, pt.Y, k, bag)
		}
		var slowest float64
		for _, gt := range pt.GPUTimes {
			if gt > slowest {
				slowest = gt
			}
		}
		if pt.Y < slowest {
			t.Errorf("k=%d: shared bag time %v beats the slowest member alone (%v); contention went negative",
				k, pt.Y, slowest)
		}
		prev = pt.Y
	}
}

// TestCorpusKDifferentialOracles is the k>2 equivalent of the golden-hash
// suite, using self-referential hashes (no recorded constants exist for
// k>2): for k in {3, 4} the corpus must hash bit-identically with the
// memo on, off (SimCacheMB=0), under 1 MiB eviction pressure, and at
// worker counts 1, 4 and 7.
func TestCorpusKDifferentialOracles(t *testing.T) {
	for _, k := range []int{3, 4} {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			ref := hashCorpusK(generateWithWorkers(t, kConfig(k), 1))

			for _, workers := range []int{4, 7} {
				c := generateWithWorkers(t, kConfig(k), workers)
				if got := hashCorpusK(c); got != ref {
					t.Errorf("workers=%d corpus hash %s != serial %s: worker invariance broken at k=%d",
						workers, got, ref, k)
				}
			}
			memoOff := kConfig(k)
			memoOff.SimCacheMB = 0
			if got := hashCorpusK(generateWithWorkers(t, memoOff, 2)); got != ref {
				t.Errorf("memo-off corpus hash %s != memo-on %s at k=%d", got, ref, k)
			}
			starved := kConfig(k)
			starved.SimCacheMB = 1
			if got := hashCorpusK(generateWithWorkers(t, starved, 2)); got != ref {
				t.Errorf("eviction-pressure corpus hash %s != reference %s at k=%d", got, ref, k)
			}
		})
	}
}

// TestBagKeyPairEquality pins BagKeyOf on a two-member slice to the pair
// key byte for byte — the journal replay index depends on it.
func TestBagKeyPairEquality(t *testing.T) {
	a := Member{Benchmark: "sift", Batch: 20}
	b := Member{Benchmark: "surf", Batch: 40}
	if got := BagKeyOf([]Member{a, b}); got != "sift/20+surf/40" {
		t.Errorf("pair key %q, want sift/20+surf/40", got)
	}
}

// TestMixedBagsKDegenerateRegistries is the satellite regression for the
// generalized mixed-batch walk: registries where the pair-specific walk
// used to spin (or that only k>2 can hit) must either terminate with the
// requested bags or fail fast with the descriptive collision error.
func TestMixedBagsKDegenerateRegistries(t *testing.T) {
	batches := []int{20, 40, 80}

	// Single benchmark: every k-member candidate is homogeneous, so no
	// mixed bag exists at any k. Must error, not hang.
	for _, k := range []int{3, 4, 8} {
		_, err := mixedBags([]string{"fast"}, batches, 2, k)
		if err == nil {
			t.Fatalf("k=%d single-benchmark walk did not error", k)
		}
		if !strings.Contains(err.Error(), "mixed-batch") ||
			!strings.Contains(err.Error(), fmt.Sprintf("k=%d", k)) {
			t.Errorf("k=%d: undescriptive error: %v", k, err)
		}
	}

	// Two benchmarks at k=3: bags must repeat a benchmark without being
	// all one benchmark, and even a huge request completes within the
	// bounded walk (duplicate bags are allowed; only single-benchmark
	// collapses are skipped).
	for _, count := range []int{2, 10_000} {
		out, err := mixedBags([]string{"fast", "hog"}, batches, count, 3)
		if err != nil {
			t.Fatalf("k=3 two-benchmark walk (count=%d) failed: %v", count, err)
		}
		if len(out) != count {
			t.Fatalf("k=3 walk produced %d bags, want %d", len(out), count)
		}
		for _, bag := range out {
			if len(bag) != 3 {
				t.Fatalf("bag %v has %d members", bag, len(bag))
			}
			allSame := true
			for _, m := range bag[1:] {
				if m.Benchmark != bag[0].Benchmark {
					allSame = false
				}
			}
			if allSame {
				t.Errorf("mixed bag %v is single-benchmark", bag)
			}
		}
	}

	// Legacy skip conditions hold at every k.
	if out, err := mixedBags([]string{"fast", "hog"}, []int{20, 40}, 3, 5); err != nil || out != nil {
		t.Errorf("two-batch registry should skip mixed bags, got %v, %v", out, err)
	}
	if out, err := mixedBags([]string{"fast", "hog"}, batches, 0, 5); err != nil || out != nil {
		t.Errorf("zero count should skip mixed bags, got %v, %v", out, err)
	}

	// End to end: a one-benchmark generator at k=3 with mixed bags
	// requested errors out of Generate instead of stalling.
	cfg := DefaultConfig()
	cfg.Benchmarks = []string{"fast"}
	cfg.BatchSizes = batches
	cfg.MixedPairs = 2
	cfg.K = 3
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Generate(); err == nil {
		t.Fatal("k=3 Generate with an unsatisfiable mixed walk did not error")
	}
}

// TestChaosKillAndResumeK4 extends the crash-equivalence invariant to a
// 4-app corpus: a journaled run killed by an injected panic, resumed by a
// fresh generator, hashes identically to an uninterrupted run; and the
// k=4 journal refuses to resume under a pair config (fingerprint guard).
func TestChaosKillAndResumeK4(t *testing.T) {
	cfg := kConfig(4)
	cfg.Workers = 8
	ref := hashCorpusK(generateWithWorkers(t, cfg, 8))
	nBags := len(mustBags(t, cfg))
	path := journalPath(t)

	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.RandomKillPlan(1, FaultSitePoint, nBags)
	gen.SetFaultInjector(faultinject.New(plan))
	_, err = gen.Resume(context.Background(), j)
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("killed k=4 run returned %v, want *parallel.PanicError", err)
	}
	// Process "death": the journal handle is abandoned un-closed.

	// A pair config must not be able to adopt the k=4 journal.
	pairCfg := smallConfig()
	if _, err := OpenJournal(path, pairCfg); err == nil {
		t.Error("k=4 journal resumed under a k=2 config; fingerprint guard missing")
	}

	c, measured := resumeToCompletion(t, cfg, path)
	if got := hashCorpusK(c); got != ref {
		t.Errorf("resumed k=4 corpus hash = %s, want uninterrupted %s", got, ref)
	}
	if measured == 0 || measured >= nBags {
		t.Errorf("resume re-measured %d of %d bags; expected a strict subset after the kill",
			measured, nBags)
	}
}

// TestBagKeyOfMatchesFmtForm pins the builder-based key to the fmt form it
// replaced ("%s/%d" per member joined by "+"), byte for byte, at k = 1..8
// and batches from 1 to vision.MaxBatch: journals, golden hashes and
// routing keys all hash these strings.
func TestBagKeyOfMatchesFmtForm(t *testing.T) {
	fmtKey := func(bag []Member) string {
		parts := make([]string, len(bag))
		for i, m := range bag {
			parts[i] = fmt.Sprintf("%s/%d", m.Benchmark, m.Batch)
		}
		return strings.Join(parts, "+")
	}
	names := vision.Names()
	batches := []int{1, 9, 10, 20, 320, 99999, vision.MaxBatch}
	for k := 1; k <= features.MaxApps; k++ {
		for off := range batches {
			bag := make([]Member, k)
			for i := range bag {
				bag[i] = Member{Benchmark: names[(i+off)%len(names)], Batch: batches[(i+off)%len(batches)]}
			}
			if got, want := BagKeyOf(bag), fmtKey(bag); got != want {
				t.Errorf("k=%d: BagKeyOf %q, fmt form %q", k, got, want)
			}
			if k == 1 && bag[0].String() != fmtKey(bag) {
				t.Errorf("Member.String %q, fmt form %q", bag[0].String(), fmtKey(bag))
			}
		}
	}
}
