package vision

import (
	"reflect"
	"testing"

	"mapc/internal/isa"
)

func TestAllBenchmarksRun(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			res, err := Run(b, 20, 42)
			if err != nil {
				t.Fatal(err)
			}
			w := res.Workload
			if err := w.Validate(); err != nil {
				t.Fatalf("invalid workload: %v", err)
			}
			if w.Benchmark != b.Name() {
				t.Errorf("workload benchmark %q", w.Benchmark)
			}
			if w.Instructions() == 0 {
				t.Error("no instructions recorded")
			}
			if w.TransferBytes <= 0 {
				t.Error("no transfer bytes recorded")
			}
			if len(res.Summary) == 0 {
				t.Error("empty functional summary")
			}
		})
	}
}

func TestRunRejectsBadBatch(t *testing.T) {
	if _, err := Run(NewFAST(), 0, 1); err == nil {
		t.Fatal("batch 0 accepted")
	}
	if _, err := Run(NewFAST(), -5, 1); err == nil {
		t.Fatal("negative batch accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	for _, b := range []Benchmark{NewFAST(), NewSIFT(), NewSVM()} {
		r1, err := Run(b, 40, 7)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Run(b, 40, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1.Workload, r2.Workload) {
			t.Errorf("%s: workloads differ across identical runs", b.Name())
		}
		if !reflect.DeepEqual(r1.Summary, r2.Summary) {
			t.Errorf("%s: summaries differ across identical runs", b.Name())
		}
	}
}

func TestSeedChangesWorkload(t *testing.T) {
	a, err := Run(NewFAST(), 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(NewFAST(), 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Workload.TotalCounts(), b.Workload.TotalCounts()) {
		t.Error("different seeds produced identical dynamic counts")
	}
}

func TestInstructionsGrowWithBatch(t *testing.T) {
	for _, b := range All() {
		small, err := Run(b, 20, 42)
		if err != nil {
			t.Fatal(err)
		}
		big, err := Run(b, 160, 42)
		if err != nil {
			t.Fatal(err)
		}
		si, bi := small.Workload.Instructions(), big.Workload.Instructions()
		if bi <= si {
			t.Errorf("%s: instructions did not grow with batch (%d -> %d)", b.Name(), si, bi)
		}
		// Growth should be roughly linear in batch (within 2x slack for
		// batch-invariant phases).
		if float64(bi) > float64(si)*16 {
			t.Errorf("%s: superlinear growth %d -> %d", b.Name(), si, bi)
		}
	}
}

func TestMixesAreBatchStable(t *testing.T) {
	// Instruction-mix percentages identify the algorithm, not the input
	// size; they must barely move across batches.
	for _, b := range All() {
		small, err := Run(b, 20, 42)
		if err != nil {
			t.Fatal(err)
		}
		big, err := Run(b, 320, 42)
		if err != nil {
			t.Fatal(err)
		}
		ms := small.Workload.TotalCounts().Mix()
		mb := big.Workload.TotalCounts().Mix()
		for c := isa.Category(0); c < isa.NumCategories; c++ {
			if diff := ms[c] - mb[c]; diff > 0.12 || diff < -0.12 {
				t.Errorf("%s: %v fraction moved %.3f -> %.3f across batches",
					b.Name(), c, ms[c], mb[c])
			}
		}
	}
}

func TestMixesDifferAcrossBenchmarks(t *testing.T) {
	// The suite must be diverse: every pair of benchmarks should differ
	// in at least one mix category by a few points.
	mixes := map[string][isa.NumCategories]float64{}
	for _, b := range All() {
		res, err := Run(b, 20, 42)
		if err != nil {
			t.Fatal(err)
		}
		mixes[b.Name()] = res.Workload.TotalCounts().Mix()
	}
	names := Names()
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			var maxDiff float64
			for c := isa.Category(0); c < isa.NumCategories; c++ {
				d := mixes[names[i]][c] - mixes[names[j]][c]
				if d < 0 {
					d = -d
				}
				if d > maxDiff {
					maxDiff = d
				}
			}
			if maxDiff < 0.01 {
				t.Errorf("%s and %s have nearly identical mixes (max diff %.4f)",
					names[i], names[j], maxDiff)
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, n := range Names() {
		b, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name() != n {
			t.Errorf("ByName(%q).Name() = %q", n, b.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestRegistryTableMatchesConstructors holds the name table to what the
// constructors build: the same names in the same plotting order, a fresh
// instance on every ByName, and one error for every unknown name whether
// it was looked up to build or only to check.
func TestRegistryTableMatchesConstructors(t *testing.T) {
	names, all := Names(), All()
	if len(names) != len(all) {
		t.Fatalf("%d names, %d benchmarks", len(names), len(all))
	}
	again := All()
	for i, n := range names {
		if all[i].Name() != n {
			t.Errorf("Names()[%d] = %q, All()[%d].Name() = %q", i, n, i, all[i].Name())
		}
		if all[i] == again[i] {
			t.Errorf("All() returned the same %s instance twice", n)
		}
		a, errA := ByName(n)
		b, errB := ByName(n)
		if errA != nil || errB != nil {
			t.Fatalf("ByName(%q): %v, %v", n, errA, errB)
		}
		if a == b {
			t.Errorf("ByName(%q) returned the same instance twice", n)
		}
		if err := CheckName(n); err != nil {
			t.Errorf("CheckName(%q) = %v", n, err)
		}
	}
	const want = `vision: unknown benchmark "nope" (known: [facedet fast hog knn objrec orb sift surf svm])`
	if _, err := ByName("nope"); err == nil || err.Error() != want {
		t.Errorf("ByName(nope) error %v, want %s", err, want)
	}
	if err := CheckName("nope"); err == nil || err.Error() != want {
		t.Errorf("CheckName(nope) error %v, want %s", err, want)
	}
}

// TestCheckNameAllocatesNothing pins that validating a known name builds
// no benchmark (ORB alone allocates its BRIEF pattern).
func TestCheckNameAllocatesNothing(t *testing.T) {
	names := Names()
	allocs := testing.AllocsPerRun(100, func() {
		for _, n := range names {
			if err := CheckName(n); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("CheckName allocates %.0f objects per pass over the suite, want 0", allocs)
	}
}

func TestNamesMatchesPaperOrder(t *testing.T) {
	want := []string{"fast", "hog", "knn", "objrec", "orb", "sift", "surf", "svm", "facedet"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v", got)
	}
}

func TestScaleWorkloadLaunches(t *testing.T) {
	res, err := Run(NewFAST(), 60, 42) // sample 3 -> factor 20
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Workload.Phases {
		if p.LaunchCount() != 20 {
			t.Fatalf("phase %q launches = %d, want 20", p.Name, p.LaunchCount())
		}
	}
}

func TestSmallBatchNotScaled(t *testing.T) {
	res, err := Run(NewFAST(), 2, 42) // within sampleCap
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Workload.Phases {
		if p.LaunchCount() != 1 {
			t.Fatalf("unsampled phase %q has launches %d", p.Name, p.LaunchCount())
		}
	}
}
