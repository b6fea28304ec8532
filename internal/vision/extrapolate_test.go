package vision

import (
	"fmt"
	"maps"
	"reflect"
	"strings"
	"testing"
)

// TestRunMatchesGolden pins Run — Sample then Extrapolate — to the values
// captured from the single-pass implementation, for every benchmark and
// pinned batch, fingerprint and summary. Extrapolating every batch from
// one reused sample per sample count matches too, so extrapolating never
// disturbs the shared sample.
func TestRunMatchesGolden(t *testing.T) {
	for _, b := range All() {
		samples := map[int]*Result{}
		for n := 1; n <= sampleCap; n++ {
			s, err := Sample(b, n, 42)
			if err != nil {
				t.Fatal(err)
			}
			samples[n] = s
		}
		for _, bs := range goldenBatches {
			res, err := Run(b, bs, 42)
			if err != nil {
				t.Fatal(err)
			}
			shared, err := Extrapolate(samples[SampleCount(bs)], bs)
			if err != nil {
				t.Fatal(err)
			}
			want := goldenFingerprints[b.Name()][bs]
			if got := res.Workload.Fingerprint(); got != want {
				t.Errorf("%s/%d: fingerprint %#x, golden %#x", b.Name(), bs, got, want)
			}
			if got := shared.Workload.Fingerprint(); got != want {
				t.Errorf("%s/%d: shared-sample fingerprint %#x, golden %#x", b.Name(), bs, got, want)
			}
			if want := goldenSummaries[b.Name()][SampleCount(bs)]; !reflect.DeepEqual(res.Summary, want) {
				t.Errorf("%s/%d: summary %v, golden %v", b.Name(), bs, res.Summary, want)
			}
		}
	}
}

// TestExtrapolateDoesNotAlias mutates one extrapolated result's phases and
// summary: the sample and a sibling extrapolated from it are unchanged.
func TestExtrapolateDoesNotAlias(t *testing.T) {
	s, err := Sample(NewORB(), 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Extrapolate(s, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Extrapolate(s, 40)
	if err != nil {
		t.Fatal(err)
	}
	sFP, bFP := s.Workload.Fingerprint(), b.Workload.Fingerprint()
	sSum, bSum := maps.Clone(s.Summary), maps.Clone(b.Summary)

	for i := range a.Workload.Phases {
		p := &a.Workload.Phases[i]
		p.Counts[0] += 7
		p.Parallelism++
		p.Launches = -1
	}
	a.Workload.Phases[0].Name = "mutated"
	for k := range a.Summary {
		a.Summary[k] = -1
	}
	a.Summary["extra"] = 1

	if s.Workload.Fingerprint() != sFP || !reflect.DeepEqual(s.Summary, sSum) {
		t.Error("mutating an extrapolated result changed its sample")
	}
	if b.Workload.Fingerprint() != bFP || !reflect.DeepEqual(b.Summary, bSum) {
		t.Error("mutating an extrapolated result changed a sibling")
	}
}

// TestSampleIsItsOwnExtrapolation: a sample of n <= sampleCap images is
// exactly Run at batch n, and extrapolating it to n changes nothing.
func TestSampleIsItsOwnExtrapolation(t *testing.T) {
	for n := 1; n <= sampleCap; n++ {
		s, err := Sample(NewSIFT(), n, 42)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(NewSIFT(), n, 42)
		if err != nil {
			t.Fatal(err)
		}
		e, err := Extrapolate(s, n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s, r) || !reflect.DeepEqual(s, e) {
			t.Errorf("n=%d: sample, Run and Extrapolate disagree", n)
		}
	}
}

func TestSampleAndExtrapolateRejectMismatches(t *testing.T) {
	for _, n := range []int{0, -1, sampleCap + 1} {
		if _, err := Sample(NewFAST(), n, 42); err == nil {
			t.Errorf("Sample accepted %d images", n)
		}
	}
	s2, err := Sample(NewFAST(), 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{1, 3, 20} {
		if _, err := Extrapolate(s2, bs); err == nil || !strings.Contains(err.Error(), "sample") {
			t.Errorf("batch %d from a 2-image sample: err = %v", bs, err)
		}
	}
}

// TestBatchLimit: batches past MaxBatch are refused before any arithmetic
// can overflow (at 2^50 the transfer volume used to wrap negative, at 2^62
// to zero with parallelism collapsed to one); MaxBatch itself extrapolates
// to a valid workload that only grew.
func TestBatchLimit(t *testing.T) {
	s, err := Sample(NewSIFT(), 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	limit := fmt.Sprintf("limit of %d", MaxBatch)
	for _, bs := range []int{MaxBatch + 1, 1 << 50, 1 << 62} {
		if _, err := Run(NewSIFT(), bs, 42); err == nil || !strings.Contains(err.Error(), limit) {
			t.Errorf("Run(batch %d): err = %v, want the limit named", bs, err)
		}
		if _, err := Extrapolate(s, bs); err == nil || !strings.Contains(err.Error(), limit) {
			t.Errorf("Extrapolate(batch %d): err = %v, want the limit named", bs, err)
		}
	}
	res, err := Extrapolate(s, MaxBatch)
	if err != nil {
		t.Fatal(err)
	}
	w := res.Workload
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.TransferBytes <= 0 || w.BatchSize != MaxBatch {
		t.Fatalf("MaxBatch: transfer %d bytes, batch %d", w.TransferBytes, w.BatchSize)
	}
	for i, p := range w.Phases {
		sp := s.Workload.Phases[i]
		if p.BatchInvariant {
			continue
		}
		if p.Parallelism < sp.Parallelism || p.Counts.Total() < sp.Counts.Total() || p.LaunchCount() < sp.LaunchCount() {
			t.Errorf("MaxBatch phase %q shrank: parallelism %d→%d, instructions %d→%d, launches %d→%d",
				p.Name, sp.Parallelism, p.Parallelism, sp.Counts.Total(), p.Counts.Total(), sp.LaunchCount(), p.LaunchCount())
		}
	}
}
