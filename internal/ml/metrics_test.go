package ml

import (
	"math"
	"testing"
)

func TestRelativeErrors(t *testing.T) {
	errs, err := RelativeErrors([]float64{10, 20}, []float64{11, 15})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(errs[0]-10) > 1e-12 || math.Abs(errs[1]-25) > 1e-12 {
		t.Fatalf("relative errors %v", errs)
	}
	if _, err := RelativeErrors([]float64{0}, []float64{1}); err == nil {
		t.Error("zero truth accepted")
	}
}

func TestMeanRelativeError(t *testing.T) {
	got, err := MeanRelativeError([]float64{10, 20}, []float64{11, 15})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-17.5) > 1e-12 {
		t.Fatalf("mean relative error %v", got)
	}
}

func TestMetricErrors(t *testing.T) {
	if _, err := MeanRelativeError(nil, nil); err == nil {
		t.Error("empty vectors accepted")
	}
	if _, err := MeanRelativeError([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil)")
	}
	if Mean([]float64{2, 4}) != 3 {
		t.Error("Mean([2,4])")
	}
}
