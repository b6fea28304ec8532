package ml

import (
	"math"
	"testing"

	"mapc/internal/xrand"
)

func TestForestFitsSmoothFunction(t *testing.T) {
	d := &Dataset{}
	rng := xrand.New(29)
	for i := 0; i < 200; i++ {
		x0 := rng.Float64() * 4
		x1 := rng.Float64() * 4
		d.X = append(d.X, []float64{x0, x1})
		d.Y = append(d.Y, x0*x0+x1)
	}
	f := NewForestRegressor()
	f.Trees = 40
	f.FeatureFraction = 1
	if err := f.Fit(d); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 40 {
		t.Fatalf("ensemble size %d", f.Size())
	}
	var sumAbs float64
	for i, x := range d.X {
		p, err := f.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		sumAbs += math.Abs(p - d.Y[i])
	}
	if mae := sumAbs / float64(len(d.X)); mae > 1.5 {
		t.Fatalf("forest MAE %v on smooth target", mae)
	}
}

func TestForestVarianceReduction(t *testing.T) {
	// With a noisy target, the forest's held-out error should not exceed
	// a single unpruned tree's by much — and usually improves it.
	train := &Dataset{}
	test := &Dataset{}
	rng := xrand.New(31)
	fill := func(d *Dataset, n int) {
		for i := 0; i < n; i++ {
			x := rng.Float64() * 10
			d.X = append(d.X, []float64{x})
			d.Y = append(d.Y, 10+x+rng.NormFloat64())
		}
	}
	fill(train, 120)
	fill(test, 60)

	tree := NewTreeRegressor()
	if err := tree.Fit(train); err != nil {
		t.Fatal(err)
	}
	forest := NewForestRegressor()
	forest.Trees = 60
	forest.FeatureFraction = 1
	if err := forest.Fit(train); err != nil {
		t.Fatal(err)
	}
	tp, _ := tree.PredictAll(test.X)
	fp, _ := forest.PredictAll(test.X)
	mse := func(yhat []float64) float64 {
		var s float64
		for i, y := range test.Y {
			s += (y - yhat[i]) * (y - yhat[i])
		}
		return s / float64(len(test.Y))
	}
	treeMSE, forestMSE := mse(tp), mse(fp)
	if forestMSE > treeMSE*1.1 {
		t.Fatalf("forest MSE %v worse than single tree %v", forestMSE, treeMSE)
	}
}

func TestForestDeterminism(t *testing.T) {
	d := xorDataset()
	mk := func() *ForestRegressor {
		f := NewForestRegressor()
		f.Trees = 10
		f.Seed = 99
		return f
	}
	a, b := mk(), mk()
	if err := a.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(d); err != nil {
		t.Fatal(err)
	}
	for _, x := range d.X {
		pa, _ := a.Predict(x)
		pb, _ := b.Predict(x)
		if pa != pb {
			t.Fatal("same-seed forests diverge")
		}
	}
}

func TestForestErrors(t *testing.T) {
	f := NewForestRegressor()
	if _, err := f.Predict([]float64{1}); err == nil {
		t.Error("unfitted Predict succeeded")
	}
	f.Trees = 0
	if err := f.Fit(xorDataset()); err == nil {
		t.Error("zero trees accepted")
	}
	f = NewForestRegressor()
	f.FeatureFraction = 2
	if err := f.Fit(xorDataset()); err == nil {
		t.Error("feature fraction > 1 accepted")
	}
	f = NewForestRegressor()
	f.Trees = 5
	if err := f.Fit(xorDataset()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Predict([]float64{1}); err == nil {
		t.Error("wrong-width vector accepted")
	}
}
