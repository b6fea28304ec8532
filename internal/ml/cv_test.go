package ml

import (
	"testing"

	"mapc/internal/xrand"
)

// cvDataset builds a grouped dataset where y is a clean function of x so
// cross-validated models generalize.
func cvDataset() *Dataset {
	d := &Dataset{FeatureNames: []string{"x"}}
	rng := xrand.New(23)
	groups := []string{"g1", "g2", "g3", "g4"}
	for i := 0; i < 80; i++ {
		x := rng.Float64() * 10
		d.X = append(d.X, []float64{x})
		d.Y = append(d.Y, 5+2*x)
		d.Groups = append(d.Groups, groups[i%len(groups)])
	}
	return d
}

func treeFactory() Regressor { return NewTreeRegressor() }

func TestKFold(t *testing.T) {
	d := cvDataset()
	errs, err := KFold(d, 5, 3, treeFactory)
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 5 {
		t.Fatalf("%d folds", len(errs))
	}
	for i, e := range errs {
		if e < 0 || e > 30 {
			t.Errorf("fold %d error %v", i, e)
		}
	}
	if _, err := KFold(d, 1, 1, treeFactory); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := KFold(d, d.Len()+1, 1, treeFactory); err == nil {
		t.Error("k > n accepted")
	}
}

func TestHoldOut(t *testing.T) {
	d := cvDataset()
	e1, err := HoldOut(d, 0.2, 9, treeFactory)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := HoldOut(d, 0.2, 9, treeFactory)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("same-seed holdout differs")
	}
	if e1 > 25 {
		t.Errorf("holdout error %v%% on clean data", e1)
	}
}

func TestCVModelsComparable(t *testing.T) {
	// Sanity across the three model families on the same clean problem:
	// all must achieve low error; this guards the shared Regressor
	// interface semantics.
	d := cvDataset()
	for _, f := range []struct {
		name string
		mk   ModelFactory
	}{
		{"tree", func() Regressor { return NewTreeRegressor() }},
		{"ols", func() Regressor { return NewLinearRegression() }},
		{"svr", func() Regressor {
			m := NewSVR()
			m.Kernel = LinearKernel{}
			m.C = 100
			return m
		}},
	} {
		e, err := HoldOut(d, 0.25, 5, f.mk)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if e > 30 {
			t.Errorf("%s holdout error %v%%", f.name, e)
		}
	}
}

func TestGridSearchKFold(t *testing.T) {
	d := cvDataset()
	grid := TreeDepthGrid(1, 0)
	results, best, err := GridSearchKFold(d, 4, 11, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	// On a clean linear target the unbounded tree must beat depth 1.
	if results[1].MeanRelErr >= results[0].MeanRelErr {
		t.Errorf("unbounded tree (%v%%) not better than depth-1 (%v%%)",
			results[1].MeanRelErr, results[0].MeanRelErr)
	}
	if best != 1 {
		t.Errorf("best index %d", best)
	}
	if results[0].Label != "depth=1" || results[1].Label != "depth=unbounded" {
		t.Errorf("labels %q %q", results[0].Label, results[1].Label)
	}
	if _, _, err := GridSearchKFold(d, 4, 1, nil); err == nil {
		t.Error("empty grid accepted")
	}
	if _, _, err := GridSearchKFold(d, 4, 1, []GridPoint{{Label: "nil"}}); err == nil {
		t.Error("nil factory accepted")
	}
}
