package ml

import (
	"reflect"
	"testing"
)

func groupedDataset() *Dataset {
	return &Dataset{
		FeatureNames: []string{"f0", "f1", "f2"},
		X: [][]float64{
			{1, 10, 100}, {2, 20, 200}, {3, 30, 300},
			{4, 40, 400}, {5, 50, 500}, {6, 60, 600},
		},
		Y:      []float64{1, 2, 3, 4, 5, 6},
		Groups: []string{"a", "a", "b", "b", "c", "c"},
	}
}

func TestDatasetValidate(t *testing.T) {
	if err := groupedDataset().Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	bad := []*Dataset{
		{},
		{X: [][]float64{{1}}, Y: []float64{1, 2}},
		{X: [][]float64{{1}, {1, 2}}, Y: []float64{1, 2}},
		{X: [][]float64{{}}, Y: []float64{1}},
		{X: [][]float64{{1}}, Y: []float64{1}, Groups: []string{"a", "b"}},
		{X: [][]float64{{1}}, Y: []float64{1}, FeatureNames: []string{"a", "b"}},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("bad dataset %d accepted", i)
		}
	}
}

func TestSubset(t *testing.T) {
	d := groupedDataset()
	s := d.Subset([]int{0, 3, 5})
	if s.Len() != 3 {
		t.Fatalf("subset len %d", s.Len())
	}
	if s.Y[1] != 4 || s.Groups[2] != "c" {
		t.Errorf("subset rows wrong: %v %v", s.Y, s.Groups)
	}
	// Rows are shared, not copied.
	s.X[0][0] = 99
	if d.X[0][0] != 99 {
		t.Error("Subset copied rows")
	}
}

func TestSelectFeatures(t *testing.T) {
	d := groupedDataset()
	s, err := d.SelectFeatures([]string{"f2", "f0"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.FeatureNames, []string{"f2", "f0"}) {
		t.Errorf("names %v", s.FeatureNames)
	}
	if s.X[0][0] != 100 || s.X[0][1] != 1 {
		t.Errorf("row 0 = %v", s.X[0])
	}
	if _, err := d.SelectFeatures([]string{"missing"}); err == nil {
		t.Error("unknown feature accepted")
	}
}

func TestSplit(t *testing.T) {
	d := groupedDataset()
	train, test, err := d.Split(0.34, 7)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len()+test.Len() != d.Len() {
		t.Fatalf("split sizes %d + %d", train.Len(), test.Len())
	}
	if test.Len() != 2 {
		t.Fatalf("test size %d, want 2", test.Len())
	}
	// Deterministic per seed.
	_, test2, err := d.Split(0.34, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(test.Y, test2.Y) {
		t.Error("same-seed splits differ")
	}
	if _, _, err := d.Split(0, 1); err == nil {
		t.Error("zero fraction accepted")
	}
	if _, _, err := d.Split(1, 1); err == nil {
		t.Error("fraction 1 accepted")
	}
}
