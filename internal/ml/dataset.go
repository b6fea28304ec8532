// Package ml implements, from scratch, the supervised-learning machinery
// the paper obtains from scikit-learn (Section V-D): a CART regression tree
// with decision-path introspection, ordinary-least-squares linear
// regression, epsilon-SVR trained by SMO, k-fold and hold-out
// cross-validation, and the error metrics of Section VI. The grouped
// leave-one-out protocol of Figure 4 is core.LOOCV.
package ml

import (
	"errors"
	"fmt"

	"mapc/internal/xrand"
)

// Dataset is a supervised regression dataset: one row of X per data point
// and a target in Y.
type Dataset struct {
	// FeatureNames labels the columns of X.
	FeatureNames []string
	// X holds the feature vectors, all of equal length.
	X [][]float64
	// Y holds the regression targets.
	Y []float64
}

// Len returns the number of data points.
func (d *Dataset) Len() int { return len(d.X) }

// Validate checks the dataset's shape invariants.
func (d *Dataset) Validate() error {
	if len(d.X) == 0 {
		return errors.New("ml: empty dataset")
	}
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("ml: %d feature rows but %d targets", len(d.X), len(d.Y))
	}
	width := len(d.X[0])
	if width == 0 {
		return errors.New("ml: zero-width feature vectors")
	}
	if d.FeatureNames != nil && len(d.FeatureNames) != width {
		return fmt.Errorf("ml: %d feature names for width-%d vectors", len(d.FeatureNames), width)
	}
	for i, row := range d.X {
		if len(row) != width {
			return fmt.Errorf("ml: row %d has width %d, want %d", i, len(row), width)
		}
	}
	return nil
}

// Subset returns a new dataset containing the rows at the given indices.
// The rows are shared, not copied.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{FeatureNames: d.FeatureNames}
	out.X = make([][]float64, len(idx))
	out.Y = make([]float64, len(idx))
	for k, i := range idx {
		out.X[k] = d.X[i]
		out.Y[k] = d.Y[i]
	}
	return out
}

// SelectFeatures returns a dataset restricted to the named feature columns,
// in the order given. Unknown names are an error.
func (d *Dataset) SelectFeatures(names []string) (*Dataset, error) {
	cols := make([]int, len(names))
	for k, n := range names {
		found := -1
		for j, fn := range d.FeatureNames {
			if fn == n {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("ml: unknown feature %q", n)
		}
		cols[k] = found
	}
	out := &Dataset{
		FeatureNames: append([]string(nil), names...),
		Y:            d.Y,
		X:            make([][]float64, len(d.X)),
	}
	for i, row := range d.X {
		nr := make([]float64, len(cols))
		for k, c := range cols {
			nr[k] = row[c]
		}
		out.X[i] = nr
	}
	return out, nil
}

// Split partitions the dataset into train and test subsets with the given
// test fraction, shuffled deterministically by seed (Section V-D2's 80/20
// protocol).
func (d *Dataset) Split(testFraction float64, seed uint64) (train, test *Dataset, err error) {
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	if testFraction <= 0 || testFraction >= 1 {
		return nil, nil, fmt.Errorf("ml: test fraction %v outside (0,1)", testFraction)
	}
	perm := xrand.New(seed).Perm(d.Len())
	nTest := int(float64(d.Len()) * testFraction)
	if nTest < 1 {
		nTest = 1
	}
	if nTest >= d.Len() {
		nTest = d.Len() - 1
	}
	return d.Subset(perm[nTest:]), d.Subset(perm[:nTest]), nil
}
