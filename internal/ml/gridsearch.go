package ml

import (
	"errors"
	"fmt"
)

// GridPoint is one hyper-parameter candidate: a label plus a factory that
// builds the corresponding model.
type GridPoint struct {
	Label   string
	Factory ModelFactory
}

// GridResult reports one candidate's cross-validated error.
type GridResult struct {
	Label string
	// MeanRelErr is the mean over folds of the fold mean relative error.
	MeanRelErr float64
}

// GridSearchKFold evaluates every candidate with k-fold cross-validation on
// d and returns the results in candidate order plus the index of the best
// (lowest mean error) candidate. The same fold split (seed) is used for all
// candidates so the comparison is paired.
func GridSearchKFold(d *Dataset, k int, seed uint64, grid []GridPoint) ([]GridResult, int, error) {
	if len(grid) == 0 {
		return nil, -1, errors.New("ml: empty hyper-parameter grid")
	}
	out := make([]GridResult, len(grid))
	best := -1
	for i, g := range grid {
		if g.Factory == nil {
			return nil, -1, fmt.Errorf("ml: grid point %q has nil factory", g.Label)
		}
		perFold, err := KFold(d, k, seed, g.Factory)
		if err != nil {
			return nil, -1, fmt.Errorf("ml: grid point %q: %w", g.Label, err)
		}
		out[i] = GridResult{Label: g.Label, MeanRelErr: Mean(perFold)}
		if best < 0 || out[i].MeanRelErr < out[best].MeanRelErr {
			best = i
		}
	}
	return out, best, nil
}

// TreeDepthGrid builds a grid over tree depth bounds (0 = unbounded), the
// hyper-parameter Section II-B3 singles out.
func TreeDepthGrid(depths ...int) []GridPoint {
	grid := make([]GridPoint, len(depths))
	for i, d := range depths {
		d := d
		label := fmt.Sprintf("depth=%d", d)
		if d == 0 {
			label = "depth=unbounded"
		}
		grid[i] = GridPoint{
			Label: label,
			Factory: func() Regressor {
				t := NewTreeRegressor()
				t.MaxDepth = d
				return t
			},
		}
	}
	return grid
}
