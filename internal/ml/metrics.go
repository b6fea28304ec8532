package ml

import (
	"errors"
	"fmt"
	"math"
)

// Regressor is the interface shared by every model in this package, letting
// the evaluation harness treat trees, linear models and SVRs uniformly.
type Regressor interface {
	Fit(d *Dataset) error
	Predict(x []float64) (float64, error)
	PredictAll(X [][]float64) ([]float64, error)
}

// Compile-time interface checks.
var (
	_ Regressor = (*TreeRegressor)(nil)
	_ Regressor = (*LinearRegression)(nil)
	_ Regressor = (*SVR)(nil)
)

// RelativeErrors returns |(true-pred)/true|*100 per point — the paper's
// error definition (Section VI). Zero-valued truths are an error because
// the metric is undefined there.
func RelativeErrors(y, yhat []float64) ([]float64, error) {
	if err := sameLen(y, yhat); err != nil {
		return nil, err
	}
	out := make([]float64, len(y))
	for i := range y {
		if y[i] == 0 {
			return nil, fmt.Errorf("ml: relative error undefined for zero truth at index %d", i)
		}
		out[i] = math.Abs((y[i]-yhat[i])/y[i]) * 100
	}
	return out, nil
}

// PointRelativeError returns the paper's per-point relative error
// |truth-pred|/|truth|*100 and ok=false when truth is zero (the metric is
// undefined there; CLIs print "n/a" instead of NaN/Inf). This is the shared
// helper behind every single-point error report.
func PointRelativeError(truth, pred float64) (relPct float64, ok bool) {
	if truth == 0 {
		return 0, false
	}
	return math.Abs((truth-pred)/truth) * 100, true
}

// MeanRelativeError returns the mean of RelativeErrors — the headline
// metric of Figures 4-9.
func MeanRelativeError(y, yhat []float64) (float64, error) {
	errs, err := RelativeErrors(y, yhat)
	if err != nil {
		return 0, err
	}
	return Mean(errs), nil
}

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(v []float64) float64 { return mean(v) }

func sameLen(y, yhat []float64) error {
	if len(y) == 0 {
		return errors.New("ml: empty prediction vectors")
	}
	if len(y) != len(yhat) {
		return fmt.Errorf("ml: %d truths but %d predictions", len(y), len(yhat))
	}
	return nil
}
