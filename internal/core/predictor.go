package core

import (
	"errors"
	"fmt"

	"mapc/internal/dataset"
	"mapc/internal/features"
	"mapc/internal/ml"
)

// Predictor is the trained model: a CART regression tree over a feature
// scheme, carrying the normalization constant of its training corpus so it
// can featurize fresh bags consistently.
type Predictor struct {
	scheme       Scheme
	cols         []int
	colNames     []string
	allNames     []string
	tree         *ml.TreeRegressor
	timeDivisor  float64
	trainedOnPts int
}

// TreeParams exposes the decision-tree hyper-parameters (Section II-B3's
// pre-specified depth etc.).
type TreeParams struct {
	MaxDepth        int
	MinSamplesLeaf  int
	MinSamplesSplit int
}

// DefaultTreeParams mirror the configuration used for every figure.
func DefaultTreeParams() TreeParams {
	return TreeParams{MaxDepth: 0, MinSamplesLeaf: 1, MinSamplesSplit: 2}
}

// Train fits a predictor on the corpus with the given scheme.
func Train(c *dataset.Corpus, scheme Scheme, params TreeParams) (*Predictor, error) {
	if c == nil || len(c.Points) == 0 {
		return nil, errors.New("core: empty corpus")
	}
	d := c.Dataset()
	return trainOn(d, c, scheme, params)
}

// trainOn fits on an explicit dataset view (used by LOOCV to train on
// subsets).
func trainOn(d *ml.Dataset, c *dataset.Corpus, scheme Scheme, params TreeParams) (*Predictor, error) {
	cols, err := scheme.Columns(c.FeatureNames)
	if err != nil {
		return nil, err
	}
	colNames, err := scheme.ColumnNames(c.FeatureNames)
	if err != nil {
		return nil, err
	}
	sel, err := (&ml.Dataset{
		FeatureNames: c.FeatureNames,
		X:            d.X, Y: d.Y,
	}).SelectFeatures(colNames)
	if err != nil {
		return nil, err
	}
	tree := ml.NewTreeRegressor()
	tree.MaxDepth = params.MaxDepth
	tree.MinSamplesLeaf = params.MinSamplesLeaf
	tree.MinSamplesSplit = params.MinSamplesSplit
	if err := tree.Fit(sel); err != nil {
		return nil, err
	}
	return &Predictor{
		scheme:       scheme,
		cols:         cols,
		colNames:     colNames,
		allNames:     c.FeatureNames,
		tree:         tree,
		timeDivisor:  c.CPUTimeDivisor,
		trainedOnPts: sel.Len(),
	}, nil
}

// Scheme returns the feature scheme the predictor was trained with.
func (p *Predictor) Scheme() Scheme { return p.scheme }

// NumFeatures returns the full corpus-vector width the predictor expects as
// input to PredictRaw/PredictVector (the scheme's column subset is selected
// internally).
func (p *Predictor) NumFeatures() int { return len(p.allNames) }

// TrainedOnPoints returns how many corpus points the model was fitted on.
func (p *Predictor) TrainedOnPoints() int { return p.trainedOnPts }

// RequireScheme returns a descriptive error unless the predictor was
// trained with the given scheme. Callers that assume a particular feature
// scheme (the CLIs' -scheme flag, the serving layer) use it to refuse a
// mismatched saved model loudly instead of silently mispredicting.
func (p *Predictor) RequireScheme(s Scheme) error {
	if !p.scheme.Equal(s) {
		return fmt.Errorf(
			"core: scheme mismatch: model was trained with scheme %q (%d kinds), caller expects %q (%d kinds); retrain or pass the matching -scheme",
			p.scheme.Name, len(p.scheme.Kinds), s.Name, len(s.Kinds))
	}
	return nil
}

// FeatureNames returns the names of the model's input columns.
func (p *Predictor) FeatureNames() []string {
	return append([]string(nil), p.colNames...)
}

// Tree exposes the underlying fitted tree for introspection.
func (p *Predictor) Tree() *ml.TreeRegressor { return p.tree }

// TimeDivisor returns the Section V-C normalization constant.
func (p *Predictor) TimeDivisor() float64 { return p.timeDivisor }

// PredictVector predicts from a full (normalized) corpus-width vector.
func (p *Predictor) PredictVector(x []float64) (float64, error) {
	sel, err := p.selectCols(x)
	if err != nil {
		return 0, err
	}
	return p.tree.Predict(sel)
}

// PredictRaw predicts from a raw (un-normalized) full-width vector, e.g.
// one produced by dataset.Generator.BagFeatures. The vector is copied.
// Vectors of the wrong width are rejected with a descriptive error naming
// the model's scheme — a wrong-width vector means the caller featurized for
// a different model and any prediction would be silently wrong.
func (p *Predictor) PredictRaw(x []float64) (float64, error) {
	if len(x) != len(p.allNames) {
		return 0, fmt.Errorf(
			"core: feature vector width %d, but model (scheme %q) expects %d raw corpus features",
			len(x), p.scheme.Name, len(p.allNames))
	}
	cp := append([]float64(nil), x...)
	if err := features.ScaleTimes(p.allNames, cp, p.timeDivisor); err != nil {
		return 0, err
	}
	return p.PredictVector(cp)
}

// PathVector returns the decision path for a full-width normalized vector.
func (p *Predictor) PathVector(x []float64) ([]ml.DecisionStep, error) {
	sel, err := p.selectCols(x)
	if err != nil {
		return nil, err
	}
	return p.tree.DecisionPath(sel)
}

func (p *Predictor) selectCols(x []float64) ([]float64, error) {
	if len(x) != len(p.allNames) {
		return nil, fmt.Errorf("core: vector width %d, corpus width %d (model scheme %q)",
			len(x), len(p.allNames), p.scheme.Name)
	}
	sel := make([]float64, len(p.cols))
	for i, c := range p.cols {
		sel[i] = x[c]
	}
	return sel, nil
}

// PredictPoint predicts the GPU bag time for an existing corpus point.
func (p *Predictor) PredictPoint(pt *dataset.Point) (float64, error) {
	return p.PredictVector(pt.X)
}
