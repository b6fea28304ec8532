package ml

import (
	"errors"
	"fmt"
	"math"

	"mapc/internal/xrand"
)

// Kernel is a similarity function between feature vectors (Section II-B2).
type Kernel interface {
	// Eval returns k(a, b).
	Eval(a, b []float64) float64
	// Name identifies the kernel in reports.
	Name() string
}

// LinearKernel is the inner-product kernel.
type LinearKernel struct{}

// Eval implements Kernel.
func (LinearKernel) Eval(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Name implements Kernel.
func (LinearKernel) Name() string { return "linear" }

// RBFKernel is the Gaussian radial-basis-function kernel
// k(a,b) = exp(-gamma*||a-b||²).
type RBFKernel struct {
	Gamma float64
}

// Eval implements Kernel.
func (k RBFKernel) Eval(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return math.Exp(-k.Gamma * d2)
}

// Name implements Kernel.
func (k RBFKernel) Name() string { return fmt.Sprintf("rbf(gamma=%g)", k.Gamma) }

// SVR is epsilon-insensitive support vector regression trained with a
// simplified SMO optimizer — the paper's rejected alternative model, kept
// for the Section V-D comparison (its error was ~10x the tree's on this
// problem because the sparse data cannot pin down a unique hyperplane).
type SVR struct {
	// C is the box constraint on the dual variables.
	C float64
	// Epsilon is the width of the insensitive tube.
	Epsilon float64
	// Kernel defaults to RBF with gamma=1/width when nil.
	Kernel Kernel
	// MaxPasses bounds SMO sweeps without progress.
	MaxPasses int
	// Seed drives the SMO partner-selection randomness.
	Seed uint64

	x      [][]float64
	beta   []float64 // beta_i = alpha_i - alpha_i^*
	bias   float64
	fitted bool
}

// NewSVR returns an SVR with conventional hyper-parameters (C=10, eps=0.05).
func NewSVR() *SVR {
	return &SVR{C: 10, Epsilon: 0.05, MaxPasses: 5, Seed: 1}
}

// Fit trains the model on the dataset.
func (m *SVR) Fit(d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if m.C <= 0 {
		return errors.New("ml: SVR C must be positive")
	}
	if m.Epsilon < 0 {
		return errors.New("ml: SVR epsilon must be non-negative")
	}
	if m.Kernel == nil {
		m.Kernel = RBFKernel{Gamma: 1 / float64(len(d.X[0]))}
	}
	if m.MaxPasses <= 0 {
		m.MaxPasses = 5
	}

	n := d.Len()
	m.x = d.X
	m.beta = make([]float64, n)
	m.bias = mean(d.Y)

	// Cache the kernel matrix: the datasets here are small (~100 points),
	// exactly the regime the paper works in.
	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := m.Kernel.Eval(d.X[i], d.X[j])
			k[i][j] = v
			k[j][i] = v
		}
	}

	f := func(i int) float64 {
		s := m.bias
		for j := 0; j < n; j++ {
			if m.beta[j] != 0 {
				s += m.beta[j] * k[i][j]
			}
		}
		return s
	}

	rng := xrand.New(m.Seed)
	passes := 0
	for total := 0; passes < m.MaxPasses && total < 60; total++ {
		changed := 0
		for i := 0; i < n; i++ {
			ei := f(i) - d.Y[i]
			// KKT check for the epsilon tube.
			violates := (ei > m.Epsilon && m.beta[i] > -m.C) ||
				(ei < -m.Epsilon && m.beta[i] < m.C)
			if !violates {
				continue
			}
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			ej := f(j) - d.Y[j]
			eta := k[i][i] + k[j][j] - 2*k[i][j]
			if eta <= 1e-12 {
				continue
			}
			// Joint optimization preserving beta_i + beta_j keeps the
			// equality constraint sum(beta)=0 satisfied.
			delta := (ej - ei) / eta
			oldI, oldJ := m.beta[i], m.beta[j]
			bi := clamp(oldI+delta, -m.C, m.C)
			delta = bi - oldI
			bj := clamp(oldJ-delta, -m.C, m.C)
			delta = oldJ - bj
			bi = oldI + delta
			if math.Abs(bi-oldI) < 1e-12 {
				continue
			}
			m.beta[i] = bi
			m.beta[j] = bj
			// Re-centre the bias on the current residuals.
			m.bias -= (ei + ej) / (2 * float64(n))
			changed++
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}

	// Final bias: average residual over the tube-interior points.
	var resid float64
	var cnt int
	for i := 0; i < n; i++ {
		if math.Abs(m.beta[i]) < m.C-1e-9 {
			resid += d.Y[i] - (f(i) - m.bias)
			cnt++
		}
	}
	if cnt > 0 {
		m.bias = resid / float64(cnt)
	}
	m.fitted = true
	return nil
}

// Predict evaluates the fitted model at x.
func (m *SVR) Predict(x []float64) (float64, error) {
	if !m.fitted {
		return 0, errors.New("ml: SVR not fitted")
	}
	if len(x) != len(m.x[0]) {
		return 0, fmt.Errorf("ml: feature vector width %d, model expects %d", len(x), len(m.x[0]))
	}
	s := m.bias
	for i, b := range m.beta {
		if b != 0 {
			s += b * m.Kernel.Eval(m.x[i], x)
		}
	}
	return s, nil
}

// PredictAll predicts every row of X.
func (m *SVR) PredictAll(X [][]float64) ([]float64, error) {
	out := make([]float64, len(X))
	for i, x := range X {
		v, err := m.Predict(x)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
