package ml

import (
	"math"
	"testing"
	"testing/quick"

	"mapc/internal/xrand"
)

func TestSVRFitsLinearFunction(t *testing.T) {
	d := &Dataset{}
	rng := xrand.New(17)
	for i := 0; i < 60; i++ {
		x := rng.Float64()*2 - 1
		d.X = append(d.X, []float64{x})
		d.Y = append(d.Y, 2*x+0.5)
	}
	m := NewSVR()
	m.Kernel = LinearKernel{}
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	var maxErr float64
	for i, x := range d.X {
		p, err := m.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if e := math.Abs(p - d.Y[i]); e > maxErr {
			maxErr = e
		}
	}
	// Epsilon-insensitive fit: residuals should stay near the tube.
	if maxErr > 0.5 {
		t.Fatalf("max residual %v on a clean linear target", maxErr)
	}
}

func TestSVRRBFFitsSmoothFunction(t *testing.T) {
	d := &Dataset{}
	rng := xrand.New(19)
	for i := 0; i < 80; i++ {
		x := rng.Float64()*4 - 2
		d.X = append(d.X, []float64{x})
		d.Y = append(d.Y, math.Sin(x))
	}
	m := NewSVR()
	m.Kernel = RBFKernel{Gamma: 2}
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	var sumAbs float64
	for i, x := range d.X {
		p, _ := m.Predict(x)
		sumAbs += math.Abs(p - d.Y[i])
	}
	if mae := sumAbs / float64(len(d.X)); mae > 0.3 {
		t.Fatalf("RBF SVR MAE %v on sin(x)", mae)
	}
	supportVectors := 0
	for _, b := range m.beta {
		if b != 0 {
			supportVectors++
		}
	}
	if supportVectors == 0 {
		t.Error("no support vectors after fitting a non-trivial function")
	}
}

func TestRBFKernelProperties(t *testing.T) {
	k := RBFKernel{Gamma: 0.7}
	if err := quick.Check(func(a, b [3]int16) bool {
		av := []float64{float64(a[0]) / 100, float64(a[1]) / 100, float64(a[2]) / 100}
		bv := []float64{float64(b[0]) / 100, float64(b[1]) / 100, float64(b[2]) / 100}
		kab := k.Eval(av, bv)
		// Symmetry, self-similarity 1, bounded [0, 1] (distant points
		// may underflow to exactly 0).
		return kab == k.Eval(bv, av) &&
			math.Abs(k.Eval(av, av)-1) < 1e-12 &&
			kab >= 0 && kab <= 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinearKernel(t *testing.T) {
	k := LinearKernel{}
	if got := k.Eval([]float64{1, 2}, []float64{3, 4}); got != 11 {
		t.Fatalf("linear kernel = %v", got)
	}
	if k.Name() != "linear" {
		t.Errorf("name %q", k.Name())
	}
}

func TestSVRValidation(t *testing.T) {
	d := &Dataset{X: [][]float64{{1}, {2}}, Y: []float64{1, 2}}
	m := NewSVR()
	m.C = -1
	if err := m.Fit(d); err == nil {
		t.Error("negative C accepted")
	}
	m = NewSVR()
	m.Epsilon = -0.5
	if err := m.Fit(d); err == nil {
		t.Error("negative epsilon accepted")
	}
	m = NewSVR()
	if _, err := m.Predict([]float64{1}); err == nil {
		t.Error("unfitted Predict succeeded")
	}
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict([]float64{1, 2}); err == nil {
		t.Error("wrong-width vector accepted")
	}
}

func TestSVRDefaultKernel(t *testing.T) {
	d := &Dataset{X: [][]float64{{0}, {1}, {2}}, Y: []float64{0, 1, 2}}
	m := NewSVR()
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if m.Kernel == nil {
		t.Fatal("no default kernel installed")
	}
}

func TestClampAndMean(t *testing.T) {
	if clamp(5, 0, 3) != 3 || clamp(-1, 0, 3) != 0 || clamp(2, 0, 3) != 2 {
		t.Error("clamp misbehaves")
	}
	if mean(nil) != 0 {
		t.Error("mean(nil) != 0")
	}
	if mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean([1,2,3]) != 2")
	}
}
