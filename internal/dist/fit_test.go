package dist

import (
	"math"
	"testing"
)

func TestFitNormalRecoversParams(t *testing.T) {
	n := NewNormal(128.9, 8.4) // m1.medium random I/O, Table 2
	r := rng(9)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = n.Sample(r)
	}
	fit := FitNormal(xs)
	if math.Abs(fit.Mu-128.9) > 0.3 {
		t.Errorf("mu %v", fit.Mu)
	}
	if math.Abs(fit.Sigma-8.4) > 0.3 {
		t.Errorf("sigma %v", fit.Sigma)
	}
}

func TestFitGammaRecoversParams(t *testing.T) {
	g := NewGamma(408.1, 0.26) // m1.xlarge sequential I/O, Table 2
	r := rng(10)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = g.Sample(r)
	}
	fit, err := FitGamma(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.K-408.1)/408.1 > 0.05 {
		t.Errorf("k = %v, want ~408.1", fit.K)
	}
	if math.Abs(fit.Theta-0.26)/0.26 > 0.05 {
		t.Errorf("theta = %v, want ~0.26", fit.Theta)
	}
}

func TestFitGammaRejectsNonPositive(t *testing.T) {
	if _, err := FitGamma([]float64{-1, -2, -3}); err == nil {
		t.Error("expected error for negative sample")
	}
	if _, err := FitGamma([]float64{5, 5, 5}); err == nil {
		t.Error("expected error for zero-variance sample")
	}
}

func TestKSTestAcceptsTrueDistribution(t *testing.T) {
	n := NewNormal(0, 1)
	r := rng(20)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = n.Sample(r)
	}
	ok, stat, crit := KSTest(xs, n, 0.05)
	if !ok {
		t.Errorf("KS rejected true distribution: stat=%v crit=%v", stat, crit)
	}
}

func TestKSTestRejectsWrongDistribution(t *testing.T) {
	// Sample from Normal(0,1), test against Normal(3,1): should reject.
	n := NewNormal(0, 1)
	r := rng(21)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = n.Sample(r)
	}
	ok, _, _ := KSTest(xs, NewNormal(3, 1), 0.05)
	if ok {
		t.Error("KS failed to reject a shifted distribution")
	}
}

func TestKSAlphaLevels(t *testing.T) {
	xs := []float64{0, 0.5, 1}
	_, _, c1 := KSTest(xs, NewNormal(0, 1), 0.01)
	_, _, c5 := KSTest(xs, NewNormal(0, 1), 0.05)
	_, _, c10 := KSTest(xs, NewNormal(0, 1), 0.10)
	if !(c1 > c5 && c5 > c10) {
		t.Errorf("critical values not ordered: %v %v %v", c1, c5, c10)
	}
}

func TestRegIncGammaLowerKnown(t *testing.T) {
	// P(1, x) = 1 - e^-x.
	for _, x := range []float64{0.5, 1, 2, 10} {
		want := 1 - math.Exp(-x)
		if got := regIncGammaLower(1, x); math.Abs(got-want) > 1e-10 {
			t.Errorf("P(1,%v) = %v, want %v", x, got, want)
		}
	}
	// P(a, 0) = 0; bounds.
	if regIncGammaLower(3, 0) != 0 {
		t.Error("P(3,0) != 0")
	}
	if got := regIncGammaLower(5, 1000); math.Abs(got-1) > 1e-9 {
		t.Errorf("P(5,1000) = %v, want ~1", got)
	}
	if !math.IsNaN(regIncGammaLower(-1, 1)) {
		t.Error("negative shape should be NaN")
	}
}
