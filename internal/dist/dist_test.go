package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestNormalMoments(t *testing.T) {
	n := NewNormal(10, 3)
	if n.Mean() != 10 {
		t.Errorf("mean = %v, want 10", n.Mean())
	}
	if n.Var() != 9 {
		t.Errorf("var = %v, want 9", n.Var())
	}
}

func TestNormalSampleMoments(t *testing.T) {
	n := NewNormal(150.3, 50.0) // m1.small random I/O from Table 2
	r := rng(1)
	const N = 200000
	xs := make([]float64, N)
	for i := range xs {
		xs[i] = n.Sample(r)
	}
	m := MeanOf(xs)
	sd := StddevOf(xs)
	if math.Abs(m-150.3) > 0.5 {
		t.Errorf("sample mean = %v, want ~150.3", m)
	}
	if math.Abs(sd-50.0) > 0.5 {
		t.Errorf("sample stddev = %v, want ~50", sd)
	}
}

func TestNormalCDFSymmetry(t *testing.T) {
	n := NewNormal(0, 1)
	if got := n.CDF(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("CDF(0) = %v, want 0.5", got)
	}
	// Standard normal: CDF(1.96) ~ 0.975.
	if got := n.CDF(1.959964); math.Abs(got-0.975) > 1e-4 {
		t.Errorf("CDF(1.96) = %v, want ~0.975", got)
	}
}

func TestNormalZeroSigma(t *testing.T) {
	n := NewNormal(7, 0)
	if n.Sample(rng(1)) != 7 {
		t.Error("zero-sigma sample != mu")
	}
	if n.CDF(6.999) != 0 || n.CDF(7) != 1 {
		t.Error("degenerate CDF wrong")
	}
}

func TestGammaMoments(t *testing.T) {
	g := NewGamma(129.3, 0.79) // m1.small sequential I/O from Table 2
	wantMean := 129.3 * 0.79
	wantVar := 129.3 * 0.79 * 0.79
	if math.Abs(g.Mean()-wantMean) > 1e-12 {
		t.Errorf("mean = %v, want %v", g.Mean(), wantMean)
	}
	if math.Abs(g.Var()-wantVar) > 1e-12 {
		t.Errorf("var = %v, want %v", g.Var(), wantVar)
	}
}

func TestGammaSampleMoments(t *testing.T) {
	for _, tc := range []struct{ k, theta float64 }{
		{129.3, 0.79}, {376.6, 0.28}, {2.5, 1.3}, {0.7, 2.0}, // includes shape<1 branch
	} {
		g := NewGamma(tc.k, tc.theta)
		r := rng(42)
		const N = 200000
		xs := make([]float64, N)
		for i := range xs {
			xs[i] = g.Sample(r)
		}
		m := MeanOf(xs)
		if math.Abs(m-g.Mean())/g.Mean() > 0.02 {
			t.Errorf("Gamma(%v,%v): sample mean %v, want %v", tc.k, tc.theta, m, g.Mean())
		}
		v := VarOf(xs, m)
		if math.Abs(v-g.Var())/g.Var() > 0.05 {
			t.Errorf("Gamma(%v,%v): sample var %v, want %v", tc.k, tc.theta, v, g.Var())
		}
	}
}

func TestGammaSamplesPositive(t *testing.T) {
	g := NewGamma(0.5, 1.0)
	r := rng(7)
	for i := 0; i < 10000; i++ {
		if x := g.Sample(r); x <= 0 {
			t.Fatalf("non-positive gamma sample %v", x)
		}
	}
}

func TestGammaCDFKnownValues(t *testing.T) {
	// Gamma(1, 1) is Exponential(1): CDF(x) = 1 - e^-x.
	g := NewGamma(1, 1)
	for _, x := range []float64{0.1, 0.5, 1, 2, 5} {
		want := 1 - math.Exp(-x)
		if got := g.CDF(x); math.Abs(got-want) > 1e-10 {
			t.Errorf("Exp CDF(%v) = %v, want %v", x, got, want)
		}
	}
	// Gamma(k, theta) CDF at the mean is near but below the median-free value;
	// sanity: strictly increasing.
	g2 := NewGamma(3, 2)
	prev := -1.0
	for x := 0.5; x < 30; x += 0.5 {
		c := g2.CDF(x)
		if c < prev {
			t.Fatalf("CDF not monotone at %v", x)
		}
		prev = c
	}
}

func TestUniformAndConstant(t *testing.T) {
	u := NewUniform(2, 6)
	if u.Mean() != 4 {
		t.Errorf("uniform mean %v", u.Mean())
	}
	if math.Abs(u.Var()-16.0/12) > 1e-12 {
		t.Errorf("uniform var %v", u.Var())
	}
	r := rng(3)
	for i := 0; i < 1000; i++ {
		x := u.Sample(r)
		if x < 2 || x >= 6 {
			t.Fatalf("uniform sample %v out of range", x)
		}
	}
	c := Constant{V: 9}
	if c.Sample(r) != 9 || c.Mean() != 9 || c.Var() != 0 {
		t.Error("constant distribution misbehaves")
	}
}

func TestEmpirical(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	e := NewEmpirical(xs)
	if e.Len() != 5 || e.Min() != 1 || e.Max() != 5 {
		t.Fatalf("empirical order stats wrong: %v %v %v", e.Len(), e.Min(), e.Max())
	}
	if e.Mean() != 3 {
		t.Errorf("mean %v", e.Mean())
	}
	if got := e.Quantile(0.5); got != 3 {
		t.Errorf("median %v", got)
	}
	if got := e.Quantile(0); got != 1 {
		t.Errorf("q0 %v", got)
	}
	if got := e.Quantile(1); got != 5 {
		t.Errorf("q1 %v", got)
	}
	r := rng(5)
	for i := 0; i < 100; i++ {
		x := e.Sample(r)
		if x < 1 || x > 5 {
			t.Fatalf("sample %v outside observations", x)
		}
	}
}

func TestQuantileOfInterpolates(t *testing.T) {
	s := []float64{0, 10}
	if got := QuantileOf(s, 0.25); got != 2.5 {
		t.Errorf("q(0.25) = %v, want 2.5", got)
	}
	if !math.IsNaN(QuantileOf(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

// Property: for any sorted sample, quantiles are monotone in p and bounded by
// min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		e := NewEmpirical(xs)
		p1 := float64(a%101) / 100
		p2 := float64(b%101) / 100
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		q1, q2 := e.Quantile(p1), e.Quantile(p2)
		return q1 <= q2 && q1 >= e.Min() && q2 <= e.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMeanVarEdgeCases(t *testing.T) {
	if MeanOf(nil) != 0 {
		t.Error("mean of empty should be 0")
	}
	if VarOf([]float64{1}, 1) != 0 {
		t.Error("var of singleton should be 0")
	}
}

func TestNewGammaPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewGamma(0, 1)
}
