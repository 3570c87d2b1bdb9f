// Package dist provides the probability-distribution toolkit Deco uses to
// model cloud performance dynamics: parametric distributions (Normal, Gamma,
// Uniform), empirical samples, discretized histograms, distribution fitting,
// and goodness-of-fit tests.
//
// The paper models sequential I/O performance with Gamma distributions,
// random I/O and network performance with Normal distributions (Table 2,
// Figures 6-7), discretizes them as histograms in the metadata store, and
// samples from the histograms during Monte-Carlo evaluation. This package
// implements all of those pieces with the standard library only.
package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Dist is a one-dimensional probability distribution over float64 values.
type Dist interface {
	// Sample draws one value using rng.
	Sample(rng *rand.Rand) float64
	// Mean returns the distribution mean.
	Mean() float64
	// Var returns the distribution variance.
	Var() float64
	// String describes the distribution.
	String() string
}

// Normal is a Gaussian distribution with mean Mu and standard deviation Sigma.
type Normal struct {
	Mu    float64
	Sigma float64
}

// NewNormal returns a Normal distribution. Sigma must be non-negative.
func NewNormal(mu, sigma float64) Normal {
	if sigma < 0 {
		panic(fmt.Sprintf("dist: negative sigma %v", sigma))
	}
	return Normal{Mu: mu, Sigma: sigma}
}

// Sample draws from the Gaussian using the polar method provided by math/rand.
func (n Normal) Sample(rng *rand.Rand) float64 {
	return n.Mu + n.Sigma*rng.NormFloat64()
}

// Mean returns Mu.
func (n Normal) Mean() float64 { return n.Mu }

// Var returns Sigma^2.
func (n Normal) Var() float64 { return n.Sigma * n.Sigma }

// CDF returns P(X <= x).
func (n Normal) CDF(x float64) float64 {
	if n.Sigma == 0 {
		if x < n.Mu {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc(-(x-n.Mu)/(n.Sigma*math.Sqrt2))
}

// String implements fmt.Stringer.
func (n Normal) String() string {
	return fmt.Sprintf("Normal(mu=%.4g, sigma=%.4g)", n.Mu, n.Sigma)
}

// Gamma is a Gamma distribution with shape K and scale Theta.
type Gamma struct {
	K     float64 // shape
	Theta float64 // scale
}

// NewGamma returns a Gamma distribution. Both parameters must be positive.
func NewGamma(k, theta float64) Gamma {
	if k <= 0 || theta <= 0 {
		panic(fmt.Sprintf("dist: non-positive gamma params k=%v theta=%v", k, theta))
	}
	return Gamma{K: k, Theta: theta}
}

// Sample draws from the Gamma distribution using the Marsaglia-Tsang method.
func (g Gamma) Sample(rng *rand.Rand) float64 {
	k := g.K
	boost := 1.0
	if k < 1 {
		// Boost shape to >= 1 then correct with a uniform power.
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		boost = math.Pow(u, 1/k)
		k++
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = rng.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return boost * d * v * g.Theta
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return boost * d * v * g.Theta
		}
	}
}

// Mean returns K*Theta.
func (g Gamma) Mean() float64 { return g.K * g.Theta }

// Var returns K*Theta^2.
func (g Gamma) Var() float64 { return g.K * g.Theta * g.Theta }

// String implements fmt.Stringer.
func (g Gamma) String() string {
	return fmt.Sprintf("Gamma(k=%.4g, theta=%.4g)", g.K, g.Theta)
}

// Uniform is a continuous uniform distribution on [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

// NewUniform returns a Uniform distribution; requires Lo <= Hi.
func NewUniform(lo, hi float64) Uniform {
	if lo > hi {
		panic(fmt.Sprintf("dist: uniform lo=%v > hi=%v", lo, hi))
	}
	return Uniform{Lo: lo, Hi: hi}
}

// Sample draws uniformly from [Lo, Hi).
func (u Uniform) Sample(rng *rand.Rand) float64 {
	return u.Lo + (u.Hi-u.Lo)*rng.Float64()
}

// Mean returns the midpoint.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// Var returns (Hi-Lo)^2/12.
func (u Uniform) Var() float64 { d := u.Hi - u.Lo; return d * d / 12 }

// String implements fmt.Stringer.
func (u Uniform) String() string {
	return fmt.Sprintf("Uniform(%.4g, %.4g)", u.Lo, u.Hi)
}

// Constant is a degenerate distribution that always yields V. It models the
// paper's observation that CPU performance is "rather stable in the cloud".
type Constant struct {
	V float64
}

// Sample returns V.
func (c Constant) Sample(*rand.Rand) float64 { return c.V }

// Mean returns V.
func (c Constant) Mean() float64 { return c.V }

// Var returns 0.
func (c Constant) Var() float64 { return 0 }

// String implements fmt.Stringer.
func (c Constant) String() string { return fmt.Sprintf("Constant(%.4g)", c.V) }

// Empirical is the empirical distribution of a measured sample, used by the
// calibration pipeline before a parametric fit is chosen.
type Empirical struct {
	sorted []float64
	mean   float64
	vr     float64
}

// NewEmpirical copies xs and precomputes order statistics and moments.
// It panics on an empty sample.
func NewEmpirical(xs []float64) *Empirical {
	if len(xs) == 0 {
		panic("dist: empty empirical sample")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := MeanOf(s)
	return &Empirical{sorted: s, mean: m, vr: VarOf(s, m)}
}

// Sample draws one of the observed values uniformly.
func (e *Empirical) Sample(rng *rand.Rand) float64 {
	return e.sorted[rng.Intn(len(e.sorted))]
}

// Mean returns the sample mean.
func (e *Empirical) Mean() float64 { return e.mean }

// Var returns the (unbiased) sample variance.
func (e *Empirical) Var() float64 { return e.vr }

// Len returns the sample size.
func (e *Empirical) Len() int { return len(e.sorted) }

// Min returns the smallest observation.
func (e *Empirical) Min() float64 { return e.sorted[0] }

// Max returns the largest observation.
func (e *Empirical) Max() float64 { return e.sorted[len(e.sorted)-1] }

// Quantile returns the p-th quantile of the sample (linear interpolation),
// p in [0, 1].
func (e *Empirical) Quantile(p float64) float64 {
	return QuantileOf(e.sorted, p)
}

// String implements fmt.Stringer.
func (e *Empirical) String() string {
	return fmt.Sprintf("Empirical(n=%d, mean=%.4g)", len(e.sorted), e.mean)
}

// MeanOf returns the arithmetic mean of xs (0 for an empty slice).
func MeanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// VarOf returns the unbiased sample variance of xs around mean (0 if n < 2).
func VarOf(xs []float64, mean float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		d := x - mean
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StddevOf returns the unbiased sample standard deviation of xs.
func StddevOf(xs []float64) float64 {
	return math.Sqrt(VarOf(xs, MeanOf(xs)))
}

// QuantileOf returns the p-th quantile of a *sorted* sample using linear
// interpolation between order statistics. p is clamped to [0,1].
func QuantileOf(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= n {
		return sorted[n-1]
	}
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}
