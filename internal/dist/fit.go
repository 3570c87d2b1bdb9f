package dist

import (
	"fmt"
	"math"
	"sort"
)

// This file implements the distribution-fitting half of the calibration
// pipeline: given raw micro-benchmark samples, fit Normal and Gamma
// distributions (method of moments, as is standard for Gamma calibration) and
// test the fit (Kolmogorov-Smirnov). Section 6.2 of the paper
// verifies, e.g., that m1.medium network performance "can be modeled with a
// normal distribution" via a null-hypothesis test; Table 2 reports the fitted
// parameters.

// FitNormal fits a Normal distribution to xs by maximum likelihood
// (sample mean, sample standard deviation).
func FitNormal(xs []float64) Normal {
	m := MeanOf(xs)
	return Normal{Mu: m, Sigma: math.Sqrt(VarOf(xs, m))}
}

// FitGamma fits a Gamma distribution to xs by the method of moments:
// k = mean^2/var, theta = var/mean. It returns an error if the sample mean or
// variance is non-positive (Gamma requires positive support).
func FitGamma(xs []float64) (Gamma, error) {
	m := MeanOf(xs)
	v := VarOf(xs, m)
	if m <= 0 || v <= 0 {
		return Gamma{}, fmt.Errorf("dist: cannot fit gamma: mean=%v var=%v", m, v)
	}
	return Gamma{K: m * m / v, Theta: v / m}, nil
}

// CDFer is a distribution with an analytic CDF, required by the fit tests.
type CDFer interface {
	CDF(x float64) float64
}

// CDF implements CDFer for Gamma via the regularized lower incomplete gamma
// function P(k, x/theta).
func (g Gamma) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return regIncGammaLower(g.K, x/g.Theta)
}

// regIncGammaLower computes the regularized lower incomplete gamma function
// P(a, x) using the series expansion for x < a+1 and the continued fraction
// for x >= a+1 (Numerical Recipes style).
func regIncGammaLower(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	lgA, _ := math.Lgamma(a)
	if x < a+1 {
		// Series representation.
		ap := a
		sum := 1 / a
		del := sum
		for i := 0; i < 500; i++ {
			ap++
			del *= x / ap
			sum += del
			if math.Abs(del) < math.Abs(sum)*1e-15 {
				break
			}
		}
		return sum * math.Exp(-x+a*math.Log(x)-lgA)
	}
	// Continued fraction for Q(a,x), then P = 1-Q.
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	q := math.Exp(-x+a*math.Log(x)-lgA) * h
	return 1 - q
}

// KSStatistic returns the two-sided Kolmogorov-Smirnov statistic between the
// sample xs and the theoretical distribution d.
func KSStatistic(xs []float64, d CDFer) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	maxD := 0.0
	for i, x := range s {
		f := d.CDF(x)
		d1 := math.Abs(float64(i+1)/n - f)
		d2 := math.Abs(f - float64(i)/n)
		if d1 > maxD {
			maxD = d1
		}
		if d2 > maxD {
			maxD = d2
		}
	}
	return maxD
}

// KSTest runs a Kolmogorov-Smirnov goodness-of-fit test at significance
// level alpha (supported: 0.01, 0.05, 0.10). It reports whether the null
// hypothesis "xs is drawn from d" is NOT rejected, together with the
// statistic and the critical value used.
func KSTest(xs []float64, d CDFer, alpha float64) (ok bool, stat, crit float64) {
	stat = KSStatistic(xs, d)
	var c float64
	switch {
	case alpha <= 0.01:
		c = 1.63
	case alpha <= 0.05:
		c = 1.36
	default:
		c = 1.22
	}
	crit = c / math.Sqrt(float64(len(xs)))
	return stat <= crit, stat, crit
}
