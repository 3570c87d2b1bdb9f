package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// Histogram is a discretized probability distribution: the form in which the
// metadata store keeps calibrated cloud performance. Bin i covers
// [Edges[i], Edges[i+1]) and has probability mass Probs[i]. Sampling returns
// the bin midpoint, matching the paper's "discretize the probabilistic
// performance distributions as histograms" step; the number of bins controls
// the n in the probabilistic fact "p_j : exetime(Tid,Vid,T_j)".
type Histogram struct {
	Edges []float64 // len = len(Probs)+1, strictly increasing
	Probs []float64 // non-negative, sums to 1 (within epsilon)

	cum []float64 // cumulative probabilities, built lazily by normalize
}

// NewHistogram builds a histogram from bin edges and masses. It validates
// shape, normalizes the masses to sum to 1, and precomputes the cumulative
// table used for sampling.
func NewHistogram(edges, probs []float64) (*Histogram, error) {
	if len(edges) != len(probs)+1 {
		return nil, fmt.Errorf("dist: histogram needs len(edges)=len(probs)+1, got %d and %d", len(edges), len(probs))
	}
	if len(probs) == 0 {
		return nil, fmt.Errorf("dist: histogram needs at least one bin")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			return nil, fmt.Errorf("dist: histogram edges not increasing at %d: %v <= %v", i, edges[i], edges[i-1])
		}
	}
	total := 0.0
	for _, p := range probs {
		if p < 0 || math.IsNaN(p) {
			return nil, fmt.Errorf("dist: negative or NaN bin mass %v", p)
		}
		total += p
	}
	if total <= 0 {
		return nil, fmt.Errorf("dist: histogram total mass is zero")
	}
	h := &Histogram{
		Edges: append([]float64(nil), edges...),
		Probs: make([]float64, len(probs)),
	}
	for i, p := range probs {
		h.Probs[i] = p / total
	}
	h.buildCum()
	return h, nil
}

func (h *Histogram) buildCum() {
	h.cum = make([]float64, len(h.Probs))
	c := 0.0
	for i, p := range h.Probs {
		c += p
		h.cum[i] = c
	}
	h.cum[len(h.cum)-1] = 1 // guard against fp drift
}

// FromSamples builds a histogram with the given number of equal-width bins
// spanning [min, max] of the sample. It panics if bins < 1 and returns an
// error on an empty sample. A degenerate all-equal sample produces a single
// bin of unit width centred on the value.
func FromSamples(xs []float64, bins int) (*Histogram, error) {
	if bins < 1 {
		panic("dist: bins < 1")
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("dist: no samples")
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if lo == hi {
		// All samples identical: one unit-width bin around the value.
		return NewHistogram([]float64{lo - 0.5, lo + 0.5}, []float64{1})
	}
	edges := make([]float64, bins+1)
	w := (hi - lo) / float64(bins)
	for i := range edges {
		edges[i] = lo + float64(i)*w
	}
	edges[bins] = hi // exact upper edge
	probs := make([]float64, bins)
	for _, x := range xs {
		i := int((x - lo) / w)
		if i >= bins {
			i = bins - 1
		}
		probs[i]++
	}
	return NewHistogram(edges, probs)
}

// Discretize converts any distribution into an n-bin histogram by sampling.
// The metadata store uses this to turn fitted parametric distributions back
// into the histogram form Deco's probabilistic IR consumes.
func Discretize(d Dist, n, samples int, rng *rand.Rand) (*Histogram, error) {
	xs := make([]float64, samples)
	for i := range xs {
		xs[i] = d.Sample(rng)
	}
	return FromSamples(xs, n)
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.Probs) }

// Mid returns the midpoint of bin i.
func (h *Histogram) Mid(i int) float64 { return (h.Edges[i] + h.Edges[i+1]) / 2 }

// Sample draws a bin according to the masses and returns its midpoint.
func (h *Histogram) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	i := sort.SearchFloat64s(h.cum, u)
	if i >= len(h.Probs) {
		i = len(h.Probs) - 1
	}
	return h.Mid(i)
}

// Mean returns the histogram mean (using bin midpoints).
func (h *Histogram) Mean() float64 {
	m := 0.0
	for i, p := range h.Probs {
		m += p * h.Mid(i)
	}
	return m
}

// Var returns the histogram variance (using bin midpoints).
func (h *Histogram) Var() float64 {
	m := h.Mean()
	v := 0.0
	for i, p := range h.Probs {
		d := h.Mid(i) - m
		v += p * d * d
	}
	return v
}

// Support returns the [lo, hi] range covered by the histogram.
func (h *Histogram) Support() (lo, hi float64) {
	return h.Edges[0], h.Edges[len(h.Edges)-1]
}

// String renders a compact textual sparkline of the histogram, useful in the
// experiment harness output for Figures 6-7.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hist[%d bins, %.4g..%.4g, mean=%.4g]", h.Bins(), h.Edges[0], h.Edges[len(h.Edges)-1], h.Mean())
	return b.String()
}

// Ascii renders the histogram as rows of "midpoint | ####" bars with the
// given maximum bar width, for terminal figures.
func (h *Histogram) Ascii(width int) string {
	maxP := 0.0
	for _, p := range h.Probs {
		if p > maxP {
			maxP = p
		}
	}
	var b strings.Builder
	for i, p := range h.Probs {
		n := 0
		if maxP > 0 {
			n = int(p / maxP * float64(width))
		}
		fmt.Fprintf(&b, "%12.4g | %s %.3f\n", h.Mid(i), strings.Repeat("#", n), p)
	}
	return b.String()
}
