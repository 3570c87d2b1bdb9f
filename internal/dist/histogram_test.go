package dist

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewHistogramValidation(t *testing.T) {
	cases := []struct {
		name  string
		edges []float64
		probs []float64
	}{
		{"shape mismatch", []float64{0, 1}, []float64{0.5, 0.5}},
		{"no bins", []float64{0}, nil},
		{"non-increasing", []float64{0, 0, 1}, []float64{0.5, 0.5}},
		{"negative mass", []float64{0, 1, 2}, []float64{-1, 2}},
		{"zero mass", []float64{0, 1}, []float64{0}},
		{"nan mass", []float64{0, 1}, []float64{math.NaN()}},
	}
	for _, c := range cases {
		if _, err := NewHistogram(c.edges, c.probs); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestHistogramNormalizes(t *testing.T) {
	h, err := NewHistogram([]float64{0, 1, 2}, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h.Probs[0]-0.75) > 1e-12 || math.Abs(h.Probs[1]-0.25) > 1e-12 {
		t.Errorf("probs not normalized: %v", h.Probs)
	}
}

func TestHistogramMeanVar(t *testing.T) {
	h, err := NewHistogram([]float64{0, 2, 4}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Midpoints 1 and 3 with equal mass.
	if h.Mean() != 2 {
		t.Errorf("mean %v", h.Mean())
	}
	if h.Var() != 1 {
		t.Errorf("var %v", h.Var())
	}
}

func TestHistogramSampleDistribution(t *testing.T) {
	h, err := NewHistogram([]float64{0, 1, 2, 3}, []float64{0.2, 0.5, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	r := rng(11)
	counts := map[float64]int{}
	const N = 100000
	for i := 0; i < N; i++ {
		counts[h.Sample(r)]++
	}
	for i, want := range []float64{0.2, 0.5, 0.3} {
		got := float64(counts[h.Mid(i)]) / N
		if math.Abs(got-want) > 0.01 {
			t.Errorf("bin %d frequency %v, want %v", i, got, want)
		}
	}
}

func TestFromSamples(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	h, err := FromSamples(xs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if h.Bins() != 5 {
		t.Fatalf("bins %d", h.Bins())
	}
	total := 0.0
	for _, p := range h.Probs {
		total += p
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("total mass %v", total)
	}
	lo, hi := h.Support()
	if lo != 0 || hi != 9 {
		t.Errorf("support %v..%v", lo, hi)
	}
}

func TestFromSamplesDegenerate(t *testing.T) {
	h, err := FromSamples([]float64{4, 4, 4}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.Bins() != 1 {
		t.Fatalf("degenerate sample should make 1 bin, got %d", h.Bins())
	}
	if h.Mid(0) != 4 {
		t.Errorf("mid %v", h.Mid(0))
	}
	if _, err := FromSamples(nil, 3); err == nil {
		t.Error("empty sample should error")
	}
}

func TestDiscretizeRecoverMoments(t *testing.T) {
	n := NewNormal(100, 10)
	h, err := Discretize(n, 50, 100000, rng(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h.Mean()-100) > 1 {
		t.Errorf("discretized mean %v", h.Mean())
	}
	if math.Abs(math.Sqrt(h.Var())-10) > 1 {
		t.Errorf("discretized sd %v", math.Sqrt(h.Var()))
	}
}

func TestHistogramAsciiAndString(t *testing.T) {
	h, _ := NewHistogram([]float64{0, 1, 2}, []float64{0.25, 0.75})
	if !strings.Contains(h.String(), "2 bins") {
		t.Errorf("String() = %q", h.String())
	}
	a := h.Ascii(20)
	if !strings.Contains(a, "#") {
		t.Errorf("Ascii missing bars: %q", a)
	}
	if strings.Count(a, "\n") != 2 {
		t.Errorf("Ascii should have one line per bin")
	}
}

// Property: histogram sampling only produces bin midpoints.
func TestHistogramSamplePropertyQuick(t *testing.T) {
	f := func(seed int64, massesRaw []uint8) bool {
		if len(massesRaw) == 0 {
			massesRaw = []uint8{1}
		}
		if len(massesRaw) > 20 {
			massesRaw = massesRaw[:20]
		}
		edges := make([]float64, len(massesRaw)+1)
		probs := make([]float64, len(massesRaw))
		anyPositive := false
		for i, m := range massesRaw {
			edges[i] = float64(i)
			probs[i] = float64(m)
			if m > 0 {
				anyPositive = true
			}
		}
		edges[len(massesRaw)] = float64(len(massesRaw))
		if !anyPositive {
			probs[0] = 1
		}
		h, err := NewHistogram(edges, probs)
		if err != nil {
			return false
		}
		r := rng(seed)
		mids := map[float64]bool{}
		for i := 0; i < h.Bins(); i++ {
			mids[h.Mid(i)] = true
		}
		for i := 0; i < 50; i++ {
			if !mids[h.Sample(r)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
