package probir

import (
	"context"
	"math/rand"
	"testing"

	"deco/internal/wlog"
)

// foldOutOfOrder runs a kernel's worlds in reverse order (as a concurrent
// device might) but folds the per-world figures canonically — the exact
// contract device.ReduceBlocks implements — and reduces.
func foldOutOfOrder(t *testing.T, k WorldKernel) *Evaluation {
	t.Helper()
	worlds, width := k.Worlds(), k.Width()
	slots := make([]float64, worlds*width)
	for it := worlds - 1; it >= 0; it-- {
		if err := k.Sample(it, it+1, slots[it*width:(it+1)*width]); err != nil {
			t.Fatal(err)
		}
	}
	sums := make([]float64, width)
	for it := 0; it < worlds; it++ {
		for w := 0; w < width; w++ {
			sums[w] += slots[it*width+w]
		}
	}
	ev, err := k.Reduce(sums)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func assertBitIdentical(t *testing.T, got, want *Evaluation) {
	t.Helper()
	if got.Value != want.Value {
		t.Errorf("Value %v != %v", got.Value, want.Value)
	}
	if got.Feasible != want.Feasible {
		t.Errorf("Feasible %v != %v", got.Feasible, want.Feasible)
	}
	if got.Violation != want.Violation {
		t.Errorf("Violation %v != %v", got.Violation, want.Violation)
	}
	if len(got.ConsProb) != len(want.ConsProb) {
		t.Fatalf("ConsProb len %d != %d", len(got.ConsProb), len(want.ConsProb))
	}
	for i := range got.ConsProb {
		if got.ConsProb[i] != want.ConsProb[i] {
			t.Errorf("ConsProb[%d] %v != %v", i, got.ConsProb[i], want.ConsProb[i])
		}
	}
}

// The device path (kernels sampled in any order, sums folded canonically)
// must be bit-identical to Evaluate, for every native goal/constraint mix.
func TestNativeKernelMatchesEvaluateBitExact(t *testing.T) {
	w, tbl, prices := fixture(t, false)
	cases := []struct {
		name string
		goal GoalKind
		cons []wlog.Constraint
	}{
		{"makespan-probabilistic-deadline", GoalMakespan,
			[]wlog.Constraint{{Kind: "deadline", Percentile: 0.9, Bound: 2000}}},
		{"cost-deterministic-deadline", GoalCost,
			[]wlog.Constraint{{Kind: "deadline", Percentile: -1, Bound: 2000}}},
		{"cost-probabilistic-budget-and-deadline", GoalCost,
			[]wlog.Constraint{
				{Kind: "deadline", Percentile: 0.95, Bound: 1500},
				{Kind: "budget", Percentile: 0.9, Bound: 1.0},
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := NewNative(w, tbl, prices, tc.goal, tc.cons, 64)
			if err != nil {
				t.Fatal(err)
			}
			config := []int{0, 1, 2, 0}
			const seed = 42
			want, err := n.Evaluate(config, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			// Evaluate derives its CRN base by drawing from the rng; the
			// kernel path must reproduce it from an identical source.
			base := rand.New(rand.NewSource(seed)).Int63()
			k, err := n.CRNKernel(context.Background(), config, base)
			if err != nil {
				t.Fatal(err)
			}
			got := foldOutOfOrder(t, k)
			assertBitIdentical(t, got, want)
		})
	}
}

// Same contract for the Prolog-path evaluator.
func TestPrologKernelMatchesEvaluateBitExact(t *testing.T) {
	w, tbl, prices := fixture(t, false)
	prog := schedProgram(t, "deadline(90%,2000s)")
	p, err := NewProlog(w, tbl, prices, prog, 8)
	if err != nil {
		t.Fatal(err)
	}
	config := []int{1, 0, 2, 1}
	const seed = 7
	want, err := p.Evaluate(config, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	k, err := p.Kernel(context.Background(), config, rand.New(rand.NewSource(seed)).Int63())
	if err != nil {
		t.Fatal(err)
	}
	got := foldOutOfOrder(t, k)
	assertBitIdentical(t, got, want)
}

// Substreams must differ across iterations and across bases; the same
// (base, it) pair must reproduce its stream.
func TestWorldRNGSubstreams(t *testing.T) {
	seen := map[int64]bool{}
	for _, base := range []int64{0, 1, 1 << 40} {
		for it := 0; it < 100; it++ {
			s := MixSeed(base, it)
			if seen[s] {
				t.Fatalf("seed collision at base=%d it=%d", base, it)
			}
			seen[s] = true
		}
	}
	a, b := WorldRNG(9, 3), WorldRNG(9, 3)
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (base, it) not reproducible")
		}
	}
}
