package probir

import (
	"context"
	"math/rand"
	"testing"

	"deco/internal/wlog"
)

// TestRunCRNKernelRangeChains verifies the chunk-resumable executor: folding
// worlds chunk by chunk into running sums is bit-identical to a single
// sequential run, for any chunk boundaries.
func TestRunCRNKernelRangeChains(t *testing.T) {
	cons := []wlog.Constraint{
		{Kind: "deadline", Percentile: 0.9, Bound: 2500},
		{Kind: "budget", Percentile: 0.8, Bound: 5},
	}
	n := layeredFixture(t, 24, 41, GoalCost, cons, 64)
	cfg := make([]int, 24)
	rng := rand.New(rand.NewSource(5))
	for i := range cfg {
		cfg[i] = rng.Intn(n.NumTypes())
	}
	k, err := n.CRNKernel(context.Background(), cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	full := make([]float64, k.Width())
	if err := RunKernelRange(k, full, 0, k.Worlds()); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		chunked := make([]float64, k.Width())
		lo := 0
		for lo < k.Worlds() {
			hi := lo + 1 + rng.Intn(20)
			if hi > k.Worlds() {
				hi = k.Worlds()
			}
			if err := RunKernelRange(k, chunked, lo, hi); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		for w := range full {
			if chunked[w] != full[w] {
				t.Fatalf("trial %d: chunked sums[%d]=%v != full %v", trial, w, chunked[w], full[w])
			}
		}
	}
}

// TestReducePartialFullIsReduce asserts the contract adaptive evaluation
// rests on: ReducePartial over all worlds is bit-identical to Reduce.
func TestReducePartialFullIsReduce(t *testing.T) {
	for _, goal := range []GoalKind{GoalCost, GoalMakespan} {
		cons := []wlog.Constraint{
			{Kind: "deadline", Percentile: 0.9, Bound: 2500},
			{Kind: "budget", Percentile: 0.8, Bound: 5},
			{Kind: "budget", Percentile: -1, Bound: 50},
		}
		n := layeredFixture(t, 20, 17, goal, cons, 48)
		cfg := make([]int, 20)
		rng := rand.New(rand.NewSource(3))
		for i := range cfg {
			cfg[i] = rng.Intn(n.NumTypes())
		}
		wk, err := n.CRNKernel(context.Background(), cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		k := wk.(*nativeKernel)
		sums := make([]float64, k.Width())
		if err := RunKernelRange(k, sums, 0, k.Worlds()); err != nil {
			t.Fatal(err)
		}
		full, err := k.Reduce(sums)
		if err != nil {
			t.Fatal(err)
		}
		part, err := k.ReducePartial(sums, k.Worlds())
		if err != nil {
			t.Fatal(err)
		}
		sameEval(t, int(goal), part, full)
	}
}

// TestReducePartialPessimistic checks that a prefix reduction never claims
// feasibility the remaining worlds could retract, and reports constraint
// probabilities no higher than the full evaluation's.
func TestReducePartialPessimistic(t *testing.T) {
	cons := []wlog.Constraint{{Kind: "deadline", Percentile: 0.9, Bound: 2500}}
	n := layeredFixture(t, 20, 23, GoalCost, cons, 64)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		cfg := make([]int, 20)
		for i := range cfg {
			cfg[i] = rng.Intn(n.NumTypes())
		}
		wk, err := n.CRNKernel(context.Background(), cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		k := wk.(*nativeKernel)
		fullSums := make([]float64, k.Width())
		if err := RunKernelRange(k, fullSums, 0, k.Worlds()); err != nil {
			t.Fatal(err)
		}
		full, err := k.Reduce(fullSums)
		if err != nil {
			t.Fatal(err)
		}
		sums := make([]float64, k.Width())
		lo := 0
		for _, hi := range []int{8, 24, 48} {
			if err := RunKernelRange(k, sums, lo, hi); err != nil {
				t.Fatal(err)
			}
			lo = hi
			part, err := k.ReducePartial(sums, hi)
			if err != nil {
				t.Fatal(err)
			}
			if part.Feasible && !full.Feasible {
				t.Fatalf("trial %d: partial at %d worlds claims feasible, full is not", trial, hi)
			}
			for ci := range part.ConsProb {
				if part.ConsProb[ci] > full.ConsProb[ci] {
					t.Fatalf("trial %d: partial prob %v exceeds full %v at %d worlds",
						trial, part.ConsProb[ci], full.ConsProb[ci], hi)
				}
			}
		}
	}
}

// TestIndicators covers the capability probe: percentile constraints expose
// indicator figures; a deterministic-notion deadline blocks partial
// evaluation; a deterministic budget does not; the goal decides ValueFigure.
func TestIndicators(t *testing.T) {
	cfgFor := func(n *Native) []int { return make([]int, n.W.Len()) }

	n := layeredFixture(t, 8, 3, GoalCost, []wlog.Constraint{
		{Kind: "deadline", Percentile: 0.96, Bound: 2500},
		{Kind: "budget", Percentile: -1, Bound: 50},
		{Kind: "budget", Percentile: 0.8, Bound: 5},
	}, 16)
	wk, err := n.CRNKernel(context.Background(), cfgFor(n), 1)
	if err != nil {
		t.Fatal(err)
	}
	k := wk.(*nativeKernel)
	idx, targets, ok := k.Indicators()
	if !ok {
		t.Fatal("indicator-backed constraints reported as not partialable")
	}
	if len(idx) != 2 || len(targets) != 2 || targets[0] != 0.96 || targets[1] != 0.8 {
		t.Fatalf("Indicators() = %v, %v", idx, targets)
	}
	for _, fi := range idx {
		if fi < 0 || fi >= k.Width() {
			t.Fatalf("indicator figure %d out of width %d", fi, k.Width())
		}
	}
	if vf := k.ValueFigure(); vf != -1 {
		t.Fatalf("GoalCost ValueFigure() = %d, want -1", vf)
	}

	n = layeredFixture(t, 8, 3, GoalMakespan, []wlog.Constraint{
		{Kind: "deadline", Percentile: -1, Bound: 2500},
	}, 16)
	wk, err = n.CRNKernel(context.Background(), cfgFor(n), 1)
	if err != nil {
		t.Fatal(err)
	}
	k = wk.(*nativeKernel)
	if _, _, ok := k.Indicators(); ok {
		t.Fatal("deterministic-notion deadline must block partial evaluation")
	}
	if vf := k.ValueFigure(); vf != k.msIdx {
		t.Fatalf("GoalMakespan ValueFigure() = %d, want %d", vf, k.msIdx)
	}
}
