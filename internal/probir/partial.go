package probir

import "fmt"

// This file extends the world-kernel decomposition (kernel.go) with
// partial evaluation: finalizing a state's Evaluation from a prefix of its
// Monte-Carlo worlds. The adaptive evaluator in the solver runs worlds in
// chunks and stops a state as soon as its running indicator sums prove it
// infeasible — which requires the kernel to (a) expose which figures are
// constraint indicators and what targets they face, and (b) reduce a world
// prefix into a sound, pessimistic Evaluation.

// PartialKernel is a WorldKernel whose evaluation can be finalized from a
// prefix of its worlds. All probir chunked execution folds worlds in
// ascending iteration order, so a prefix's figure sums are exactly the first
// worlds' contribution to the full sums; ReducePartial(sums, Worlds()) is
// bit-identical to Reduce(sums).
type PartialKernel interface {
	WorldKernel
	// Indicators returns the indicator figure index and target percentile of
	// every probabilistic (percentile-bounded) constraint. ok reports whether
	// the feasibility verdict is fully determined by those indicators plus
	// world-free deterministic checks; when false (e.g. a deterministic
	// deadline that compares the sampled mean makespan), partial evaluation
	// cannot decide feasibility early and the caller must run every world.
	Indicators() (idx []int, targets []float64, ok bool)
	// ReducePartial folds figure sums over the first seen worlds (accumulated
	// in ascending world order) into a pessimistic Evaluation: every unseen
	// world is assumed to violate every probabilistic constraint, so Feasible
	// is true only when the prefix alone proves every constraint probability,
	// and reported constraint probabilities are guaranteed lower bounds of
	// the full evaluation's. Sampled means (and a sampled goal value) are
	// estimated from the prefix.
	ReducePartial(sums []float64, seen int) (*Evaluation, error)
}

// ValueFigure returns the figure index the goal value is reduced from, or -1
// when the goal value is world-free: the sampled mean makespan drives the
// GoalMakespan value; the GoalCost value is the deterministic mean cost —
// unless spot markets make cost itself a sampled figure, in which case the
// goal reduces from the realized-cost column.
func (k *nativeKernel) ValueFigure() int {
	if k.n.Goal == GoalMakespan {
		return k.msIdx
	}
	if k.n.Goal == GoalCost && k.n.hasSpot {
		return k.costIdx
	}
	return -1
}

// ReducePartial implements PartialKernel: the embedded Figures' prefix
// reduction, plus the goal value — the world-free mean cost, or the prefix
// mean of the figure ValueFigure names.
func (k *nativeKernel) ReducePartial(sums []float64, seen int) (*Evaluation, error) {
	if k.n.Goal != GoalCost && k.n.Goal != GoalMakespan {
		return nil, fmt.Errorf("probir: unknown goal kind %d", k.n.Goal)
	}
	ev, err := k.ReducePrefix(sums, seen, k.meanCost)
	if err != nil {
		return nil, err
	}
	ev.Value = k.meanCost
	if vf := k.ValueFigure(); vf >= 0 {
		ev.Value = sums[vf] / float64(seen)
	}
	return ev, nil
}

// RunKernelRange executes worlds [lo, hi) of a kernel in one call and folds
// each world's figures into the caller's running sums in ascending
// iteration order — the chunk-resumable form of RunKernel. Chaining ranges
// [0,a), [a,b), ... over the same sums yields bit-identical sums to a
// single [0, Worlds()) run, because float accumulation happens world by
// world in the same order either way.
func RunKernelRange(k WorldKernel, sums []float64, lo, hi int) error {
	width := k.Width()
	if len(sums) != width {
		return fmt.Errorf("probir: range sums length %d, want %d", len(sums), width)
	}
	if hi <= lo {
		return nil
	}
	out := make([]float64, (hi-lo)*width)
	if err := k.Sample(lo, hi, out); err != nil {
		return err
	}
	for r := 0; r < hi-lo; r++ {
		for w := range sums {
			sums[w] += out[r*width+w]
		}
	}
	return nil
}
