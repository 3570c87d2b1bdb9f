package probir

import "fmt"

// This file holds the world-prefix side of the kernel contract. Every
// probir chunked execution folds worlds in ascending iteration order, so a
// prefix's figure sums are exactly the first worlds' contribution to the
// full sums, and a kernel's Reduce finalizes a state from any prefix. The
// adaptive evaluator in the solver runs worlds in chunks and stops a state
// as soon as its running indicator sums (Evaluator.Indicators) prove it
// infeasible, reducing that prefix pessimistically.

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

// Reduce implements WorldKernel: the embedded Figures' prefix reduction,
// plus the goal value — the world-free mean cost, or the prefix mean of the
// figure ValueFigure names.
func (k *nativeKernel) Reduce(sums []float64, seen int) (*Evaluation, error) {
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
