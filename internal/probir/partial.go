package probir

import "fmt"

// This file extends the per-world kernel decomposition (kernel.go) with
// partial evaluation: finalizing a state's Evaluation from a prefix of its
// Monte-Carlo worlds. The adaptive evaluator in the solver runs worlds in
// chunks, consults sequential stopping rules on the running indicator sums,
// and stops a state as soon as its feasibility verdict is decided — which
// requires the kernel to (a) expose which figures are constraint indicators
// and what targets they face, and (b) reduce a world prefix into a sound,
// pessimistic Evaluation.

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
	// ValueFigure returns the figure index the goal value is reduced from, or
	// -1 when the goal value is world-free (deterministic, exact under any
	// prefix).
	ValueFigure() int
	// ReducePartial folds figure sums over the first seen worlds (accumulated
	// in ascending world order) into a pessimistic Evaluation: every unseen
	// world is assumed to violate every probabilistic constraint, so Feasible
	// is true only when the prefix alone proves every constraint probability,
	// and reported constraint probabilities are guaranteed lower bounds of
	// the full evaluation's. Sampled means (and a sampled goal value) are
	// estimated from the prefix.
	ReducePartial(sums []float64, seen int) (*Evaluation, error)
}

// Indicators implements PartialKernel. The verdict decomposes completely
// unless a constraint needs a sampled mean without an indicator — the
// deterministic-notion deadline (Percentile < 0), whose pass/fail depends on
// the mean makespan over all worlds. A deterministic-notion budget compares
// the world-free Eq. 1-2 mean cost and never blocks partial evaluation.
func (k *nativeKernel) Indicators() (idx []int, targets []float64, ok bool) {
	ok = true
	for ci, c := range k.n.Constraints {
		if c.Percentile >= 0 {
			idx = append(idx, k.indIdx[ci])
			targets = append(targets, c.Percentile)
		} else if c.Kind == "deadline" {
			ok = false
		}
	}
	return idx, targets, ok
}

// ValueFigure implements PartialKernel: the sampled mean makespan drives the
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

// ReducePartial implements PartialKernel. It mirrors Reduce figure-for-figure
// with two denominators: constraint probabilities divide by the full world
// count (the pessimistic completion — unseen worlds fail), sampled means
// divide by the seen count (the natural estimate). At seen == Worlds() both
// denominators coincide with Reduce's and the result is bit-identical.
func (k *nativeKernel) ReducePartial(sums []float64, seen int) (*Evaluation, error) {
	n := k.n
	if seen <= 0 || seen > n.Iters {
		return nil, fmt.Errorf("probir: partial reduction over %d of %d worlds", seen, n.Iters)
	}
	iters := float64(n.Iters)
	fseen := float64(seen)
	ev := &Evaluation{Feasible: true, ConsProb: make([]float64, len(n.Constraints))}

	switch n.Goal {
	case GoalCost:
		if n.hasSpot {
			ev.Value = sums[k.costIdx] / fseen
		} else {
			ev.Value = k.meanCost
		}
	case GoalMakespan:
		ev.Value = sums[k.msIdx] / fseen
	default:
		return nil, fmt.Errorf("probir: unknown goal kind %d", n.Goal)
	}

	for ci, c := range n.Constraints {
		var prob, mean float64
		switch c.Kind {
		case "deadline":
			mean = sums[k.msIdx] / fseen
			if c.Percentile < 0 {
				if mean <= c.Bound {
					prob = 1
				}
			} else {
				prob = sums[k.indIdx[ci]] / iters
			}
		case "budget":
			if c.Percentile < 0 {
				mean = k.meanCost
				if mean <= c.Bound {
					prob = 1
				}
			} else {
				mean = sums[k.costIdx] / fseen
				prob = sums[k.indIdx[ci]] / iters
			}
		}
		ev.ConsProb[ci] = prob
		if c.Percentile < 0 {
			if prob < 1 {
				ev.Feasible = false
				if c.Bound > 0 {
					ev.Violation += (mean - c.Bound) / c.Bound
				} else {
					ev.Violation += mean
				}
			}
		} else if prob < c.Percentile {
			ev.Feasible = false
			ev.Violation += c.Percentile - prob
			if mean > c.Bound && c.Bound > 0 {
				ev.Violation += (mean - c.Bound) / c.Bound
			}
		}
	}
	return ev, nil
}

// RunKernelRange executes worlds [lo, hi) of a kernel sequentially, folding
// each world's figures into the caller's running sums in ascending iteration
// order — the chunk-resumable form of RunKernel. Chaining ranges [0,a),
// [a,b), ... over the same sums yields bit-identical sums to a single
// [0, Worlds()) run, because float accumulation happens world by world in
// the same order either way.
func RunKernelRange(k WorldKernel, sums []float64, lo, hi int) error {
	width := k.Width()
	if len(sums) != width {
		return fmt.Errorf("probir: range sums length %d, want %d", len(sums), width)
	}
	tmp := make([]float64, width)
	for it := lo; it < hi; it++ {
		for w := range tmp {
			tmp[w] = 0
		}
		if err := k.Sample(it, tmp); err != nil {
			return err
		}
		for w := range tmp {
			sums[w] += tmp[w]
		}
	}
	return nil
}
