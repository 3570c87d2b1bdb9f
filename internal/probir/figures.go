package probir

import (
	"fmt"

	"deco/internal/wlog"
)

// Figures is the one implementation of Algorithm 1's constraint semantics
// (§5.2) for kernels whose worlds report a sampled makespan and a sampled
// cost: a deadline or budget query reduces to its satisfaction probability
// P(X ≤ Bound), checked against the percentile, or under the mean notion
// (Percentile < 0) to its expected value checked against the bound. It owns
// the figure layout — the sampled makespan, the sampled cost, then one 0/1
// indicator per percentile constraint — the per-world indicator scoring,
// the verdicts, the violation gradient and the prefix reduction. The native
// kernel and the runtime's residual kernel embed it, so replan searches
// rank candidates exactly like initial planning.
type Figures struct {
	cons     []wlog.Constraint
	iters    int
	width    int
	msIdx    int   // -1 when no makespan figure is sampled
	costIdx  int   // -1 when no cost figure is sampled
	indIdx   []int // per constraint: indicator figure, or -1
	needMS   bool
	needCost bool
}

// NewFigures lays out the figures of a kernel over iters worlds facing cons.
// The makespan is sampled when needMS is set (a makespan goal) or a deadline
// needs it; the cost when needCost is set (a sampled cost goal) or a
// percentile budget needs it.
func NewFigures(cons []wlog.Constraint, iters int, needMS, needCost bool) Figures {
	f := Figures{cons: cons, iters: iters, msIdx: -1, costIdx: -1, needMS: needMS, needCost: needCost}
	for _, c := range cons {
		if c.Kind == "deadline" {
			f.needMS = true
		}
		if c.Kind == "budget" && c.Percentile >= 0 {
			f.needCost = true
		}
	}
	if f.needMS {
		f.msIdx = f.width
		f.width++
	}
	if f.needCost {
		f.costIdx = f.width
		f.width++
	}
	f.indIdx = make([]int, len(cons))
	for ci, c := range cons {
		f.indIdx[ci] = -1
		if c.Percentile >= 0 {
			f.indIdx[ci] = f.width
			f.width++
		}
	}
	return f
}

// Worlds implements WorldKernel: no sampled worlds when every figure is
// deterministic.
func (f *Figures) Worlds() int {
	if !f.needMS && !f.needCost {
		return 0
	}
	return f.iters
}

// Width implements WorldKernel.
func (f *Figures) Width() int { return f.width }

// Score writes one world's figures into out (len Width(), zeroed): its
// makespan and cost where they are sampled, and the satisfaction indicator
// of every percentile constraint.
func (f *Figures) Score(out []float64, ms, cost float64) {
	if f.needMS {
		out[f.msIdx] = ms
	}
	if f.needCost {
		out[f.costIdx] = cost
	}
	for ci, c := range f.cons {
		fi := f.indIdx[ci]
		if fi < 0 {
			continue
		}
		switch c.Kind {
		case "deadline":
			if ms <= c.Bound {
				out[fi] = 1
			}
		case "budget":
			if cost <= c.Bound {
				out[fi] = 1
			}
		}
	}
}

// Indicators returns the indicator figure index and target percentile of
// every percentile constraint. ok reports whether they decide feasibility
// together with world-free checks alone; it is false when a constraint
// needs a sampled mean without an indicator — the mean-notion deadline,
// whose pass/fail depends on the mean makespan over all worlds. A
// mean-notion budget compares the world-free mean cost and keeps ok.
func (f *Figures) Indicators() (idx []int, targets []float64, ok bool) {
	ok = true
	for ci, c := range f.cons {
		if c.Percentile >= 0 {
			idx = append(idx, f.indIdx[ci])
			targets = append(targets, c.Percentile)
		} else if c.Kind == "deadline" {
			ok = false
		}
	}
	return idx, targets, ok
}

// ReducePrefix folds figure sums over the first seen worlds (accumulated in
// ascending world order) into the constraint part of an Evaluation; the
// caller sets Value. Constraint probabilities divide by the full world
// count — the pessimistic completion, in which every unseen world fails —
// and sampled means by the seen count. meanCost is the world-free mean cost
// a mean-notion budget is checked against. At seen == Worlds() both
// denominators coincide, which is the full reduction; a world-free layout
// reduces at seen == 0 and divides by neither.
func (f *Figures) ReducePrefix(sums []float64, seen int, meanCost float64) (*Evaluation, error) {
	if worlds := f.Worlds(); seen < 0 || seen > worlds || seen == 0 && worlds > 0 {
		return nil, fmt.Errorf("probir: reduction over %d of %d worlds", seen, worlds)
	}
	iters := float64(f.iters)
	fseen := float64(seen)
	ev := &Evaluation{Feasible: true, ConsProb: make([]float64, len(f.cons))}
	for ci, c := range f.cons {
		var prob, mean float64
		switch c.Kind {
		case "deadline":
			mean = sums[f.msIdx] / fseen
		case "budget":
			mean = meanCost
			if c.Percentile >= 0 {
				mean = sums[f.costIdx] / fseen
			}
		default:
			return nil, fmt.Errorf("probir: unknown constraint kind %q", c.Kind)
		}
		if fi := f.indIdx[ci]; fi >= 0 {
			prob = sums[fi] / iters
		}
		judge(ev, ci, c, prob, mean)
	}
	return ev, nil
}

// judge folds constraint ci's verdict into ev from its satisfaction
// probability and its mean. Under the mean notion the constraint holds
// (probability 1) when the mean is within the bound; under the percentile
// notion when prob reaches the percentile. An unmet constraint makes ev
// infeasible and adds to its violation gradient: the relative mean excess,
// plus the probability gap for percentile constraints — the gap alone has
// no gradient once prob hits 0, so the mean excess keeps the search
// climbing.
func judge(ev *Evaluation, ci int, c wlog.Constraint, prob, mean float64) {
	if c.Percentile < 0 {
		if mean <= c.Bound {
			ev.ConsProb[ci] = 1
			return
		}
		ev.Feasible = false
		if c.Bound > 0 {
			ev.Violation += (mean - c.Bound) / c.Bound
		} else {
			ev.Violation += mean
		}
		return
	}
	ev.ConsProb[ci] = prob
	if prob < c.Percentile {
		ev.Feasible = false
		ev.Violation += c.Percentile - prob
		if mean > c.Bound && c.Bound > 0 {
			ev.Violation += (mean - c.Bound) / c.Bound
		}
	}
}
