package runtime

import (
	"fmt"
	"math/rand"

	"deco/internal/estimate"
	"deco/internal/probir"
	"deco/internal/wlog"
)

// Task execution states as the monitor sees them.
const (
	stUnstarted = iota
	stRunning
	stFinished
)

// residual is the monitor's snapshot of execution progress, shared by every
// kernel a risk evaluation or replan search builds: the remaining DAG
// conditioned on what already happened. It is mutated only between
// evaluations (the monitor runs on the simulator's goroutine), so kernels
// may sample it concurrently. Finished tasks contribute their
// observed finish times, running tasks their observed starts plus a
// duration conditioned on having survived `elapsed` seconds, unstarted
// tasks a full sampled duration starting no earlier than now. All sampled
// durations are inflated by the learned drift factor.
type residual struct {
	ids     []string
	order   []int   // topo order, indices into ids
	parents [][]int // parent indices per task
	state   []int
	startAt []float64 // running tasks: observed start
	elapsed []float64 // running tasks: now - startAt
	finish  []float64 // finished tasks: observed finish
	now     float64
	accrued float64 // committed cost so far
	drift   float64 // realized/forecast duration ratio, ≥ small positive
	tbl     *estimate.Table
	prices  []float64 // per type index, hourly
	cons    []wlog.Constraint
	iters   int
}

// condSample draws a duration conditioned on the task having already run
// for `elapsed` seconds: rejection-sample the calibrated distribution above
// the elapsed time, falling back to a memoryless restart (elapsed + mean)
// when the observation has outlived the distribution's support.
func condSample(td *estimate.TimeDist, drift, elapsed float64, rng *rand.Rand) float64 {
	if elapsed <= 0 {
		return td.Sample(rng) * drift
	}
	for try := 0; try < 8; try++ {
		if d := td.Sample(rng) * drift; d > elapsed {
			return d
		}
	}
	return elapsed + td.Mean()*drift
}

// residualKernel is the probir world kernel of one candidate configuration
// over the remaining DAG. Its figure layout, indicator scoring and
// constraint reduction are the embedded probir.Figures — the solver's
// native semantics — so replan search results rank exactly like
// initial-planning results; its goal value is the deterministic residual
// cost. World it draws from a probir.Stream seeded at probir.MixSeed(base,
// it), base being the monitor decision's, never a state's: the conditioned
// rejection sampling (condSample) draws a data-dependent number of variates
// per task, which no fixed (task, iteration) stream of a shared duration
// matrix can serve, while a counter-based stream serves any number of
// draws and restarts per world in O(1).
type residualKernel struct {
	probir.Figures
	r      *residual
	base   int64
	dists  []*estimate.TimeDist // per task, for this config
	prices []float64            // per task, hourly
	mean   float64              // deterministic residual cost: accrued + unstarted means
}

// buildKernel resolves config's per-task distributions and figure layout
// over the worlds of the decision base.
func (r *residual) buildKernel(config []int, base int64) (*residualKernel, error) {
	if len(config) != len(r.ids) {
		return nil, fmt.Errorf("runtime: config length %d, want %d", len(config), len(r.ids))
	}
	k := &residualKernel{r: r, base: base,
		Figures: probir.NewFigures(r.cons, r.iters, false, false),
		dists:   make([]*estimate.TimeDist, len(config)),
		prices:  make([]float64, len(config)),
	}
	k.mean = r.accrued
	for i, j := range config {
		td, err := r.tbl.Dist(r.ids[i], j)
		if err != nil {
			return nil, err
		}
		k.dists[i] = td
		k.prices[i] = r.prices[j]
		if r.state[i] == stUnstarted {
			k.mean += td.Mean() * r.drift / 3600 * k.prices[i]
		}
	}
	return k, nil
}

// Sample implements probir.WorldKernel: one realization of the remaining
// DAG. Observed finishes are facts; running tasks sample a conditioned
// residual; unstarted tasks sample a full (drift-inflated) duration
// starting at max(now, parents' finish).
func (k *residualKernel) Sample(lo, hi int, out []float64) error {
	finish := make([]float64, len(k.r.ids))
	// One counter-based stream for the chunk, restarted per world at the
	// world's seed: world it reads the same draws in any chunk, and the
	// restart costs two stores.
	var src probir.Stream
	rng := rand.New(&src)
	width := k.Width()
	for it := lo; it < hi; it++ {
		r := it - lo
		src.Seed(probir.MixSeed(k.base, it))
		k.world(rng, finish, out[r*width:(r+1)*width])
	}
	return nil
}

// world samples one world into out over the finish-time scratch, drawing
// from the world's rng.
func (k *residualKernel) world(rng *rand.Rand, finish, out []float64) {
	r := k.r
	var ms float64
	cost := r.accrued
	for _, ti := range r.order {
		var f float64
		switch r.state[ti] {
		case stFinished:
			f = r.finish[ti]
		case stRunning:
			f = r.startAt[ti] + condSample(k.dists[ti], r.drift, r.elapsed[ti], rng)
		default:
			s := r.now
			for _, p := range r.parents[ti] {
				if finish[p] > s {
					s = finish[p]
				}
			}
			d := k.dists[ti].Sample(rng) * r.drift
			f = s + d
			cost += d / 3600 * k.prices[ti]
		}
		finish[ti] = f
		if f > ms {
			ms = f
		}
	}
	k.Score(out, ms, cost)
}

// Reduce implements probir.WorldKernel: the shared constraint reduction
// over every world, valued at the deterministic residual cost.
func (k *residualKernel) Reduce(sums []float64) (*probir.Evaluation, error) {
	ev, err := k.ReducePrefix(sums, k.r.iters, k.mean)
	if err != nil {
		return nil, err
	}
	ev.Value = k.mean
	return ev, nil
}

// violationProb extracts the monitor's risk measure from an evaluation: the
// highest per-constraint probability of violating the bound itself (1 -
// P(X ≤ Bound)); for deterministic (mean-based) constraints it is 0 or 1.
func violationProb(ev *probir.Evaluation) float64 {
	risk := 0.0
	for _, p := range ev.ConsProb {
		if v := 1 - p; v > risk {
			risk = v
		}
	}
	return risk
}
