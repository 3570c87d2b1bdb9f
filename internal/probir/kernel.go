package probir

import (
	"fmt"
	"math/rand"
)

// This file decomposes Monte-Carlo evaluation into the paper's GPU kernel
// shape (§5.2): a *per-world kernel* — one thread samples one realization of
// the probabilistic facts and computes its figures — plus a *reduction* that
// folds the per-world figures into the Evaluation. Every aggregate Algorithm
// 1 needs (goal means, constraint means, satisfaction counts) is a sum over
// worlds, so the reduction is exactly the shared-memory block sum of §5.2,
// and a device may run the worlds of one state in any order or in parallel.
//
// Determinism: a kernel's figures for world it depend only on (kernel, it)
// — every kernel carries its randomness with it, so results are
// bit-identical whether the worlds ran sequentially, state-parallel, or
// two-level on a device. Native kernels follow the common-random-number
// contract (flat.go): duration draws are keyed by (task, type, iteration)
// against a search-level base seed, so every state in a search shares the
// same world realizations. Kernels that cannot share realizations (the
// Prolog interpreter, the runtime's conditioned residual kernels, whose
// rejection sampling draws a data-dependent number of variates) take a
// substream base when they are built and draw world it from
// WorldRNG(base, it).

// WorldKernel is one state's Monte-Carlo evaluation, decomposed for
// block/thread execution.
type WorldKernel interface {
	// Worlds is the number of Monte-Carlo iterations (threads per block).
	// 0 means the evaluation is deterministic and needs no sampled worlds.
	Worlds() int
	// Width is the number of figures each world produces.
	Width() int
	// Sample computes world it into out (len Width(), zeroed). It must be
	// safe for concurrent calls with distinct it.
	Sample(it int, out []float64) error
	// Reduce folds the figure-wise sums over all worlds (len Width()) into
	// the final evaluation.
	Reduce(sums []float64) (*Evaluation, error)
}

// worldSeed mixes a state-level base seed with an iteration index
// (splitmix64 finalizer), giving every (state, iteration) pair its own
// statistically independent substream.
func worldSeed(base int64, it int) int64 {
	z := uint64(base) + uint64(it+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// WorldRNG returns the deterministic rng of Monte-Carlo iteration it within
// the substream identified by base. The solver derives base from its seed
// and the state key; results therefore depend on neither the device nor the
// schedule.
func WorldRNG(base int64, it int) *rand.Rand {
	return rand.New(rand.NewSource(worldSeed(base, it)))
}

// RunKernel executes a kernel's worlds sequentially and reduces them,
// accumulating in iteration order — the reference semantics every device
// execution must (and does) match bit-identically.
func RunKernel(k WorldKernel) (*Evaluation, error) {
	sums := make([]float64, k.Width())
	if err := RunKernelRange(k, sums, 0, k.Worlds()); err != nil {
		return nil, err
	}
	return k.Reduce(sums)
}

// nativeKernel is the Native evaluator's per-world kernel under the CRN
// contract. Its figures are laid out as: the sampled makespan (if any
// goal/constraint needs it), the sampled world cost (if a probabilistic
// budget needs it), then one 0/1 satisfaction indicator per probabilistic
// constraint. Makespan and cost figures of one world share the same
// per-(task, world) duration draws from the program's CRN matrix (under the
// old state-keyed contract they drew separately from one stream).
type nativeKernel struct {
	n      *Native
	config []int

	prog *Program
	// rows[i] is task i's CRN duration row (rows[i][it] = duration in world
	// it); nil when Worlds() == 0. pricePerTask is each task's hourly price
	// under the configuration, resolved only when cost samples are needed.
	rows         [][]float64
	pricePerTask []float64
	meanCost     float64 // deterministic Eq. 1-2 cost, computed once
	// costRows[i], non-nil only when task i sits on a spot column, is the
	// paired per-world realized cost row (market.go); xferTotal is the
	// configuration's deterministic cross-region egress cost, added to every
	// world's cost figure.
	costRows  [][]float64
	xferTotal float64

	width    int
	msIdx    int   // -1 when no makespan samples are needed
	costIdx  int   // -1 when no cost samples are needed
	indIdx   []int // per constraint: indicator figure, or -1
	needMS   bool
	needCost bool

	// capture, when non-nil, receives every world's finish-time row,
	// makespan, and argmax task as Sample runs — the parent-side half of
	// delta evaluation (delta.go). parent/cone/dirtyMask, when set, switch
	// Sample's makespan pass to the incremental dirty-cone recurrence that
	// starts from the parent snapshot instead of the full topological DP.
	capture   *Snapshot
	parent    *Snapshot
	cone      []int32 // dirty-cone positions into flat.Order, ascending
	dirtyMask []bool  // per task: duration row differs from the parent's
	lastDirty int     // index into cone of the last dirty task
}

// CRNKernel builds the per-world kernel of one configuration against the
// shared duration matrix of the given base seed. Row filling happens here
// (serially, under the program's fill lock), so Sample is read-only and a
// device may run worlds concurrently.
func (n *Native) CRNKernel(config []int, base int64) (WorldKernel, error) {
	k, err := n.newCRNKernel(config, base)
	if err != nil {
		return nil, err
	}
	return k, nil
}

// newCRNKernel is the concrete-typed CRNKernel build, shared with the
// snapshot-capturing and delta variants in delta.go.
func (n *Native) newCRNKernel(config []int, base int64) (*nativeKernel, error) {
	if err := n.checkConfig(config); err != nil {
		return nil, err
	}
	k := &nativeKernel{n: n, config: config, msIdx: -1, costIdx: -1}
	k.needMS = n.Goal == GoalMakespan
	for _, c := range n.Constraints {
		if c.Kind == "deadline" {
			k.needMS = true
		}
		if c.Kind == "budget" && c.Percentile >= 0 {
			k.needCost = true
		}
	}
	// Spot markets make cost a random variable for every state of the search
	// (uniform kernel shape — the compiled solver resolves figure layout once
	// per problem), so the cost figure is always sampled.
	if n.hasSpot {
		k.needCost = true
	}
	if k.needMS {
		k.msIdx = k.width
		k.width++
	}
	if k.needCost {
		k.costIdx = k.width
		k.width++
	}
	k.indIdx = make([]int, len(n.Constraints))
	for ci, c := range n.Constraints {
		k.indIdx[ci] = -1
		if c.Percentile >= 0 {
			k.indIdx[ci] = k.width
			k.width++
		}
	}
	var err error
	if k.meanCost, err = n.MeanCost(config); err != nil {
		return nil, err
	}
	if k.needMS || k.needCost {
		k.prog = n.program(base)
		k.rows = k.prog.Rows(config)
	}
	if k.needCost {
		k.pricePerTask = make([]float64, len(config))
		for i, j := range config {
			k.pricePerTask[i] = n.PricePerHour[j]
			k.xferTotal += n.ftab.Dist(i, j).XferCostUSD
		}
		if n.hasSpot {
			k.costRows = k.prog.CostRows(config)
		}
	}
	return k, nil
}

// Worlds implements WorldKernel: no sampled worlds when every figure is
// deterministic.
func (k *nativeKernel) Worlds() int {
	if !k.needMS && !k.needCost {
		return 0
	}
	return k.n.Iters
}

// Width implements WorldKernel.
func (k *nativeKernel) Width() int { return k.width }

// Sample implements WorldKernel: read world it's task durations from the CRN
// matrix, compute the makespan — by the full longest-path DP over pooled
// scratch, or by the incremental dirty-cone recurrence when a parent
// snapshot is attached — and sum the realized cost, then score the
// probabilistic constraints. All randomness was drawn at row-fill time.
func (k *nativeKernel) Sample(it int, out []float64) error {
	var ms, cost float64
	if k.needMS {
		if k.parent != nil {
			ms = k.sampleDeltaMS(it)
		} else {
			ms = k.sampleFullMS(it)
		}
		out[k.msIdx] = ms
	}
	if k.needCost {
		cost = k.xferTotal
		if k.costRows != nil {
			for i, row := range k.rows {
				if cr := k.costRows[i]; cr != nil {
					cost += cr[it]
					continue
				}
				cost += row[it] / 3600 * k.pricePerTask[i]
			}
		} else {
			for i, row := range k.rows {
				cost += row[it] / 3600 * k.pricePerTask[i]
			}
		}
		out[k.costIdx] = cost
	}
	for ci, c := range k.n.Constraints {
		fi := k.indIdx[ci]
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
	return nil
}

// sampleFullMS runs the full longest-path DP for world it. Without a capture
// snapshot the finish times live in pooled scratch exactly as before delta
// evaluation existed; with one they are written into the snapshot's world
// row, along with the world's makespan and argmax task, so children of this
// state can later be evaluated incrementally.
func (k *nativeKernel) sampleFullMS(it int) float64 {
	f := k.n.flat
	ms := 0.0
	if k.capture == nil {
		sp := k.prog.scratch.Get().(*[]float64)
		finish := *sp
		// No zeroing needed: topological order writes finish[ti] before any
		// child reads it, and every task is written each world.
		for ki, ti := range f.Order {
			start := 0.0
			for _, p := range f.Parents[f.ParentStart[ki]:f.ParentStart[ki+1]] {
				if fp := finish[p]; fp > start {
					start = fp
				}
			}
			end := start + k.rows[ti][it]
			finish[ti] = end
			if end > ms {
				ms = end
			}
		}
		k.prog.scratch.Put(sp)
		return ms
	}
	n0 := f.Len()
	finish := k.capture.finish[it*n0 : (it+1)*n0]
	amax := int32(-1)
	for ki, ti := range f.Order {
		start := 0.0
		for _, p := range f.Parents[f.ParentStart[ki]:f.ParentStart[ki+1]] {
			if fp := finish[p]; fp > start {
				start = fp
			}
		}
		end := start + k.rows[ti][it]
		finish[ti] = end
		if end > ms {
			ms = end
			amax = ti
		}
	}
	k.capture.ms[it] = ms
	k.capture.amax[it] = amax
	return ms
}

// Reduce implements WorldKernel: the same aggregation Algorithm 1 performs,
// from figure sums instead of a sample loop.
func (k *nativeKernel) Reduce(sums []float64) (*Evaluation, error) {
	n := k.n
	iters := float64(n.Iters)
	ev := &Evaluation{Feasible: true, ConsProb: make([]float64, len(n.Constraints))}

	switch n.Goal {
	case GoalCost:
		if n.hasSpot {
			// Expected cost under revocation: the mean of the sampled
			// per-world realized costs.
			ev.Value = sums[k.costIdx] / iters
		} else {
			ev.Value = k.meanCost
		}
	case GoalMakespan:
		ev.Value = sums[k.msIdx] / iters
	default:
		return nil, fmt.Errorf("probir: unknown goal kind %d", n.Goal)
	}

	for ci, c := range n.Constraints {
		var prob, mean float64
		switch c.Kind {
		case "deadline":
			mean = sums[k.msIdx] / iters
			if c.Percentile < 0 {
				// Deterministic notion: expected makespan within bound.
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
				mean = sums[k.costIdx] / iters
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
			// The probability gap alone has no gradient once prob hits 0, so
			// add the relative mean excess to keep the search climbing.
			ev.Violation += c.Percentile - prob
			if mean > c.Bound && c.Bound > 0 {
				ev.Violation += (mean - c.Bound) / c.Bound
			}
		}
	}
	return ev, nil
}
