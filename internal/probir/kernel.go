package probir

import "context"

// This file decomposes Monte-Carlo evaluation into the paper's GPU kernel
// shape (§5.2): a *world kernel* — threads sample realizations of the
// probabilistic facts and compute their figures — plus a *reduction* that
// folds the per-world figures into the Evaluation. Every aggregate Algorithm
// 1 needs (goal means, constraint means, satisfaction counts) is a sum over
// worlds, so the reduction is exactly the shared-memory block sum of §5.2,
// and a device may run the worlds of one state in any order or in parallel.
//
// The kernel contract is ranged: one call computes a chunk of worlds, the
// software form of a warp that steps consecutive worlds through the same
// instruction. The native CRN kernel runs its longest-path DP task-major
// over the chunk — each task's parent list is read once and the max/add
// run across the chunk's worlds — while every world still sees exactly the
// operation sequence of a lone world, so figures are bitwise independent of
// the chunking.
//
// Determinism: a kernel's figures for world it depend only on (kernel, it)
// — every kernel carries its randomness with it, so results are
// bit-identical whether the worlds ran sequentially, state-parallel, or
// two-level on a device, in whatever chunks. No kernel's worlds depend on
// the state it evaluates. Native and Prolog kernels follow the
// common-random-number contract (flat.go): duration draws are keyed by
// (task, type, world) against a search-level base seed, so every state in a
// search shares the same world realizations, numbered decisive-first, and
// the interpreter reads world p's exetime facts from position p of the same
// rows the native kernel reads. The runtime's conditioned residual kernels,
// whose rejection sampling draws a data-dependent number of variates, take
// a decision base when they are built and draw world it from a Stream
// seeded at MixSeed(base, it): a counter-based stream restarts per world in
// O(1), so any number of draws per world costs only its arithmetic, and
// world it reads the same variates whichever chunk it falls in.

// WorldKernel is one state's Monte-Carlo evaluation, decomposed for
// block/thread execution.
type WorldKernel interface {
	// Worlds is the number of Monte-Carlo iterations (threads per block).
	// 0 means the evaluation is deterministic and needs no sampled worlds.
	Worlds() int
	// Width is the number of figures each world produces.
	Width() int
	// Sample computes worlds [lo, hi) into out: hi-lo rows of Width()
	// figures, zeroed on entry, row r receiving world lo+r. It must be safe
	// for concurrent calls over disjoint ranges.
	Sample(lo, hi int, out []float64) error
	// Reduce folds the figure-wise sums (len Width()) over the first seen
	// worlds, accumulated in ascending world order, into an evaluation. At
	// seen == Worlds() it is the full reduction. A shorter prefix reduces
	// pessimistically: every unseen world is assumed to violate every
	// probabilistic constraint, so Feasible holds only when the prefix alone
	// proves every constraint probability, and each reported probability is
	// a lower bound of the full evaluation's; sampled means are the
	// prefix's. The solver reduces a prefix only for an evaluator that
	// declares its indicators (Evaluator.Indicators).
	Reduce(sums []float64, seen int) (*Evaluation, error)
}

// MixSeed mixes a base seed with an index (splitmix64 finalizer), giving
// every (base, index) pair its own statistically independent substream:
// row ri of a CRN Program (flat.go), world it of a residual kernel's
// decision base, decision d of a monitor seed in package runtime. For
// i = 0, 1, 2, … it is the splitmix64 sequence seeded at base, which is
// what a Stream draws.
func MixSeed(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Stream is a counter-based rand.Source64: a seed and a draw counter, draw
// k being MixSeed(seed, k). Seed restarts it in O(1), where a math/rand
// source refills a 607-word state, so a kernel whose worlds draw a
// data-dependent number of variates can give every world its own stream
// from one Stream per chunk. The zero value is the stream of seed 0.
type Stream struct {
	seed int64
	n    int
}

// Seed restarts the stream at draw 0 of seed.
func (s *Stream) Seed(seed int64) { s.seed, s.n = seed, 0 }

// Uint64 returns the next draw.
func (s *Stream) Uint64() uint64 {
	v := MixSeed(s.seed, s.n)
	s.n++
	return uint64(v)
}

// Int63 returns the next draw's top 63 bits.
func (s *Stream) Int63() int64 { return int64(s.Uint64() >> 1) }

// RunKernel executes a kernel's worlds sequentially and reduces them,
// accumulating in iteration order — the reference semantics every device
// execution must (and does) match bit-identically.
func RunKernel(k WorldKernel) (*Evaluation, error) {
	sums := make([]float64, k.Width())
	if err := RunKernelRange(k, sums, 0, k.Worlds()); err != nil {
		return nil, err
	}
	return k.Reduce(sums, k.Worlds())
}

// nativeKernel is the Native evaluator's world kernel under the CRN
// contract. Its figure layout, indicator scoring and constraint reduction
// are the embedded Figures. Makespan and cost figures of one world share the
// same per-(task, world) duration draws from the program's CRN matrix.
type nativeKernel struct {
	Figures
	n      *Native
	config []int

	// prog holds the configuration's CRN duration rows (row(i) = task i's,
	// indexed by world); nil when no figure is sampled. pricePerTask is each
	// task's hourly price under the configuration, resolved only when cost
	// samples are needed.
	prog         *Program
	pricePerTask []float64
	meanCost     float64 // deterministic Eq. 1-2 cost, computed once
	// xferTotal is the configuration's deterministic cross-region egress
	// cost, added to every world's cost figure.
	xferTotal float64
}

// Bind implements Evaluator. It resolves the figure layout and, when some
// figure samples worlds, builds the CRN Program of base: every row sampled
// and stored decisive-world-first, so each kernel it builds reads that one
// Program and Sample is read-only — a device may run worlds concurrently.
// A world-free layout builds no Program. ctx cancels the build, the one
// step of a binding that can take long; the error then wraps ctx's.
func (n *Native) Bind(ctx context.Context, base int64) (Kernels, error) {
	figs := n.figures()
	var prog *Program
	if figs.Worlds() > 0 {
		var err error
		if prog, err = n.newProgram(ctx, base); err != nil {
			return nil, err
		}
	}
	return func(config []int) (WorldKernel, error) {
		if err := n.checkConfig(config); err != nil {
			return nil, err
		}
		k := &nativeKernel{n: n, config: config, Figures: figs, prog: prog, meanCost: n.meanCost(config)}
		if k.needCost {
			k.pricePerTask = make([]float64, len(config))
			for i, j := range config {
				k.pricePerTask[i] = n.PricePerHour[j]
				k.xferTotal += n.ftab.Dist(i, j).XferCostUSD
			}
		}
		return k, nil
	}, nil
}

// figures lays out the figures of every kernel of n. Spot markets make cost
// a random variable for every state of the search (uniform kernel shape —
// the compiled solver resolves figure layout once per problem), so the cost
// figure is then always sampled.
func (n *Native) figures() Figures {
	return NewFigures(n.Constraints, n.Iters, n.Goal == GoalMakespan, n.hasSpot)
}

// Indicators implements Evaluator from the figure layout: nil under a
// mean-notion deadline.
func (n *Native) Indicators() (idx []int, targets []float64) {
	f := n.figures()
	if idx, targets, ok := f.Indicators(); ok {
		return idx, targets
	}
	return nil, nil
}

// row returns task i's CRN duration row.
func (k *nativeKernel) row(i int32) []float64 { return k.prog.row(int(i), k.config[i]) }

// Sample implements WorldKernel: compute the chunk's makespans from the CRN
// matrix by the longest-path DP and sum the realized costs, then score the
// probabilistic constraints. Each pass runs task-major over the chunk's run
// of every row; every world's figures come out of the same operations, in
// the same order, as a lone world's would. All randomness was drawn when
// the Program was built.
func (k *nativeKernel) Sample(lo, hi int, out []float64) error {
	m := hi - lo
	bs := k.prog.block(m)
	defer k.prog.blocks.Put(bs)
	ms, cost := bs.ms[:m], bs.cost[:m]
	if k.needMS {
		k.makespans(lo, ms, bs)
	}
	if k.needCost {
		k.blockCost(lo, cost)
	}
	w := k.Width()
	for r := range m {
		k.Score(out[r*w:(r+1)*w], ms[r], cost[r])
	}
	return nil
}

// blockCost sums the realized cost of worlds [lo, lo+len(cost)) over the
// tasks in index order (float summation order is observable): the
// configuration's transfer cost, then per task its spot cost row or its
// duration at the on-demand price.
func (k *nativeKernel) blockCost(lo int, cost []float64) {
	hi := lo + len(cost)
	for r := range cost {
		cost[r] = k.xferTotal
	}
	for i, j := range k.config {
		// A task on a spot column carries its paired realized cost row
		// (market.go).
		if cr := k.prog.costRow(i, j); cr != nil {
			for r, c := range cr[lo:hi] {
				cost[r] += c
			}
			continue
		}
		price := k.pricePerTask[i]
		for r, d := range k.prog.row(i, j)[lo:hi] {
			cost[r] += d / 3600 * price
		}
	}
}

// makespans runs the longest-path DP for worlds [lo, lo+len(ms)),
// task-major, into ms: for each task in topological order, the start of
// every world is the max over the parent finishes (parents in CSR order,
// strict >, from 0) and its finish adds the world's duration. The finish
// times live in pooled scratch. While every duration is non-negative no
// finish exceeds every sink's, so the makespan folds over the sinks alone,
// in index order, after the DP; otherwise every task's finish is folded as
// it is computed. The makespan is the same maximum either way.
func (k *nativeKernel) makespans(lo int, ms []float64, bs *blockScratch) {
	f := k.n.flat
	m := len(ms)
	clear(ms)
	// fin holds task t's finish in chunk row r at fin[t*m+r].
	fin := bs.scratch(f.Len(), m)
	run := func(t int32) []float64 { return fin[int(t)*m : int(t)*m+m] }
	fold := func(t int32) {
		for r, v := range run(t) {
			if v > ms[r] {
				ms[r] = v
			}
		}
	}
	negative := k.prog.negative
	for ki, ti := range f.Order {
		dst := run(ti)
		// No zeroing of fin needed: topological order writes a task before
		// any child reads it, and every task is written for every world.
		clear(dst)
		for _, p := range f.Parents[f.ParentStart[ki]:f.ParentStart[ki+1]] {
			for r, v := range run(p) {
				if v > dst[r] {
					dst[r] = v
				}
			}
		}
		for r, d := range k.row(ti)[lo : lo+m] {
			dst[r] += d
		}
		if negative {
			fold(ti)
		}
	}
	if !negative {
		for _, t := range f.Sinks {
			fold(t)
		}
	}
}
