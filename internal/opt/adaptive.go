package opt

import (
	"fmt"
	"math"
	"sort"

	"deco/internal/device"
	"deco/internal/probir"
	"deco/internal/sample"
)

// This file implements the solver's one batch evaluator. Every state is a
// device block and every Monte-Carlo world a thread (§5.2-5.3): a batch of
// states advances through contiguous world ranges on the device, each range
// folds into running figure sums in ascending world order (so the sums are
// bit-identical at every prefix), and finished states reduce as device
// blocks. At fixed precision the schedule is the single range [0, worlds).
// Adaptive precision runs the geometric chunks of sample.TailChunks, with
// extra checkpoints where tail verdicts first become decidable, and after
// each one consults the sequential stopping rules of package sample. Spaces
// number their worlds decisive-first (a CRN Program stores its rows most
// severe world first), so the first chunks hold the likely-violating
// worlds:
//
//   - A state decided infeasible — certainly, by the exact worst-case
//     interval, or statistically, by the anytime-valid confidence sequence —
//     stops and is finalized pessimistically from its prefix. A state decided
//     feasible runs on to the world cap, so every evaluation reported
//     Feasible is complete: its value and probabilities are the fixed
//     path's, whatever stopped its siblings, and racing never eliminates it.
//
//   - Racing (successive elimination) drops states that provably cannot rank
//     among the batch's best BeamWidth: their optimistic final score already
//     exceeds the BeamWidth-th best finalized score. For sampled-value goals
//     the CRN contract additionally pairs per-world value differences
//     against a reference state, eliminating provably-worse states at low
//     variance. Eliminated states finalize pessimistically (never feasible),
//     so racing can only cost them expansion priority, not correctness.
//
// All decisions are functions of the running sums and the fixed chunk
// schedule, so adaptive results are identical across devices. States that
// reach the world cap reduce exactly as at fixed precision; only
// fully-evaluated states enter the evaluation cache, and partial verdicts
// carry their world count (scored.worlds).

// SampleStats reports how adaptive evaluation spent its world budget, for
// observability and benchmark gating. Counters cover live adaptive
// evaluations only (cache hits evaluate nothing) and are updated from the
// search goroutine; read them between searches.
type SampleStats struct {
	// Adaptive reports whether the compiled problem routes evaluation
	// through the adaptive path at all (Options.Adaptive requested it AND
	// the space's kernels are indicator-backed partial kernels).
	Adaptive bool
	// WorldsReordered counts the worlds adaptive evaluation sampled in the
	// decisive-world-first numbering: every adaptive world, so it equals
	// WorldsRun. It stays only because the repository benchmark reads it;
	// every other surface reports WorldsRun.
	WorldsReordered int64
	// StatesAdaptive counts states evaluated on the adaptive path.
	StatesAdaptive int64
	// WorldsBudget is the worlds the fixed path would have run for those
	// states; WorldsRun is the worlds actually sampled.
	WorldsBudget int64
	WorldsRun    int64
	// StoppedInfeasible counts states decided infeasible before the cap;
	// Raced counts states eliminated by racing; FullRuns counts states that
	// ran every world.
	StoppedInfeasible int64
	Raced             int64
	FullRuns          int64
	// Confirmations counts final-best full re-evaluations (a search result
	// is always backed by a complete evaluation).
	Confirmations int64
}

// WorldsSaved is the number of Monte-Carlo worlds adaptive evaluation avoided
// relative to the fixed budget.
func (s SampleStats) WorldsSaved() int64 { return s.WorldsBudget - s.WorldsRun }

// SampleStats returns the problem's adaptive-evaluation counters. It is
// only meaningful between searches.
func (p *Problem) SampleStats() SampleStats { return p.sstats }

// stateVerdict combines the per-constraint sequential checks of one state:
// infeasible as soon as any indicator is decided infeasible, feasible only
// when every indicator is decided feasible.
func (p *Problem) stateVerdict(sums []float64, seen, check int, delta float64) sample.Verdict {
	allFeasible := true
	for j, fi := range p.indIdx {
		b := sample.Bernoulli{Succ: sums[fi], Seen: seen}
		switch b.Check(p.worlds, p.indTargets[j], delta, check) {
		case sample.DecidedInfeasible:
			return sample.DecidedInfeasible
		case sample.Undecided:
			allFeasible = false
		}
	}
	if allFeasible {
		return sample.DecidedFeasible
	}
	return sample.Undecided
}

// finalizePartial reduces an early-stopped state st pessimistically from
// its world prefix (unseen worlds fail every indicator), then applies any
// objective.
func (p *Problem) finalizePartial(k probir.PartialKernel, st State, sums []float64, seen int) (*probir.Evaluation, error) {
	ev, err := k.ReducePartial(sums, seen)
	return p.reduced(st, ev, err)
}

// reduced applies the compiled objective to a reduction of state st: the
// objective's value replaces the reduced goal value.
func (p *Problem) reduced(st State, ev *probir.Evaluation, err error) (*probir.Evaluation, error) {
	if err != nil || p.objective == nil {
		return ev, err
	}
	v, err := p.objective(st)
	if err != nil {
		return nil, err
	}
	ev.Value = v
	return ev, nil
}

// batch is the working state of one evaluate call. Per-state slices are
// indexed like the candidates; sums holds each state's running figure sums
// (width per state) and seen the worlds folded into them.
type batch struct {
	p        *Problem
	adaptive bool
	cands    []candidate
	out      []scored
	kernels  []probir.WorldKernel
	partial  []probir.PartialKernel // adaptive only
	sums     []float64
	seen     []int

	// Adaptive only: pinned marks states decided feasible, which run on to
	// the world cap (racing must not eliminate them — a pessimistic finalize
	// would overwrite the verdict); blockOf maps a state to its block in the
	// current chunk; pairRef/pairs are the paired-value racing reference and
	// its per-state difference trackers.
	pinned  []bool
	blockOf []int
	pairRef string
	pairs   map[int]*sample.Paired
}

// row returns state i's running figure sums.
func (b *batch) row(i int) []float64 { return b.sums[i*b.p.width : (i+1)*b.p.width] }

// evaluate scores a batch of candidates. Kernels are built serially; a state
// whose kernel fails to build, or differs from the compiled shape, carries
// that error while the others evaluate. With adaptive false every state
// runs every world; with adaptive true states stop, and race, as their
// verdicts are decided.
func (p *Problem) evaluate(cands []candidate, adaptive bool) []scored {
	n := len(cands)
	b := &batch{p: p, adaptive: adaptive, cands: cands,
		out: make([]scored, n), kernels: make([]probir.WorldKernel, n),
		sums: make([]float64, n*p.width), seen: make([]int, n)}
	p.evals += int64(n)
	if adaptive {
		b.partial = make([]probir.PartialKernel, n)
		b.pinned = make([]bool, n)
		b.blockOf = make([]int, n)
		b.pairs = make(map[int]*sample.Paired)
	}
	p.enterPhase(phaseKernelBuild)
	active := make([]int, 0, n)
	for i, c := range cands {
		b.out[i] = scored{state: c.state, key: c.key}
		k, err := p.kernel(c.state)
		if err == nil {
			err = p.checkKernel(k)
		}
		if err == nil && adaptive {
			var ok bool
			if b.partial[i], ok = k.(probir.PartialKernel); !ok {
				err = fmt.Errorf("opt: kernel %T cannot reduce a world prefix", k)
			}
		}
		if err != nil {
			b.out[i].err = err
			continue
		}
		b.kernels[i] = k
		active = append(active, i)
	}
	p.exitPhase()

	ends := []int{p.worlds}
	if adaptive {
		p.sstats.StatesAdaptive += int64(len(active))
		p.sstats.WorldsBudget += int64(len(active) * p.worlds)
		ends = sample.TailChunks(p.opts.MinWorlds, p.worlds, p.indTargets)
	}
	lo := 0
	for ci, end := range ends {
		if len(active) == 0 {
			break
		}
		active = b.chunk(active, lo, end, ci+1)
		lo = end
	}

	if adaptive {
		// Every state's spend counts once, wherever its evaluation ended.
		run := int64(0)
		for i := range cands {
			run += int64(b.seen[i])
		}
		p.sstats.WorldsRun += run
		p.sstats.WorldsReordered += run
	}
	return b.out
}

// checkKernel rejects a kernel whose shape differs from the compiled one.
func (p *Problem) checkKernel(k probir.WorldKernel) error {
	if k == nil {
		return fmt.Errorf("opt: space built no kernel")
	}
	if k.Worlds() != p.worlds || k.Width() != p.width {
		return fmt.Errorf("opt: kernel shape (%d worlds, %d figures) differs from the compiled (%d, %d)",
			k.Worlds(), k.Width(), p.worlds, p.width)
	}
	return nil
}

// chunk runs worlds [lo, end) of the active states as device blocks, folds
// them into the running sums, finalizes every state that is done — all of
// them at the world cap, infeasible-decided ones before it — and, on the
// adaptive path, races the rest. check is the 1-based index of the chunk in
// the schedule. It returns the states still running.
func (b *batch) chunk(active []int, lo, end, check int) []int {
	p := b.p
	width, nb, span := p.width, len(active), end-lo
	// A chunk over every state of the batch folds straight into the sums;
	// otherwise the active rows are gathered into their block order.
	round := b.sums
	if nb < len(b.cands) {
		if cap(p.buf.round) < nb*width {
			p.buf.round = make([]float64, nb*width)
		}
		round = p.buf.round[:nb*width]
		for bi, i := range active {
			copy(round[bi*width:(bi+1)*width], b.row(i))
		}
	}
	p.enterPhase(phaseChunkEval)
	// Cancellation is checked once per (state, chunk) unit.
	slots, errs := device.ReduceBlocksRange(p.opts.Device, nb, lo, end, width, round, &p.buf.dev, func(bi, clo, chi int, out []float64) error {
		if err := p.opts.Ctx.Err(); err != nil {
			return fmt.Errorf("opt: search cancelled: %w", err)
		}
		return b.kernels[active[bi]].Sample(clo, chi, out)
	})

	delta := 1 - p.opts.Confidence
	// next filters active in place: entry bi is read before any later
	// state is appended.
	if cap(p.buf.done) < nb {
		p.buf.done = make([]int, nb)
	}
	done := p.buf.done[:0]
	next := active[:0]
	for bi, i := range active {
		if errs[bi] != nil {
			b.out[i].err = errs[bi]
			b.out[i].worlds = b.seen[i]
			continue
		}
		if nb < len(b.cands) {
			copy(b.row(i), round[bi*width:(bi+1)*width])
		}
		b.seen[i] = end
		if end < p.worlds {
			// Sequential stopping: an infeasible-decided state finishes now.
			// A feasible-decided one is pinned to the cap: the remaining
			// worlds can only confirm its verdict (a feasible-certain prefix
			// stays feasible), and a complete evaluation is exactly the fixed
			// path's, so no feasible result rests on a world prefix.
			b.blockOf[i] = bi
			v := p.stateVerdict(b.row(i), end, check, delta)
			if v != sample.DecidedInfeasible {
				b.pinned[i] = b.pinned[i] || v == sample.DecidedFeasible
				next = append(next, i)
				continue
			}
		}
		done = append(done, i)
	}
	// Finished states reduce as device blocks: a reduction can do real work
	// (objectives such as the packed plan cost run there).
	if len(done) > 0 {
		p.opts.Device.Map(len(done), func(d int) {
			i := done[d]
			if err := p.opts.Ctx.Err(); err != nil {
				b.out[i].err = fmt.Errorf("opt: search cancelled: %w", err)
				return
			}
			st, row := b.cands[i].state, b.row(i)
			if end == p.worlds {
				ev, err := b.kernels[i].Reduce(row)
				b.out[i].eval, b.out[i].err = p.reduced(st, ev, err)
			} else {
				b.out[i].eval, b.out[i].err = p.finalizePartial(b.partial[i], st, row, end)
			}
		})
	}
	p.exitPhase()
	for _, i := range done {
		b.out[i].worlds = end
		switch {
		case !b.adaptive:
		case end == p.worlds:
			p.sstats.FullRuns++
		default:
			p.sstats.StoppedInfeasible++
		}
	}
	// Racing (minimized objectives only): eliminate states that provably
	// cannot rank among the batch's best BeamWidth finalized scores.
	if len(next) > 0 && !p.opts.Maximize {
		p.enterPhase(phaseRacing)
		next = b.race(next, slots, span, check, delta)
		p.exitPhase()
	}
	return next
}

// race applies successive elimination to the undecided states of a batch and
// returns the survivors. Two rules run, both deterministic functions of the
// running sums and chunk slots:
//
//  1. Interval elimination: a state whose optimistic final score (its exact
//     value for deterministic-value goals, or the value lower bound assuming
//     zero-valued remaining worlds for sampled-value goals) exceeds the
//     keep-th smallest finalized score can never be chosen for expansion
//     ahead of those states.
//
//  2. CRN-paired value racing (sampled-value goals): per-world differences
//     against the keep-th-ranked active state are paired samples under the
//     CRN contract; a state whose mean difference has a positive
//     empirical-Bernstein lower bound is provably worse than the reference.
//
// Eliminated states finalize pessimistically via finalizePartial, so they
// cannot wrongly become the incumbent.
func (b *batch) race(active []int, slots []float64, span, check int, delta float64) []int {
	p := b.p
	keep := p.opts.BeamWidth
	if keep < 1 {
		keep = 1
	}
	eliminate := func(i int) {
		b.out[i].eval, b.out[i].err = p.finalizePartial(b.partial[i], b.cands[i].state, b.row(i), b.seen[i])
		b.out[i].worlds = b.seen[i]
		p.sstats.Raced++
	}

	// Rule 1: optimistic score vs the keep-th smallest finalized score.
	var finals []float64
	for _, s := range b.out {
		if s.eval != nil && s.err == nil {
			finals = append(finals, Score(s.eval, false))
		}
	}
	threshold := math.Inf(1)
	if len(finals) >= keep {
		sort.Float64s(finals)
		threshold = finals[keep-1]
	}
	var survivors []int
	for _, i := range active {
		if b.pinned[i] {
			survivors = append(survivors, i)
			continue
		}
		var optimistic float64
		if p.valueFig < 0 {
			ev, err := b.partial[i].ReducePartial(b.row(i), b.seen[i])
			ev, err = p.reduced(b.cands[i].state, ev, err)
			if err != nil {
				b.out[i].err = err
				b.out[i].worlds = b.seen[i]
				continue
			}
			optimistic = ev.Value
		} else {
			optimistic = b.row(i)[p.valueFig] / float64(p.worlds)
		}
		if optimistic > threshold {
			eliminate(i)
			continue
		}
		survivors = append(survivors, i)
	}
	active = survivors

	// Rule 2: paired value racing, for sampled-value goals with enough
	// contenders left.
	if p.valueFig < 0 || len(active) <= keep {
		return active
	}
	ranked := append([]int(nil), active...)
	sort.Slice(ranked, func(x, y int) bool {
		vx, vy := b.row(ranked[x])[p.valueFig], b.row(ranked[y])[p.valueFig]
		if vx != vy {
			return vx < vy
		}
		return b.cands[ranked[x]].key < b.cands[ranked[y]].key
	})
	ref := ranked[keep-1]
	if b.cands[ref].key != b.pairRef {
		b.pairRef = b.cands[ref].key
		clear(b.pairs)
	}
	refBlock := b.blockOf[ref]
	survivors = active[:0]
	for _, i := range active {
		if i == ref || b.pinned[i] {
			survivors = append(survivors, i)
			continue
		}
		tr := b.pairs[i]
		if tr == nil {
			tr = &sample.Paired{}
			b.pairs[i] = tr
		}
		bi := b.blockOf[i]
		for t := 0; t < span; t++ {
			tr.Add(slots[(bi*span+t)*p.width+p.valueFig] - slots[(refBlock*span+t)*p.width+p.valueFig])
		}
		if tr.LowerBound(delta, check) > 0 {
			eliminate(i)
			continue
		}
		survivors = append(survivors, i)
	}
	return survivors
}

// confirmBest re-evaluates a partially evaluated search result at full
// precision, so every returned Result is backed by a complete evaluation (exact
// value, probabilities, and violation). States decided feasible run every
// world; the confirmation refines the numbers of an incumbent that stopped
// early.
func (p *Problem) confirmBest(s *scored) error {
	if s == nil || s.worlds == 0 || s.worlds >= p.worlds {
		return nil
	}
	batch := p.evaluate([]candidate{{state: s.state, key: s.key}}, false)
	if batch[0].err != nil {
		return batch[0].err
	}
	s.eval = batch[0].eval
	s.worlds = 0
	p.sstats.Confirmations++
	if p.cache != nil && s.eval != nil {
		p.cache.Put(s.key, s.eval)
	}
	return nil
}
