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
//   - A state whose feasibility verdict is decided — certainly, by the exact
//     worst-case interval, or statistically, by the anytime-valid confidence
//     sequence — stops and is finalized from its prefix. Early verdicts are
//     pessimistic where they must be: a state is only reported Feasible when
//     that is proven (or statistically decided), so a partially evaluated
//     state can never wrongly become the incumbent.
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
// fully-evaluated states enter the evaluation cache or the snapshot store,
// and partial verdicts carry their world count (scored.worlds).

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
	// WorldsRun.
	WorldsReordered int64
	// StatesAdaptive counts states evaluated on the adaptive path.
	StatesAdaptive int64
	// WorldsBudget is the worlds the fixed path would have run for those
	// states; WorldsRun is the worlds actually sampled.
	WorldsBudget int64
	WorldsRun    int64
	// StoppedFeasible / StoppedInfeasible count states whose verdict was
	// decided before the cap; Raced counts states eliminated by racing;
	// FullRuns counts states that ran every world.
	StoppedFeasible   int64
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

// SampleStats returns the problem's adaptive-evaluation counters. Like
// DeltaStats, it is only meaningful between searches.
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

// finalizePartial reduces an early-stopped state from its world prefix. The
// pessimistic reduction (unseen worlds fail every indicator) is correct for
// infeasible and undecided stops. A statistically-decided feasible stop whose
// worst-case interval is still open needs the optimistic completion for its
// indicators — otherwise the pessimistic lower bounds would contradict the
// verdict — while deterministic constraints keep their exact checks.
func (p *Problem) finalizePartial(k probir.PartialKernel, sums []float64, seen int, v sample.Verdict) (*probir.Evaluation, error) {
	ev, err := k.ReducePartial(sums, seen)
	if err != nil {
		return nil, err
	}
	if v == sample.DecidedFeasible && !ev.Feasible {
		opt := append([]float64(nil), sums...)
		for _, fi := range p.indIdx {
			opt[fi] += float64(p.worlds - seen)
		}
		return k.ReducePartial(opt, seen)
	}
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
	snaps    []*probir.Snapshot     // delta only
	buf      *batchBuf              // reused round buffers
	sums     []float64
	seen     []int

	// Adaptive only: the stop verdict of each finished state; pinned marks
	// states whose feasible verdict is already certain but that keep running
	// to completion so their capture snapshot survives (racing must not
	// eliminate them — a pessimistic finalize would overwrite a
	// decided-feasible verdict); blockOf maps a state to its block in the
	// current chunk; pairRef/pairs are the paired-value racing reference and
	// its per-state difference trackers.
	verdict []sample.Verdict
	pinned  []bool
	blockOf []int
	pairRef string
	pairs   map[int]*sample.Paired
}

// row returns state i's running figure sums.
func (b *batch) row(i int) []float64 { return b.sums[i*b.p.width : (i+1)*b.p.width] }

// evaluate scores a batch of candidates. Kernels are built serially (the
// delta path's plan cache and snapshot store are search-goroutine state); a
// state whose kernel fails to build, or differs from the compiled shape,
// carries that error while the others evaluate. With adaptive false every
// state runs every world; with adaptive true states stop, and race, as
// their verdicts are decided.
func (p *Problem) evaluate(cands []candidate, adaptive bool) []scored {
	n := len(cands)
	b := &batch{p: p, adaptive: adaptive, cands: cands,
		out: make([]scored, n), kernels: make([]probir.WorldKernel, n),
		sums: make([]float64, n*p.width), seen: make([]int, n)}
	bb := p.getBatchBuf(n)
	defer p.putBatchBuf(bb)
	b.buf, b.snaps = bb, bb.snaps
	if adaptive {
		b.partial = make([]probir.PartialKernel, n)
		b.verdict = make([]sample.Verdict, n)
		b.pinned = make([]bool, n)
		b.blockOf = make([]int, n)
		b.pairs = make(map[int]*sample.Paired)
	}
	p.enterPhase(phaseKernelBuild)
	active := make([]int, 0, n)
	for i, c := range cands {
		b.out[i] = scored{state: c.state, key: c.key}
		k, snap, err := p.buildKernel(c)
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
			if snap != nil {
				p.delta.ReleaseSnapshot(snap)
			}
			b.out[i].err = err
			continue
		}
		b.kernels[i] = k
		if b.snaps != nil {
			b.snaps[i] = snap
		}
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
	// Sampling is complete: snapshots of completely evaluated states enter
	// the store under their search score (possibly evicting worse-scored
	// states' snapshots back to the pool); all others — failed states, and
	// partial snapshots with unwritten worlds — are recycled directly.
	// Storing strictly after the batch finishes is what makes eviction safe:
	// no running kernel can hold a reference to an evicted snapshot.
	if b.snaps != nil {
		p.enterPhase(phaseSnapshotPut)
		for i, sn := range b.snaps {
			if sn == nil {
				continue
			}
			if s := b.out[i]; s.err == nil && s.eval != nil && b.seen[i] == p.worlds {
				p.snaps.put(s.key, Score(s.eval, p.opts.Maximize), sn)
			} else {
				p.delta.ReleaseSnapshot(sn)
			}
		}
		p.exitPhase()
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
// them at the world cap, decided ones before it — and, on the adaptive path,
// races the rest. check is the 1-based index of the chunk in the schedule.
// It returns the states still running.
func (b *batch) chunk(active []int, lo, end, check int) []int {
	p := b.p
	width, nb, span := p.width, len(active), end-lo
	// A chunk over every state of the batch folds straight into the sums;
	// otherwise the active rows are gathered into their block order.
	round := b.sums
	if nb < len(b.cands) {
		if cap(b.buf.round) < nb*width {
			b.buf.round = make([]float64, nb*width)
		}
		round = b.buf.round[:nb*width]
		for bi, i := range active {
			copy(round[bi*width:(bi+1)*width], b.row(i))
		}
	}
	p.enterPhase(phaseChunkEval)
	// Cancellation is checked once per (state, chunk) unit.
	slots, errs := device.ReduceBlocksRange(p.opts.Device, nb, lo, end, width, round, &b.buf.dev, func(bi, clo, chi int, out []float64) error {
		if err := p.opts.Ctx.Err(); err != nil {
			return fmt.Errorf("opt: search cancelled: %w", err)
		}
		return b.kernels[active[bi]].Sample(clo, chi, out)
	})

	delta := 1 - p.opts.Confidence
	// next filters active in place: entry bi is read before any later
	// state is appended.
	if cap(b.buf.done) < nb {
		b.buf.done = make([]int, nb)
	}
	done := b.buf.done[:0]
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
			// Sequential stopping: a decided state finishes now. A
			// feasible-decided state still holding a capture snapshot is
			// pinned to completion instead: its verdict can only be confirmed
			// by the remaining worlds (a feasible-certain prefix stays
			// feasible), finishing costs at most the tail cushion, and only a
			// complete evaluation may keep its snapshot — the parent material
			// every delta child of this state needs.
			b.blockOf[i] = bi
			v := p.stateVerdict(b.row(i), end, check, delta)
			if v == sample.Undecided || (v == sample.DecidedFeasible && b.snaps != nil && b.snaps[i] != nil) {
				if v == sample.DecidedFeasible {
					b.pinned[i] = true
				}
				next = append(next, i)
				continue
			}
			b.verdict[i] = v
		}
		done = append(done, i)
	}
	// Finished states reduce as device blocks: a reduction can do real work
	// (CostFn objectives such as the packed plan cost run there).
	if len(done) > 0 {
		p.opts.Device.Map(len(done), func(d int) {
			i := done[d]
			if err := p.opts.Ctx.Err(); err != nil {
				b.out[i].err = fmt.Errorf("opt: search cancelled: %w", err)
				return
			}
			row := b.row(i)
			if end == p.worlds {
				b.out[i].eval, b.out[i].err = b.kernels[i].Reduce(row)
			} else {
				b.out[i].eval, b.out[i].err = p.finalizePartial(b.partial[i], row, end, b.verdict[i])
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
		case b.verdict[i] == sample.DecidedFeasible:
			p.sstats.StoppedFeasible++
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
// Eliminated states finalize pessimistically via finalizePartial (verdict
// undecided ⇒ never feasible), so they cannot wrongly become the incumbent.
func (b *batch) race(active []int, slots []float64, span, check int, delta float64) []int {
	p := b.p
	keep := p.opts.BeamWidth
	if keep < 1 {
		keep = 1
	}
	eliminate := func(i int) {
		b.out[i].eval, b.out[i].err = p.finalizePartial(b.partial[i], b.row(i), b.seen[i], sample.Undecided)
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
// value, probabilities, and violation). Feasible early stops by the exact
// rule are guaranteed to stay feasible; the confirmation refines the
// reported numbers.
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
