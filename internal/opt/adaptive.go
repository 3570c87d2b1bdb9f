package opt

import (
	"fmt"

	"deco/internal/device"
	"deco/internal/probir"
)

// This file implements the solver's one batch evaluator. Every state is a
// device block and every Monte-Carlo world a thread (§5.2-5.3): a batch of
// states advances through contiguous world ranges on the device, each range
// folds into running figure sums in ascending world order (so the sums are
// bit-identical at every prefix), and finished states reduce as device
// blocks. At fixed precision the schedule is the single range [0, worlds).
//
// Adaptive precision runs the geometric chunks of chunks(MinWorlds, worlds)
// and has one stopping rule, exact under any world order: after a chunk, a
// state stops once some percentile indicator's worst-case final probability
// — every unseen world satisfying it — falls below its target. Such a state
// is infeasible whatever its remaining worlds hold, so it is finalized
// pessimistically from its prefix. Every other state runs to the world cap,
// so every evaluation reported Feasible is complete: its value and
// probabilities are the fixed path's. Spaces number their worlds
// decisive-first (a CRN Program stores its rows most severe world first), so
// the first chunks hold the likely-violating worlds.
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
	// the space declared the indicators that decide feasibility).
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
	// FullRuns counts states that ran every world.
	StoppedInfeasible int64
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

// chunks returns the cumulative world counts after which adaptive evaluation
// consults its stopping rule: min worlds first, then geometrically doubling
// chunk sizes, ending exactly at total. Geometric growth keeps the number of
// checks, and with them the per-chunk device rounds, logarithmic in total.
func chunks(min, total int) []int {
	if total <= 0 {
		return nil
	}
	if min < 1 {
		min = 1
	}
	var ends []int
	end, size := 0, min
	for end < total {
		end += size
		if end > total {
			end = total
		}
		ends = append(ends, end)
		size *= 2
	}
	return ends
}

// maxProb is the largest final success probability of an indicator over
// total worlds once succ of the first seen worlds satisfied it: every unseen
// world succeeding. The bound is exact, since division by total is monotone
// in the numerator, and at seen == total it is the final probability itself.
func maxProb(succ float64, seen, total int) float64 {
	return (succ + float64(total-seen)) / float64(total)
}

// provenInfeasible reports whether a state whose running figure sums cover
// its first seen worlds misses some percentile target however its remaining
// worlds come out.
func (p *Problem) provenInfeasible(sums []float64, seen int) bool {
	for j, fi := range p.indIdx {
		if maxProb(sums[fi], seen, p.worlds) < p.indTargets[j] {
			return true
		}
	}
	return false
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
	sums     []float64
	seen     []int
}

// row returns state i's running figure sums.
func (b *batch) row(i int) []float64 { return b.sums[i*b.p.width : (i+1)*b.p.width] }

// evaluate scores a batch of candidates. Kernels are built serially; a state
// whose kernel fails to build, or differs from the compiled shape, carries
// that error while the others evaluate. With adaptive false every state
// runs every world; with adaptive true a state stops once it is proven
// infeasible.
func (p *Problem) evaluate(cands []candidate, adaptive bool) []scored {
	n := len(cands)
	b := &batch{p: p, adaptive: adaptive, cands: cands,
		out: make([]scored, n), kernels: make([]probir.WorldKernel, n),
		sums: make([]float64, n*p.width), seen: make([]int, n)}
	p.evals += int64(n)
	p.enterPhase(phaseKernelBuild)
	active := make([]int, 0, n)
	for i, c := range cands {
		b.out[i] = scored{state: c.state, key: c.key}
		k, err := p.kernel(c.state)
		if err == nil {
			err = p.checkKernel(k)
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
		ends = chunks(p.opts.MinWorlds, p.worlds)
	}
	lo := 0
	for _, end := range ends {
		if len(active) == 0 {
			break
		}
		active = b.chunk(active, lo, end)
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
// them into the running sums and finalizes every state that is done: all of
// them at the world cap, the proven-infeasible ones before it. It returns
// the states still running.
func (b *batch) chunk(active []int, lo, end int) []int {
	p := b.p
	width, nb := p.width, len(active)
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
	errs := device.ReduceBlocksRange(p.opts.Device, nb, lo, end, width, round, &p.buf.dev, func(bi, clo, chi int, out []float64) error {
		if err := p.opts.Ctx.Err(); err != nil {
			return fmt.Errorf("opt: search cancelled: %w", err)
		}
		return b.kernels[active[bi]].Sample(clo, chi, out)
	})

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
		if end < p.worlds && !p.provenInfeasible(b.row(i), end) {
			next = append(next, i)
			continue
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
			ev, err := b.kernels[i].Reduce(b.row(i), end)
			b.out[i].eval, b.out[i].err = p.reduced(b.cands[i].state, ev, err)
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
	return next
}

// confirmBest re-evaluates a partially evaluated search result at full
// precision, so every returned Result is backed by a complete evaluation (exact
// value, probabilities, and violation). A feasible state always runs every
// world; the confirmation refines the numbers of an infeasible incumbent that
// stopped early.
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
