package opt

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"

	"deco/internal/device"
	"deco/internal/probir"
)

// Problem is a search compiled against a space and a fixed Options: the
// space's Descriptor is resolved exactly once, here, and carried as plain
// fields — kernel builder, fingerprint, cache binding, start states and
// delta hooks. The search loops and the batch evaluator never probe the
// space again.
type Problem struct {
	space  Space
	opts   Options
	starts []State

	// fingerprint identifies the space's program content; empty means the
	// space cannot vouch for its identity and the cache is unbound.
	fingerprint string

	// cache is the evaluation cache bound to (fingerprint, seed, scope);
	// nil disables caching for this problem.
	cache *Binding

	// kernel builds the per-state world kernel; every state's kernel has the
	// compiled shape (worlds, width) of the first start state's.
	kernel        func(State) (probir.WorldKernel, error)
	worlds, width int

	// delta, when set, routes kernel construction through the space's delta
	// hooks: every evaluated state captures a finish-time snapshot into
	// snaps, and a candidate whose parent snapshot is retained evaluates
	// incrementally over the dirty cone instead of the full DAG. Delta is
	// bit-identical to full evaluation by construction; disabling it
	// (Options.SnapshotBudget < 0) changes wall clock only.
	delta *DeltaHooks
	snaps *snapStore
	stats DeltaStats

	// planCache holds one immutable ConePlan per distinct dirty set (keyed
	// by an FNV hash with exact-match buckets), so sibling children changing
	// the same task group — the whole expansion under GroupByExecutable —
	// share a single cone extraction and one delta-vs-full decision. Kernel
	// construction runs only in the search goroutine, so the cache needs no
	// lock; plans are read-only during concurrent sampling.
	planCache   map[uint64][]planEntry
	planEntries int

	// adaptive, when set, routes evaluation through chunked sequential
	// stopping (adaptive.go): states stop as soon as their feasibility
	// verdict is decided against the compiled indicator targets, and racing
	// prunes provably-worse frontier states. Resolved at Compile from
	// Options.Adaptive and the probe kernel's PartialKernel capability;
	// indIdx/indTargets are the indicator figures and their percentile
	// targets, valueFig the sampled goal figure (-1 when the goal value is
	// deterministic).
	adaptive   bool
	indIdx     []int
	indTargets []float64
	valueFig   int
	sstats     SampleStats

	// phaseCtx holds one context per profiling phase with its pprof label
	// pre-attached, plus the base context to restore on exit. Entering a
	// phase is then two SetGoroutineLabels calls and no allocation — pprof.Do
	// would allocate a label set and a context per batch, and the delta path
	// has one more phase (snapshot_put) than the full path, so per-call
	// allocation would show up as a delta-only allocs/op regression.
	phaseCtx [nPhases]context.Context

	// batchBufs freelists per-batch scratch (batchBuf): the device rounds'
	// slot and error buffers and the delta path's snapshot pointers, so a
	// batch allocates neither. Batches nest (completeParent evaluates the
	// parent in the middle of building a child batch), hence a stack, not
	// one field.
	batchBufMu sync.Mutex
	batchBufs  []*batchBuf
}

// batchBuf is one live batch's reusable scratch.
type batchBuf struct {
	dev   device.Buffers
	snaps []*probir.Snapshot // delta only: per-state capture snapshots
	round []float64          // a partial round's gathered running sums
	done  []int              // the states a round finishes
}

// getBatchBuf returns a batch scratch, reusing a freelisted one; snaps is
// resized to n states when the problem evaluates incrementally.
func (p *Problem) getBatchBuf(n int) *batchBuf {
	p.batchBufMu.Lock()
	var bb *batchBuf
	if k := len(p.batchBufs); k > 0 {
		bb = p.batchBufs[k-1]
		p.batchBufs = p.batchBufs[:k-1]
	}
	p.batchBufMu.Unlock()
	if bb == nil {
		bb = new(batchBuf)
	}
	if p.delta != nil {
		if cap(bb.snaps) < n {
			bb.snaps = make([]*probir.Snapshot, n)
		}
		bb.snaps = bb.snaps[:n]
	}
	return bb
}

// putBatchBuf recycles a batch scratch. Ownership of any snapshots it held
// has already moved to the snapshot store or back to the freelist, so
// entries are only cleared, never released.
func (p *Problem) putBatchBuf(bb *batchBuf) {
	clear(bb.snaps)
	p.batchBufMu.Lock()
	if len(p.batchBufs) < 8 {
		p.batchBufs = append(p.batchBufs, bb)
	}
	p.batchBufMu.Unlock()
}

// Profiling phases: CPU profiles attribute hot-path time to the solver phase
// that spent it via the deco_phase pprof label.
const (
	phaseKernelBuild = iota
	phaseChunkEval
	phaseRacing
	phaseSnapshotPut
	nPhases
)

// phaseNames holds the deco_phase label values, indexed by phase constant.
var phaseNames = [nPhases]string{"kernel_build", "chunk_eval", "racing", "snapshot_put"}

// planEntry is one cached dirty-cone plan; dirty is the exact set the plan
// was built for (hash buckets resolve collisions by comparing it).
type planEntry struct {
	dirty []int32
	plan  *probir.ConePlan
}

// maxConePlans bounds the plan cache. Transform spaces generate a fixed set
// of dirty groups per search (one per (group, direction) plus the global
// shifts), so the cap exists only as a backstop for pathological spaces.
const maxConePlans = 1024

// DeltaStats reports how the compiled problem's evaluations were routed, for
// observability and benchmark gating. Counters cover live evaluations only
// (cache hits evaluate nothing).
type DeltaStats struct {
	// DeltaEvals counts states evaluated incrementally from a parent
	// snapshot.
	DeltaEvals int64
	// FullEvals counts states of a delta-enabled problem evaluated by the
	// full DP.
	FullEvals int64
	// Fallbacks counts states that carried transform provenance but
	// evaluated fully anyway (parent snapshot missing or evicted, or the
	// dirty cone exceeded the structural threshold).
	Fallbacks int64
	// Snapshots / SnapshotBytes are the retained snapshot count and bytes:
	// those the store holds now plus those it held when a search ended and
	// drained it back to the freelist. Evictions counts snapshots recycled
	// under budget pressure.
	Snapshots     int
	SnapshotBytes int64
	Evictions     int64
	// ConePlans counts dirty-cone plan extractions; ConePlanHits counts warm
	// plan-cache hits — every hit is a sibling child that reused another
	// child's cone extraction instead of re-walking the DAG.
	ConePlans    int64
	ConePlanHits int64
	// ParentCompletions counts expansion parents re-evaluated in full to
	// regenerate a snapshot their own (early-stopped) evaluation never
	// captured or the store evicted, unlocking delta evaluation for their
	// sibling batches.
	ParentCompletions int64
}

// DeltaStats returns the problem's evaluation-routing counters. It is only
// meaningful between searches (the counters are updated from the search
// goroutine).
func (p *Problem) DeltaStats() DeltaStats {
	st := p.stats
	if p.snaps != nil {
		n, b, ev := p.snaps.stats()
		st.Snapshots += n
		st.SnapshotBytes += b
		st.Evictions = ev
	}
	return st
}

// Compile binds the space's Descriptor to the options and returns the
// runnable problem. The compiled kernel shape, and with it the adaptive and
// delta machinery, is decided by probing the first start state: a kernel that
// fails to build for it fails Compile — the same construction would fail for
// the search's first batch anyway.
func Compile(sp Space, o Options) (*Problem, error) {
	fillDefaults(&o)
	// Adaptive-sampling knobs are validated here, at compile time, so a bad
	// configuration fails with a clear error instead of silently running a
	// fixed-precision (or subtly wrong) search.
	if o.Worlds < 0 {
		return nil, fmt.Errorf("opt: Options.Worlds must be >= 0, got %d", o.Worlds)
	}
	if o.MinWorlds < 0 {
		return nil, fmt.Errorf("opt: Options.MinWorlds must be >= 0 (0 selects the default first chunk), got %d", o.MinWorlds)
	}
	if o.Confidence < 0.5 || o.Confidence >= 1 {
		return nil, fmt.Errorf("opt: Options.Confidence must be in [0.5, 1) (0 selects the default), got %v", o.Confidence)
	}
	d := sp.Describe(o.Ctx, o.Seed)
	p := &Problem{space: sp, opts: o, valueFig: -1, kernel: d.Kernel, fingerprint: d.Fingerprint}
	if p.opts.Cache != nil && p.fingerprint != "" {
		// An unidentifiable program stays unbound: a hit could be wrong.
		p.cache = p.opts.Cache.Bind(fmt.Sprintf("%s|%d|", p.fingerprint, p.opts.Seed), p.opts.CacheScope)
	}
	if p.starts = sp.Starts(); len(p.starts) == 0 {
		return nil, fmt.Errorf("opt: space has no start state")
	}
	probe, err := p.kernel(p.starts[0])
	if err == nil && probe == nil {
		err = fmt.Errorf("no kernel for state %v", p.starts[0])
	}
	if err != nil {
		return nil, fmt.Errorf("opt: compiling kernel: %w", err)
	}
	p.worlds, p.width = probe.Worlds(), probe.Width()
	if o.Worlds > 0 && p.worlds == 0 {
		return nil, fmt.Errorf("opt: Options.Worlds=%d asserted, but the space has no per-world kernel decomposition", o.Worlds)
	}
	if o.Worlds > 0 && p.worlds != o.Worlds {
		return nil, fmt.Errorf("opt: Options.Worlds=%d, but the compiled kernel samples %d worlds per state", o.Worlds, p.worlds)
	}
	// Adaptive precision engages only when everything it rests on is present:
	// a kernel that can finalize from a world prefix, indicator figures that
	// fully determine feasibility, and a world budget the first chunk does
	// not already cover. Otherwise the flag is inert and the problem runs the
	// fixed path (Problem.Adaptive reports which).
	if pk, ok := probe.(probir.PartialKernel); ok && o.Adaptive && p.worlds > o.MinWorlds {
		if idx, targets, okInd := pk.Indicators(); okInd && len(idx) > 0 {
			p.adaptive = true
			p.indIdx, p.indTargets = idx, targets
			p.valueFig = pk.ValueFigure()
		}
	}
	p.sstats.Adaptive = p.adaptive
	// Delta evaluation needs an evaluation that actually has per-world
	// finish times to snapshot.
	if d.Delta != nil && p.opts.SnapshotBudget >= 0 {
		if probeSnap := d.Delta.NewSnapshot(); probeSnap != nil {
			d.Delta.ReleaseSnapshot(probeSnap)
			budget := p.opts.SnapshotBudget
			if budget == 0 {
				budget = 16 << 20
			}
			p.delta = d.Delta
			p.snaps = newSnapStore(budget, d.Delta.ReleaseSnapshot)
			p.planCache = map[uint64][]planEntry{}
		}
	}
	for ph, name := range phaseNames {
		p.phaseCtx[ph] = pprof.WithLabels(p.opts.Ctx, pprof.Labels("deco_phase", name))
	}
	return p, nil
}

// releaseSnapshot drops a state's retained snapshot once the search has
// expanded it (its child batch is evaluated, dedup left it no children, or
// A* pruned it): no later kernel reads it as a parent.
func (p *Problem) releaseSnapshot(key string) {
	if p.snaps != nil {
		p.snaps.remove(key)
	}
}

// Fingerprint returns the compiled program fingerprint (empty when the space
// has none and caching is disabled).
func (p *Problem) Fingerprint() string { return p.fingerprint }

// Starts returns the compiled start states.
func (p *Problem) Starts() []State { return p.starts }

// Adaptive reports whether state evaluations run on the adaptive-precision
// (sequential stopping + racing) path. False either because Options.Adaptive
// was off or because the space/device cannot support it.
func (p *Problem) Adaptive() bool { return p.adaptive }

// EvaluateStates scores a batch of states on the compiled pipeline — the
// cache, evaluator, and device the search itself would use — and
// returns the evaluations in input order. It is the building block for
// benchmarks and bit-exactness tests that need the solver's hot loop without
// a surrounding search.
func (p *Problem) EvaluateStates(states []State) ([]*probir.Evaluation, error) {
	cands := make([]candidate, len(states))
	for i, st := range states {
		cands[i] = candidate{state: st, key: st.Key()}
	}
	out := make([]*probir.Evaluation, len(states))
	for i, s := range p.evaluateCandidates(cands) {
		if s.err != nil {
			return nil, s.err
		}
		out[i] = s.eval
	}
	return out, nil
}

// EvaluateExpansion scores a parent state and then its full neighbor
// expansion on the compiled pipeline, returning the parent's evaluation and
// the children with theirs in generation order. When the problem compiled
// with delta evaluation, the parent's evaluation captures its finish-time
// snapshot and every child whose dirty cone is small enough evaluates
// incrementally from it — the frontier-expansion hot loop the delta engine
// exists for, exposed for benchmarks and equivalence tests.
func (p *Problem) EvaluateExpansion(parent State) (*probir.Evaluation, []State, []*probir.Evaluation, error) {
	pk := parent.Key()
	ps := p.evaluateCandidates([]candidate{{state: parent, key: pk}})
	if ps[0].err != nil {
		return nil, nil, nil, ps[0].err
	}
	batch := p.evaluateCandidates(p.childCandidates(parent, pk))
	states := make([]State, len(batch))
	evals := make([]*probir.Evaluation, len(batch))
	for i, s := range batch {
		if s.err != nil {
			return nil, nil, nil, s.err
		}
		states[i], evals[i] = s.state, s.eval
	}
	return ps[0].eval, states, evals, nil
}

// startCandidates wraps the compiled start states as parentless candidates.
func (p *Problem) startCandidates() []candidate {
	out := make([]candidate, len(p.starts))
	for i, s := range p.starts {
		out[i] = candidate{state: s, key: s.Key()}
	}
	return out
}

// childCandidates expands a parent into evaluation candidates, each
// carrying the parent key and the changed-task set so the solver can
// evaluate it incrementally.
func (p *Problem) childCandidates(parent State, parentKey string) []candidate {
	trs := p.space.Neighbors(parent)
	out := make([]candidate, len(trs))
	for i, tr := range trs {
		out[i] = candidate{state: tr.Child, key: tr.Child.Key(), parentKey: parentKey, parent: parent, dirty: tr.Tasks}
	}
	return out
}

// evaluateCandidates scores candidates, consulting the evaluation cache when
// the compiled problem has one. Hits return the stored evaluation (shared,
// never modified); misses run live and are stored. Because evaluations are
// deterministic given (fingerprint, seed, state), a warm cache changes only
// wall-clock time, never the search trajectory.
func (p *Problem) evaluateCandidates(cands []candidate) []scored {
	if p.cache == nil {
		return p.evaluate(cands, p.adaptive)
	}
	out := make([]scored, len(cands))
	var miss []candidate
	var missIdx []int
	for i, c := range cands {
		if ev, ok := p.cache.Get(c.key); ok {
			out[i] = scored{state: c.state, key: c.key, eval: ev}
			continue
		}
		miss = append(miss, c)
		missIdx = append(missIdx, i)
	}
	if len(miss) > 0 {
		for mi, s := range p.evaluate(miss, p.adaptive) {
			out[missIdx[mi]] = s
			// Only complete evaluations enter the cache: an adaptive early
			// stop (0 < s.worlds < p.worlds) is a pessimistic verdict over a
			// world prefix, and caching it would freeze that pessimism into
			// later searches that share the binding.
			if s.err == nil && s.eval != nil && (s.worlds == 0 || s.worlds >= p.worlds) {
				p.cache.Put(s.key, s.eval)
			}
		}
	}
	return out
}

// buildKernel constructs one candidate's world kernel. Without delta this is
// the compiled kernel builder. With delta, the candidate's evaluation
// captures a snapshot, and when its parent's snapshot is retained the kernel
// evaluates incrementally over the dirty cone; a declined delta (cone too
// large, parent evicted) falls back to a full capturing kernel. The returned
// snapshot, if any, is owned by the caller: stored on evaluation success,
// released otherwise.
func (p *Problem) buildKernel(c candidate) (probir.WorldKernel, *probir.Snapshot, error) {
	if p.delta == nil {
		k, err := p.kernel(c.state)
		return k, nil, err
	}
	snap := p.delta.NewSnapshot()
	if snap != nil && c.parentKey != "" && len(c.dirty) > 0 {
		parent, ok := p.snaps.get(c.parentKey)
		if !ok && c.parent != nil && p.worthDelta(c.dirty) {
			// The parent's own evaluation stopped early (adaptive partial
			// verdicts never capture), or its snapshot was evicted. One full
			// evaluation regenerates it and buys incremental evaluation for the
			// whole sibling batch — this is what lets sequential stopping and
			// delta evaluation compound instead of starving each other.
			p.completeParent(c.parent, c.parentKey)
			parent, ok = p.snaps.get(c.parentKey)
		}
		if ok {
			k, err := p.deltaKernel(c, parent, snap)
			if err != nil {
				p.delta.ReleaseSnapshot(snap)
				return nil, nil, err
			}
			if k != nil {
				p.stats.DeltaEvals++
				return k, snap, nil
			}
		}
		p.stats.Fallbacks++
	}
	k, err := p.delta.Capture(c.state, snap)
	if err != nil {
		p.delta.ReleaseSnapshot(snap)
		return nil, nil, err
	}
	p.stats.FullEvals++
	return k, snap, nil
}

// deltaKernel builds the incremental kernel of one candidate from the cone
// plan of its dirty set (one shared extraction per distinct set, cached on
// the problem). Returns (nil, nil) when delta does not apply and the caller
// must evaluate fully.
func (p *Problem) deltaKernel(c candidate, parent, snap *probir.Snapshot) (probir.WorldKernel, error) {
	plan, err := p.planFor(c.dirty)
	if err != nil || !plan.Delta() {
		return nil, err
	}
	return p.delta.Planned(c.state, plan, parent, snap)
}

// worthDelta reports whether a child dirtying this task set would actually
// evaluate incrementally — the gate on regenerating a missing parent snapshot,
// so a batch whose cones the work model rejects anyway never pays the extra
// full evaluation.
func (p *Problem) worthDelta(dirty []int32) bool {
	plan, err := p.planFor(dirty)
	return err == nil && plan.Delta()
}

// completeParent re-evaluates an expansion parent at full precision to
// regenerate its finish-time snapshot. Errors are deliberately swallowed: the
// caller falls back to full child evaluations, which surface any real failure
// themselves under the same kernels.
func (p *Problem) completeParent(parent State, parentKey string) {
	batch := p.evaluate([]candidate{{state: parent, key: parentKey}}, false)
	p.stats.ParentCompletions++
	if s := batch[0]; s.err == nil && s.eval != nil && p.cache != nil {
		p.cache.Put(s.key, s.eval)
	}
}

// planFor returns the (possibly cached) cone plan of one dirty set. The
// cache key is an FNV-1a hash of the set with exact-match buckets, so two
// children dirtying the same task group — every sibling pair under
// GroupByExecutable — share one plan, one cone walk, and one delta-vs-full
// decision. Only the search goroutine calls this (kernel construction is
// serial), so no lock is needed.
func (p *Problem) planFor(dirty []int32) (*probir.ConePlan, error) {
	h := uint64(1469598103934665603)
	for _, d := range dirty {
		for s := 0; s < 32; s += 8 {
			h ^= uint64(byte(d >> s))
			h *= 1099511628211
		}
	}
	for _, e := range p.planCache[h] {
		if equalDirty(e.dirty, dirty) {
			p.stats.ConePlanHits++
			return e.plan, nil
		}
	}
	plan, err := p.delta.PlanCone(dirty)
	if err != nil {
		return nil, err
	}
	p.stats.ConePlans++
	if p.planEntries < maxConePlans {
		p.planCache[h] = append(p.planCache[h], planEntry{dirty: dirty, plan: plan})
		p.planEntries++
	}
	return plan, nil
}

func equalDirty(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// enterPhase labels the search goroutine with a solver phase so CPU profiles
// attribute hot-path time to the phase that spent it; labels propagate into
// goroutines spawned meanwhile, so device workers inherit the phase. The
// labeled contexts are precomputed at Compile (see phaseCtx), so a phase
// costs no allocation. exitPhase restores the unlabeled base context — a
// nested phase does not restore its enclosing one.
func (p *Problem) enterPhase(phase int) { pprof.SetGoroutineLabels(p.phaseCtx[phase]) }

func (p *Problem) exitPhase() { pprof.SetGoroutineLabels(p.opts.Ctx) }
