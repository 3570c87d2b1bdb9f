package opt

import (
	"context"
	"fmt"
	"runtime/pprof"

	"deco/internal/device"
	"deco/internal/probir"
)

// Problem is a search compiled against a space and a fixed Options: the
// space's Descriptor is resolved exactly once, here, and carried as plain
// fields — kernel builder, objective, fingerprint, cache binding and start
// states. The search loops and the batch evaluator never probe the space
// again.
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

	// objective, when set, replaces every reduced goal value (see
	// Descriptor.Objective and batch.reduce).
	objective func(State) (float64, error)

	// scratch and keyBuf are the search goroutine's reused child state and
	// key encoding: a move is applied and keyed here, and a child gets its
	// own State and key string only once it survives dedup (children).
	scratch State
	keyBuf  []byte

	// evals counts live state evaluations (see DeltaStats).
	evals int64

	// adaptive, when set, routes evaluation through chunked evaluation with
	// early stopping (adaptive.go): a state stops as soon as it is proven
	// infeasible against the compiled indicator targets. Resolved at Compile
	// from Options.Adaptive and the Descriptor's indicators; indIdx/
	// indTargets are the indicator figures and their percentile targets.
	adaptive   bool
	indIdx     []int
	indTargets []float64
	sstats     SampleStats

	// phaseCtx holds one context per profiling phase with its pprof label
	// pre-attached, plus the base context to restore on exit. Entering a
	// phase is then two SetGoroutineLabels calls and no allocation — pprof.Do
	// would allocate a label set and a context per batch.
	phaseCtx [nPhases]context.Context

	// buf is the batch evaluator's reused scratch: the device rounds' slot
	// and error buffers, so a batch allocates neither. Like scratch, it
	// belongs to the one goroutine running the problem's evaluations.
	buf batchBuf
}

// batchBuf is one batch's reusable scratch.
type batchBuf struct {
	dev   device.Buffers
	round []float64 // a partial round's gathered running sums
	// obj and objErr are the batch's per-state objective slots (batch.obj).
	obj    []float64
	objErr []error
}

// Profiling phases: CPU profiles attribute hot-path time to the solver phase
// that spent it via the deco_phase pprof label.
const (
	phaseKernelBuild = iota
	phaseChunkEval
	nPhases
)

// phaseNames holds the deco_phase label values, indexed by phase constant.
var phaseNames = [nPhases]string{"kernel_build", "chunk_eval"}

// DeltaStats keeps the evaluation-routing counters the repository benchmark
// reads. Every state evaluates in full, so FullEvals counts the live
// evaluations (cache hits evaluate nothing) and the other three fields are
// always 0. It stays only until the benchmark stops reading it.
type DeltaStats struct {
	DeltaEvals   int64
	FullEvals    int64
	Fallbacks    int64
	ConePlanHits int64
}

// DeltaStats returns the problem's evaluation counters. It is only
// meaningful between searches (the counters are updated from the search
// goroutine).
func (p *Problem) DeltaStats() DeltaStats { return DeltaStats{FullEvals: p.evals} }

// Compile binds the space's Descriptor to the options and returns the
// runnable problem. The compiled kernel shape, and with it the adaptive
// machinery, is decided by probing the first start state: a kernel that
// fails to build for it fails Compile — the same construction would fail for
// the search's first batch anyway.
func Compile(sp Space, o Options) (*Problem, error) {
	fillDefaults(&o)
	// Adaptive-sampling knobs are validated here, at compile time, so a bad
	// configuration fails with a clear error instead of silently running a
	// fixed-precision (or subtly wrong) search.
	if o.MinWorlds < 0 {
		return nil, fmt.Errorf("opt: Options.MinWorlds must be >= 0 (0 selects the default first chunk), got %d", o.MinWorlds)
	}
	d := sp.Describe(o.Ctx, o.Seed)
	p := &Problem{space: sp, opts: o, kernel: d.Kernel, objective: d.Objective, fingerprint: d.Fingerprint}
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
	if len(d.Targets) != len(d.Indicators) {
		return nil, fmt.Errorf("opt: %d indicator targets for %d indicators", len(d.Targets), len(d.Indicators))
	}
	for _, fi := range d.Indicators {
		if fi < 0 || fi >= p.width {
			return nil, fmt.Errorf("opt: indicator figure %d outside the kernel's %d figures", fi, p.width)
		}
	}
	// Adaptive precision engages only when everything it rests on is present:
	// indicator figures that fully determine feasibility, and a world budget
	// the first chunk does not already cover. Otherwise the flag is inert and
	// the problem runs the fixed path (SampleStats.Adaptive reports which).
	if o.Adaptive && len(d.Indicators) > 0 && p.worlds > o.MinWorlds {
		p.adaptive = true
		p.indIdx, p.indTargets = d.Indicators, d.Targets
	}
	p.sstats.Adaptive = p.adaptive
	for ph, name := range phaseNames {
		p.phaseCtx[ph] = pprof.WithLabels(p.opts.Ctx, pprof.Labels("deco_phase", name))
	}
	return p, nil
}

// Starts returns the compiled start states.
func (p *Problem) Starts() []State { return p.starts }

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
// the children with theirs in generation order, duplicates included: the
// frontier-expansion hot loop, exposed for benchmarks and equivalence tests.
func (p *Problem) EvaluateExpansion(parent State) (*probir.Evaluation, []State, []*probir.Evaluation, error) {
	pk := parent.Key()
	ps := p.evaluateCandidates([]candidate{{state: parent, key: pk}})
	if ps[0].err != nil {
		return nil, nil, nil, ps[0].err
	}
	batch := p.evaluateCandidates(p.children(nil, parent, nil, nil))
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

// startCandidates wraps the compiled start states, repeats dropped, as
// candidates.
func (p *Problem) startCandidates() []candidate {
	out := make([]candidate, 0, len(p.starts))
	seen := make(map[string]bool, len(p.starts))
	for _, s := range p.starts {
		if k := s.Key(); !seen[k] {
			seen[k] = true
			out = append(out, candidate{state: s, key: k})
		}
	}
	return out
}

// children appends the children of parent to out in generation order. Every
// move is applied into the problem's
// scratch state and keyed into its reused buffer; a child already visited,
// or already in seen, is dropped before anything is allocated, and a
// surviving child gets its own State and key and joins seen. Nothing is
// marked visited: marking happens at evaluation time (search.step), so a
// child trimmed from a batch by the evaluation budget stays reachable through
// a later expansion. Nil visited and seen keep every child.
func (p *Problem) children(out []candidate, parent State, visited, seen map[string]bool) []candidate {
	for _, tr := range p.space.Neighbors(parent) {
		p.scratch = tr.Apply(p.scratch, parent)
		p.keyBuf = p.scratch.appendKey(p.keyBuf[:0])
		if visited[string(p.keyBuf)] || seen[string(p.keyBuf)] {
			continue
		}
		key := string(p.keyBuf)
		if seen != nil {
			seen[key] = true
		}
		out = append(out, candidate{state: p.scratch.Clone(), key: key})
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

// enterPhase labels the search goroutine with a solver phase so CPU profiles
// attribute hot-path time to the phase that spent it; labels propagate into
// goroutines spawned meanwhile, so device workers inherit the phase. The
// labeled contexts are precomputed at Compile (see phaseCtx), so a phase
// costs no allocation. exitPhase restores the unlabeled base context — a
// nested phase does not restore its enclosing one.
func (p *Problem) enterPhase(phase int) { pprof.SetGoroutineLabels(p.phaseCtx[phase]) }

func (p *Problem) exitPhase() { pprof.SetGoroutineLabels(p.opts.Ctx) }
