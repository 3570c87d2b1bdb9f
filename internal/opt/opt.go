// Package opt is Deco's parallel solver (§5.3): it formulates resource
// provisioning as a search over states (provisioning plans), with state
// transitions driven by the workflow transformation operations of the
// authors' earlier work (Move, Merge, Promote, Demote, Split,
// Co-Scheduling). Two searches are provided:
//
//   - Generic search (Algorithm 2): breadth-first traversal from the initial
//     state, choosing exploration over exploitation so each level's states
//     evaluate in parallel on the device; the frontier is beam-bounded to
//     balance overhead and solution optimality.
//   - A* search: enabled by the WLog program's enabled(astar) directive with
//     the cal_g_score/est_h_score predicates. States are expanded best-first
//     and pruned against the best found solution (children of a state never
//     score better than the state under the monotone assumption of §5.3).
//
// Every state evaluation is a Monte-Carlo inference over the probabilistic
// IR (package probir); evaluations of distinct states are independent and
// run as device blocks, each over contiguous world ranges. Worlds have one
// numbering, fixed by the space (a CRN program stores its worlds
// decisive-first), so fixed and adaptive precision fold every state's
// figures in the same ascending order.
package opt

import (
	"container/heap"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"deco/internal/device"
	"deco/internal/probir"
)

// State is one point of the optimization space: for the scheduling problem
// the instance-type index per task; for ensembles an admission bit per
// workflow; for follow-the-cost the data-center index per workflow.
type State []int

// Clone copies a state.
func (s State) Clone() State { return append(State(nil), s...) }

// Key returns a compact map key for visited-state deduplication. Components
// are zigzag-encoded before the varint so negative values round-trip: a raw
// byte(v) of a negative component would set the continuation bit and merge
// with the next element, making distinct states collide (e.g. {255} and
// {-1, 1} under the old encoding).
func (s State) Key() string {
	// Size pass first, so the encoding fits a stack buffer for typical
	// states and the only allocation is the string itself — Key runs once
	// per state per dedup pass and once per cache lookup, so it is on the
	// solver's hot path.
	n := 0
	for _, v := range s {
		u := uint64(int64(v)<<1) ^ uint64(int64(v)>>63) // zigzag
		for u >= 0x80 {
			n++
			u >>= 7
		}
		n++
	}
	var buf [128]byte
	b := buf[:0]
	if n > len(buf) {
		b = make([]byte, 0, n)
	}
	for _, v := range s {
		u := uint64(int64(v)<<1) ^ uint64(int64(v)>>63)
		for u >= 0x80 {
			b = append(b, byte(u)|0x80)
			u >>= 7
		}
		b = append(b, byte(u))
	}
	return string(b)
}

// Space defines a search problem. Implementations exist for the three use
// cases (scheduling here, ensembles and follow-the-cost in their packages)
// and for the runtime's residual replans.
type Space interface {
	// Starts are the search's start states (e.g. every task on the cheapest
	// type, as in Figure 5b); at least one.
	Starts() []State
	// Neighbors generates the child states of s via the transformation
	// operations, in a deterministic order.
	Neighbors(s State) []Transform
	// Describe binds the space's evaluation to one search seed.
	Describe(seed int64) Descriptor
}

// Transform is one transformation edge of the search graph: the child state
// produced from a parent plus the metadata delta evaluation needs — which
// operation ran and exactly which task assignments changed.
type Transform struct {
	// Op is the transformation operation that produced Child (scheduling
	// spaces only).
	Op Op
	// Tasks are the task indices whose assignment differs between the
	// parent and Child, or nil when the space does not annotate its
	// transitions. The slice is owned by the Transform and must not alias
	// the parent state.
	Tasks []int32
	// Child is the resulting state.
	Child State
}

// Descriptor is how a space describes its evaluation to the solver for one
// search seed: every state evaluates as a world kernel plus reduction
// (package probir), run as one device block cut into world chunks.
type Descriptor struct {
	// Kernel builds one state's world kernel. Every state of a space must
	// share the kernel shape (worlds and figures) of the first start state;
	// a kernel that differs is an error for that state.
	Kernel func(s State) (probir.WorldKernel, error)
	// Fingerprint is a content hash of everything an evaluation depends on
	// (program, distributions, objective). It gates the evaluation cache —
	// empty means the space cannot vouch for its identity and caching is
	// disabled.
	Fingerprint string
	// Delta, when set, lets the solver evaluate a child incrementally from
	// its parent's per-world finish times.
	Delta *DeltaHooks
}

// DeltaHooks is the incremental-evaluation capability of a space whose
// kernels share one world realization per seed (probir's CRN contract):
// every evaluated state can capture a finish-time snapshot, and a child
// whose Transform names its changed tasks evaluates over the dirty cone of
// those tasks from its parent's snapshot, bit-identically to a full
// evaluation.
type DeltaHooks struct {
	// NewSnapshot returns a pooled snapshot sized for this space's
	// evaluation, or nil when evaluations have no reusable per-world state
	// (which disables delta evaluation at Compile).
	NewSnapshot func() *probir.Snapshot
	// ReleaseSnapshot returns a snapshot to the pool.
	ReleaseSnapshot func(*probir.Snapshot)
	// Capture is Kernel, additionally capturing the state's per-world finish
	// times into snap.
	Capture func(s State, snap *probir.Snapshot) (probir.WorldKernel, error)
	// PlanCone extracts the dirty cone of one changed-task set into an
	// immutable, shareable plan; the solver caches one plan per distinct
	// dirty set, so sibling children changing the same task group share one
	// cone extraction and one delta-vs-full decision.
	PlanCone func(dirty []int32) (*probir.ConePlan, error)
	// Planned builds the kernel evaluating s from its parent's snapshot over
	// the plan's cone, capturing into snap. Returns (nil, nil) when delta
	// does not apply; the solver then evaluates fully.
	Planned func(s State, plan *probir.ConePlan, parent, snap *probir.Snapshot) (probir.WorldKernel, error)
}

// Options configures a search.
type Options struct {
	// Device runs state evaluations (device.Sequential or device.TwoLevel).
	Device device.Device
	// Maximize flips the objective (the ensemble problem maximizes score).
	Maximize bool
	// MaxStates bounds the number of state evaluations.
	MaxStates int
	// BeamWidth bounds how many frontier states expand per level of the
	// generic search (the exploration/exploitation balance of §5.3).
	BeamWidth int
	// Patience stops the search after this many levels (generic) or
	// expansions (A*) without improvement.
	Patience int
	// Seed makes runs reproducible; the space's Describe binds it. Under the
	// common-random-number contract it is the search-level CRN base: every
	// state in the search shares the same world realizations, keyed by
	// (task, type, iteration); kernels that cannot share realizations draw
	// from a per-state substream (StateBase). Either way results are
	// identical across devices. The zero value defaults to 1 (fillDefaults),
	// matching DefaultOptions, so a zero-value Options and DefaultOptions
	// agree.
	Seed int64
	// AStar selects best-first search with pruning instead of the generic
	// breadth-first search.
	AStar bool
	// Ctx cancels the search between evaluation batches; nil means
	// context.Background(). A cancelled search returns the context's error
	// (test with errors.Is against context.Canceled / DeadlineExceeded).
	Ctx context.Context
	// Cache, when set, memoizes state evaluations across searches (a
	// transposition table). It is only consulted when the space identifies
	// its program (Descriptor.Fingerprint); evaluations are deterministic
	// given (fingerprint, seed, state), so hits are bit-identical to live
	// evaluation and search trajectories do not depend on cache warmth.
	Cache *EvalCache
	// CacheScope labels this search's cache traffic for per-scope hit/miss
	// accounting (EvalCache.ScopeStats) — e.g. decod tags searches by job
	// kind so ensemble members' cross-member sharing is observable. Empty
	// means unscoped; the scope never affects keys or results.
	CacheScope string
	// SnapshotBudget caps the bytes of per-state finish-time snapshots the
	// compiled problem retains for incremental (delta) evaluation. 0 selects
	// the default (16 MiB); negative disables delta evaluation entirely.
	// Snapshots are kept only until their state is expanded, and under
	// pressure the worst-scored go first, so the states the search expands
	// next keep theirs. Delta evaluation is bit-identical to full
	// evaluation, so the budget trades memory against wall clock only —
	// never results.
	SnapshotBudget int64
	// Adaptive enables adaptive-precision Monte-Carlo evaluation: worlds run
	// in chunks, sequential stopping rules decide each state's feasibility
	// verdict as soon as it is certain (or statistically decided at the
	// configured Confidence), and racing eliminates frontier states that
	// provably cannot rank. Feasibility verdicts and feasible states' scores
	// match the fixed-worlds path; partially evaluated states carry
	// pessimistic violation estimates, so the search trajectory may differ
	// while plan quality is preserved (the final best is always confirmed by
	// a full evaluation). Off (the default) is the deterministic mode: bit
	// identical to all prior behavior. Adaptive engages only when the
	// space's kernels decide feasibility from indicator-backed constraints;
	// it is silently inert otherwise (see Problem.SampleStats).
	Adaptive bool
	// Worlds, when positive, asserts the per-state Monte-Carlo world count
	// the compiled kernel must have; Compile fails with a clear error on a
	// mismatch (instead of a confusing kernel-shape error mid-search). 0
	// takes the kernel's own count.
	Worlds int
	// MinWorlds is the first chunk size of adaptive evaluation — the minimum
	// number of worlds every state runs before any stop decision. 0 defaults
	// to 16.
	MinWorlds int
	// Confidence is the anytime-valid confidence level of the statistical
	// stopping and racing rules, in [0.5, 1); 0 defaults to 0.999. The exact
	// worst-case stopping rule is always applied first and carries no error;
	// Confidence only governs the supplementary large-world-count rules.
	Confidence float64
}

// DefaultOptions returns a reasonable configuration on the given device.
func DefaultOptions(d device.Device) Options {
	return Options{
		Device:    d,
		MaxStates: 4000,
		BeamWidth: 8,
		Patience:  12,
		Seed:      1,
	}
}

// Result is the outcome of a search.
type Result struct {
	Best      State
	BestEval  *probir.Evaluation
	Evaluated int
	Levels    int
	Elapsed   time.Duration
	// Feasible reports whether any feasible state was found; if false, Best
	// is the least-violating state seen.
	Feasible bool
}

// scored pairs a state with its evaluation. worlds is the number of
// Monte-Carlo worlds the evaluation actually ran (0 for a cache hit, always
// complete). A partial count below the compiled world cap marks a
// pessimistic verdict that must not enter the evaluation cache and that the
// search confirms fully before returning the state as its result.
type scored struct {
	state  State
	key    string
	eval   *probir.Evaluation
	err    error
	worlds int
}

// candidate is a state queued for evaluation together with its provenance:
// the key of the parent it was expanded from and the tasks the producing
// transformation changed, when known. Provenance is what lets the solver
// route a state through delta evaluation; a candidate without it (a start
// state, or a space without transform metadata) evaluates fully.
type candidate struct {
	state     State
	key       string
	parentKey string
	// parent is the generating state itself (when known), so a missing parent
	// snapshot can be regenerated on demand with one full evaluation instead
	// of pushing the whole sibling batch off the delta path.
	parent State
	dirty  []int32
}

// Score ranks states, lower first: any feasible state beats any infeasible
// one; feasible states rank by objective value, infeasible ones by
// violation. The runtime's replanner ranks its candidates by it too.
func Score(ev *probir.Evaluation, maximize bool) float64 {
	if ev.Feasible {
		if maximize {
			return -ev.Value
		}
		return ev.Value
	}
	return 1e15 * (1 + ev.Violation)
}

// StateBase derives a state's world-substream base from the search seed and
// the state key, for kernels that cannot share realizations across states
// (probir.WorldRNG): evaluation results then depend on neither the
// scheduling order nor the device.
func StateBase(seed int64, key string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64()))).Int63()
}

// dedupCandidates returns the candidates not already visited, deduplicated
// among themselves, WITHOUT marking them visited. Marking happens at
// evaluation time (markVisited), so a state trimmed from a batch by the
// evaluation budget stays reachable — and evaluable — through a later
// expansion of another parent.
func dedupCandidates(cands []candidate, visited map[string]bool) []candidate {
	seen := make(map[string]bool, len(cands))
	var out []candidate
	for _, c := range cands {
		if visited[c.key] || seen[c.key] {
			continue
		}
		seen[c.key] = true
		out = append(out, c)
	}
	return out
}

// markVisited records candidates as visited at the moment they are actually
// submitted for evaluation.
func markVisited(cands []candidate, visited map[string]bool) {
	for _, c := range cands {
		visited[c.key] = true
	}
}

func fillDefaults(opt *Options) {
	if opt.Device == nil {
		opt.Device = device.TwoLevel{}
	}
	if opt.Ctx == nil {
		opt.Ctx = context.Background()
	}
	if opt.MaxStates <= 0 {
		opt.MaxStates = 4000
	}
	if opt.BeamWidth <= 0 {
		opt.BeamWidth = 8
	}
	if opt.Patience <= 0 {
		opt.Patience = 12
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.MinWorlds == 0 {
		opt.MinWorlds = 16
	}
	if opt.Confidence == 0 {
		opt.Confidence = 0.999
	}
}

// Search compiles the space against the options and runs the solver,
// returning the best state found: Compile then Problem.Search. It dispatches
// to A* when opt.AStar is set, otherwise to the generic search of
// Algorithm 2. All start states seed the same frontier, so the shared budget
// flows to the most promising region and the exploitation phase descends
// from the single global incumbent.
func Search(sp Space, opt Options) (*Result, error) {
	p, err := Compile(sp, opt)
	if err != nil {
		return nil, err
	}
	return p.Search()
}

// genericSearch is Algorithm 2 with device-parallel level evaluation and a
// beam-bounded frontier, seeded with the compiled start states.
func (p *Problem) genericSearch() (*Result, error) {
	opt := p.opts
	start := time.Now()
	res := &Result{}
	visited := map[string]bool{}
	frontier := dedupCandidates(p.startCandidates(), visited)
	var best *scored
	stale := 0

	// pool keeps every evaluated state for the exploitation phase.
	pool := pq{}
	heap.Init(&pool)

	// Exploration gets 40% of the budget; the rest funds the exploitation
	// (best-first descent) phase, which advances one level per
	// ~branching-factor evaluations and therefore converges much deeper per
	// evaluation.
	exploreBudget := opt.MaxStates * 2 / 5
	if exploreBudget < 1 {
		exploreBudget = 1
	}

	// expanded are the states whose children form the frontier; their
	// snapshots are released once that frontier has been evaluated (left
	// childless, they are released when the exploitation phase pops them).
	var expanded []scored
	for len(frontier) > 0 && res.Evaluated < exploreBudget {
		if err := opt.Ctx.Err(); err != nil {
			return nil, fmt.Errorf("opt: search cancelled: %w", err)
		}
		// Trim the level to the remaining budget, and only THEN mark the
		// survivors visited: a state dropped here was never evaluated, and
		// marking it up front would make it permanently unreachable even
		// though the exploitation phase can re-generate it from its pooled
		// parent and still has budget for it.
		if res.Evaluated+len(frontier) > exploreBudget {
			frontier = frontier[:exploreBudget-res.Evaluated]
		}
		markVisited(frontier, visited)
		batch := p.evaluateCandidates(frontier)
		for _, s := range expanded {
			p.releaseSnapshot(s.key)
		}
		res.Evaluated += len(batch)
		res.Levels++

		improved := false
		for i := range batch {
			if batch[i].err != nil {
				return nil, batch[i].err
			}
			pool.PushItem(pqItem{scored: batch[i], priority: Score(batch[i].eval, opt.Maximize)})
			if best == nil || Score(batch[i].eval, opt.Maximize) < Score(best.eval, opt.Maximize) {
				b := batch[i]
				best = &b
				improved = true
			}
		}
		if improved {
			stale = 0
		} else {
			stale++
			if stale >= opt.Patience {
				break
			}
		}

		// Rank this level's states and expand the best BeamWidth of them.
		sort.Slice(batch, func(i, j int) bool {
			si, sj := Score(batch[i].eval, opt.Maximize), Score(batch[j].eval, opt.Maximize)
			if si != sj {
				return si < sj
			}
			return batch[i].key < batch[j].key // deterministic ties
		})
		expanded = batch
		if len(expanded) > opt.BeamWidth {
			expanded = expanded[:opt.BeamWidth]
		}
		var next []candidate
		for _, s := range expanded {
			next = append(next, p.childCandidates(s.state, s.key)...)
		}
		frontier = dedupCandidates(next, visited)
	}
	if best == nil {
		return nil, fmt.Errorf("opt: no states evaluated")
	}

	// Exploitation phase (§5.3's exploration/exploitation balance): spend
	// the remaining budget on best-first expansion over the pool of states
	// seen so far, so a stalled greedy line falls back to the next most
	// promising state instead of giving up.
	for pool.Len() > 0 && res.Evaluated < opt.MaxStates {
		if err := opt.Ctx.Err(); err != nil {
			return nil, fmt.Errorf("opt: search cancelled: %w", err)
		}
		item := heap.Pop(&pool).(pqItem)
		children := dedupCandidates(p.childCandidates(item.state, item.key), visited)
		if len(children) == 0 {
			p.releaseSnapshot(item.key)
			continue
		}
		// As in the exploration phase: trim to the budget first, mark
		// visited only what actually gets evaluated.
		if res.Evaluated+len(children) > opt.MaxStates {
			children = children[:opt.MaxStates-res.Evaluated]
		}
		markVisited(children, visited)
		batch := p.evaluateCandidates(children)
		p.releaseSnapshot(item.key)
		res.Evaluated += len(batch)
		for i := range batch {
			if batch[i].err != nil {
				return nil, batch[i].err
			}
			sc := Score(batch[i].eval, opt.Maximize)
			if sc < Score(best.eval, opt.Maximize) {
				b := batch[i]
				best = &b
			}
			pool.PushItem(pqItem{scored: batch[i], priority: sc})
		}
	}

	// Adaptive evaluations may have stopped the best state early; the
	// returned result is always backed by a full evaluation.
	if err := p.confirmBest(best); err != nil {
		return nil, err
	}
	res.Best = best.state
	res.BestEval = best.eval
	res.Feasible = best.eval.Feasible
	res.Elapsed = time.Since(start)
	return res, nil
}

// pqItem is an entry of the A* open list.
type pqItem struct {
	scored
	priority float64
}

type pq []pqItem

func (p pq) Len() int { return len(p) }
func (p pq) Less(i, j int) bool {
	if p[i].priority != p[j].priority {
		return p[i].priority < p[j].priority
	}
	return p[i].key < p[j].key
}
func (p pq) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x any)        { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() any          { old := *p; n := len(old); it := old[n-1]; *p = old[:n-1]; return it }
func (p *pq) PushItem(i pqItem) { heap.Push(p, i) }

// astarSearch expands states best-first by g+h score (here: the evaluation
// score, matching the paper's example where both scores are the estimated
// monetary cost) and prunes states that cannot beat the best found solution.
func (p *Problem) astarSearch() (*Result, error) {
	opt := p.opts
	start := time.Now()
	res := &Result{}
	visited := map[string]bool{}
	initial := dedupCandidates(p.startCandidates(), visited)
	if len(initial) > opt.MaxStates {
		initial = initial[:opt.MaxStates]
	}
	markVisited(initial, visited)
	if err := opt.Ctx.Err(); err != nil {
		return nil, fmt.Errorf("opt: search cancelled: %w", err)
	}
	initBatch := p.evaluateCandidates(initial)
	res.Evaluated = len(initBatch)
	open := pq{}
	heap.Init(&open)
	var best, leastBad *scored
	// leastBad tracks the least-violating state over everything *evaluated*
	// (not merely popped from the open list): when the budget runs out before
	// any pop — e.g. MaxStates <= len(starts) with no feasible start — the
	// doc contract of Result.Best still holds.
	noteEvaluated := func(s *scored) {
		if leastBad == nil || Score(s.eval, opt.Maximize) < Score(leastBad.eval, opt.Maximize) {
			c := *s
			leastBad = &c
		}
	}
	for i := range initBatch {
		if initBatch[i].err != nil {
			return nil, initBatch[i].err
		}
		sc := Score(initBatch[i].eval, opt.Maximize)
		open.PushItem(pqItem{scored: initBatch[i], priority: sc})
		noteEvaluated(&initBatch[i])
		if initBatch[i].eval.Feasible && (best == nil || sc < Score(best.eval, opt.Maximize)) {
			b := initBatch[i]
			best = &b
		}
	}
	stale := 0

	for open.Len() > 0 && res.Evaluated < opt.MaxStates {
		if err := opt.Ctx.Err(); err != nil {
			return nil, fmt.Errorf("opt: search cancelled: %w", err)
		}
		item := heap.Pop(&open).(pqItem)
		// Prune: under the monotone assumption of §5.3 ("child states ...
		// always generate higher cost than their parent") a state strictly
		// worse than the incumbent is a dead end. States tying the incumbent
		// (including the incumbent itself) still expand: with plan-level
		// packing the objective is not perfectly monotone.
		if best != nil && Score(item.eval, opt.Maximize) > Score(best.eval, opt.Maximize) {
			p.releaseSnapshot(item.key)
			continue
		}
		children := dedupCandidates(p.childCandidates(item.state, item.key), visited)
		if len(children) == 0 {
			p.releaseSnapshot(item.key)
			continue
		}
		// Trim to the budget before marking visited, so a child dropped here
		// can still be generated — and evaluated — from another parent.
		if res.Evaluated+len(children) > opt.MaxStates {
			children = children[:opt.MaxStates-res.Evaluated]
		}
		markVisited(children, visited)
		batch := p.evaluateCandidates(children)
		p.releaseSnapshot(item.key)
		res.Evaluated += len(batch)
		res.Levels++
		improved := false
		for i := range batch {
			if batch[i].err != nil {
				return nil, batch[i].err
			}
			sc := Score(batch[i].eval, opt.Maximize)
			noteEvaluated(&batch[i])
			if batch[i].eval.Feasible && (best == nil || sc < Score(best.eval, opt.Maximize)) {
				b := batch[i]
				best = &b
				improved = true
			}
			open.PushItem(pqItem{scored: batch[i], priority: sc})
		}
		if improved {
			stale = 0
		} else if best != nil {
			stale++
			if stale >= opt.Patience {
				break
			}
		}
	}
	chosen := best
	if chosen == nil {
		chosen = leastBad
	}
	if chosen == nil {
		return nil, fmt.Errorf("opt: no states evaluated")
	}
	if err := p.confirmBest(chosen); err != nil {
		return nil, err
	}
	res.Best = chosen.state
	res.BestEval = chosen.eval
	res.Feasible = chosen.eval.Feasible
	res.Elapsed = time.Since(start)
	return res, nil
}
