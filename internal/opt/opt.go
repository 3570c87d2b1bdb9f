// Package opt is Deco's parallel solver (§5.3): it formulates resource
// provisioning as a search over states (provisioning plans), with state
// transitions driven by the workflow transformation operations of the
// authors' earlier work (Move, Merge, Promote, Demote, Split,
// Co-Scheduling). One search driver (Problem.Search) runs both searches of
// the paper:
//
//   - Generic search (Algorithm 2): breadth-first traversal from the start
//     states, choosing exploration over exploitation so each level's states
//     evaluate in parallel on the device; the frontier is beam-bounded to
//     balance overhead and solution optimality. A best-first phase over every
//     evaluated state then spends the rest of the budget.
//   - A* search: enabled by the WLog program's enabled(astar) directive with
//     the cal_g_score/est_h_score predicates. It is the same driver without
//     the breadth-first levels: the best-first phase starts right after the
//     start batch and prunes states worse than a feasible incumbent (children
//     of a state never score better than the state under the monotone
//     assumption of §5.3).
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
	"sort"
	"sync/atomic"
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

// Key returns a compact map key for visited-state deduplication, in the
// encoding of appendKey.
func (s State) Key() string {
	var buf [128]byte
	return string(s.appendKey(buf[:0]))
}

// appendKey appends the state's key encoding to b: every component as a
// zigzag-encoded varint, so negative values round-trip (a raw byte(v) of a
// negative component would set the continuation bit and merge with the next
// element, making distinct states collide, e.g. {255} and {-1, 1}). Key and
// the solver's child dedup share it, so there is one key encoding.
func (s State) appendKey(b []byte) []byte {
	for _, v := range s {
		u := uint64(int64(v)<<1) ^ uint64(int64(v)>>63) // zigzag
		for u >= 0x80 {
			b = append(b, byte(u)|0x80)
			u >>= 7
		}
		b = append(b, byte(u))
	}
	return b
}

// Space defines a search problem. Implementations exist for the three use
// cases (scheduling here, ensembles and follow-the-cost in their packages)
// and for the runtime's residual replans.
type Space interface {
	// Starts are the search's start states (e.g. every task on the cheapest
	// type, as in Figure 5b); at least one.
	Starts() []State
	// Neighbors lists the moves out of s, in a deterministic order; the
	// solver applies them (see Transform).
	Neighbors(s State) []Transform
	// Describe binds the space's evaluation to one search: its seed, and
	// the search's context, which cancels any long build the evaluation
	// needs before its first kernel (a CRN program's sampled worlds).
	Describe(ctx context.Context, seed int64) Descriptor
}

// Transform is one move of the search graph: the child is the parent with
// Step added to each listed component. Tasks is read-only to the solver, so
// a space may share one slice across moves and calls (a precomputed group
// list, or a subslice of Indices).
type Transform struct {
	Tasks []int32
	Step  int
}

// Apply writes the child of parent under t into dst, reusing its capacity,
// and returns it.
func (t Transform) Apply(dst, parent State) State {
	dst = append(dst[:0], parent...)
	for _, i := range t.Tasks {
		dst[i] += t.Step
	}
	return dst
}

// indices backs Indices: a grow-only, read-only 0, 1, 2, … list.
var indices atomic.Pointer[[]int32]

// Indices returns the read-only list 0, 1, …, n-1, shared by every caller:
// a space lists all of its components as Indices(n) and component i alone
// as Indices(n)[i:i+1], without allocating per move.
func Indices(n int) []int32 {
	if p := indices.Load(); p != nil && len(*p) >= n {
		return (*p)[:n:n]
	}
	l := make([]int32, max(n, 64))
	for i := range l {
		l[i] = int32(i)
	}
	indices.Store(&l)
	return l[:n:n]
}

// Descriptor is how a space describes its evaluation to the solver for one
// search seed: every state evaluates as a world kernel plus reduction
// (package probir), run as one device block cut into world chunks.
type Descriptor struct {
	// Kernel builds one state's world kernel. Every state of a space must
	// share the kernel shape (worlds and figures) of the first start state;
	// a kernel that differs is an error for that state.
	Kernel func(s State) (probir.WorldKernel, error)
	// Objective, when set, replaces the reduced goal value of every state
	// with a world-free objective of the state (a plan-level cost such as
	// PackedMeanCost): after a full reduction and after a partial one.
	// Feasibility still comes from the kernel.
	Objective func(State) (float64, error)
	// Fingerprint is a content hash of everything an evaluation depends on
	// (program, distributions, objective). It gates the evaluation cache —
	// empty means the space cannot vouch for its identity and caching is
	// disabled.
	Fingerprint string
	// Indicators and Targets are the indicator figure and target percentile
	// of every percentile constraint (probir.Evaluator.Indicators), when
	// they alone decide feasibility: a state whose indicator sums can no
	// longer reach a target stops early under Options.Adaptive, its world
	// prefix reduced by the kernel's Reduce. Empty keeps every state at
	// every world.
	Indicators []int
	Targets    []float64
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
	// Patience ends the generic search's breadth-first levels after this many
	// levels without a new incumbent, and A* after this many best-first
	// expansions without a new feasible incumbent.
	Patience int
	// Seed makes runs reproducible; the space's Describe binds it as the
	// base of every kernel's worlds, whatever state the kernel evaluates.
	// Under the common-random-number contract it is the search-level CRN
	// base: every state in the search shares the same world realizations,
	// keyed by (task, type, iteration). Results are identical across
	// devices. The zero value defaults to 1 (fillDefaults),
	// matching DefaultOptions, so a zero-value Options and DefaultOptions
	// agree.
	Seed int64
	// AStar runs A* (§5.3): the search without breadth-first levels after
	// the start batch, pruning best-first expansions against a feasible
	// incumbent (see Problem.Search).
	AStar bool
	// Ctx cancels the search between evaluation batches and during the
	// space's evaluation build (see Space.Describe); nil means
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
	// Adaptive enables adaptive-precision Monte-Carlo evaluation: worlds run
	// in geometric chunks, and a state stops as soon as some percentile
	// constraint can no longer be met however its remaining worlds come out.
	// That verdict is exact, so a stopped state is infeasible at full
	// precision too; every other state runs every world, so feasible states'
	// evaluations match the fixed-worlds path. Stopped states carry
	// pessimistic violation estimates, so the search trajectory may differ
	// from the fixed path's (the final best is always confirmed by a full
	// evaluation). Off (the default) runs every world of every state.
	// Adaptive engages only when the space declares the indicators that
	// decide feasibility (Descriptor.Indicators); it is silently inert
	// otherwise (see SampleStats.Adaptive).
	Adaptive bool
	// MinWorlds is the first chunk size of adaptive evaluation — the minimum
	// number of worlds every state runs before any stop decision. 0 defaults
	// to 16.
	MinWorlds int
}

// DefaultOptions returns the default configuration on the given device: the
// zero Options with every default filled in, as Compile fills them.
func DefaultOptions(d device.Device) Options {
	o := Options{Device: d}
	fillDefaults(&o)
	return o
}

// Result is the outcome of a search.
type Result struct {
	Best      State
	BestEval  *probir.Evaluation
	Evaluated int
	// Levels counts the evaluated batches: the start batch, the generic
	// search's breadth-first levels and every best-first expansion.
	Levels  int
	Elapsed time.Duration
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

// candidate is a state queued for evaluation with its key.
type candidate struct {
	state State
	key   string
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

// fillDefaults replaces every unset knob with its default; Compile and
// DefaultOptions share it.
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
}

// Search compiles the space against the options and runs the solver,
// returning the best state found: Compile then Problem.Search.
func Search(sp Space, opt Options) (*Result, error) {
	p, err := Compile(sp, opt)
	if err != nil {
		return nil, err
	}
	return p.Search()
}

// Search runs the compiled problem to completion. One driver serves both
// searches of §5.3. All start states form the first batch, so the shared
// budget flows to the most promising region and the best-first phase
// descends from one global incumbent. The generic search (Algorithm 2) then
// explores breadth-first on 40% of the budget, expanding the best BeamWidth
// states of each level, and exploits best-first over the pool of every state
// evaluated so far until the budget runs out. A*
// (Options.AStar) is the same driver with three differences: no beam levels
// after the start batch, pruning of popped states that score strictly worse
// than a feasible incumbent, and Patience counted over best-first expansions
// once a feasible incumbent exists. The incumbent is the lowest Score
// evaluated, which is feasible whenever any evaluated state is.
func (p *Problem) Search() (*Result, error) {
	opt := p.opts
	start := time.Now()
	s := &search{p: p, visited: map[string]bool{}, seen: map[string]bool{}}

	// Beam phase. The best-first phase advances one level per
	// ~branching-factor evaluations and so converges much deeper per
	// evaluation; exploration gets 40% of the budget. A*'s only level is its
	// start batch, which may spend all of it.
	budget := max(opt.MaxStates*2/5, 1)
	if opt.AStar {
		budget = opt.MaxStates
	}
	frontier := p.startCandidates()
	for len(frontier) > 0 && s.res.Evaluated < budget {
		batch, changed, err := s.step(frontier, budget)
		if err != nil {
			return nil, err
		}
		if opt.AStar || !s.patient(changed) {
			break
		}
		// Rank this level's states and expand the best BeamWidth of them;
		// dedup spans the whole level.
		sort.Slice(batch, func(i, j int) bool {
			si, sj := Score(batch[i].eval, opt.Maximize), Score(batch[j].eval, opt.Maximize)
			if si != sj {
				return si < sj
			}
			return batch[i].key < batch[j].key // deterministic ties
		})
		clear(s.seen)
		frontier = s.cands[:0]
		for _, e := range batch[:min(len(batch), opt.BeamWidth)] {
			frontier = p.children(frontier, e.state, s.visited, s.seen)
		}
		s.cands = frontier
	}

	// Best-first phase (§5.3's exploitation): expand the pool's best state,
	// so a stalled greedy line falls back to the next most promising one.
	for s.pool.Len() > 0 && s.res.Evaluated < opt.MaxStates {
		item := heap.Pop(&s.pool).(pqItem)
		// A* prunes: under the monotone assumption of §5.3 ("child states ...
		// always generate higher cost than their parent") a state strictly
		// worse than a feasible incumbent is a dead end. States tying it
		// (including the incumbent itself) still expand: with plan-level
		// packing the objective is not perfectly monotone.
		pruned := opt.AStar && s.best.eval.Feasible && item.priority > s.bestScore
		children := s.cands[:0]
		if !pruned {
			clear(s.seen)
			children = p.children(children, item.state, s.visited, s.seen)
			s.cands = children
		}
		if len(children) == 0 {
			continue
		}
		_, changed, err := s.step(children, opt.MaxStates)
		if err != nil {
			return nil, err
		}
		if opt.AStar && !s.patient(changed) {
			break
		}
	}

	// Adaptive evaluations may have stopped the incumbent early; the
	// returned result is always backed by a full evaluation.
	if err := p.confirmBest(s.best); err != nil {
		return nil, err
	}
	res := s.res // a copy: the Result must not keep the pool and visited set alive
	res.Best, res.BestEval, res.Feasible = s.best.state, s.best.eval, s.best.eval.Feasible
	res.Elapsed = time.Since(start)
	return &res, nil
}

// search is one run of Problem.Search: the visited set, the pool of every
// evaluated state, the incumbent and the patience count.
type search struct {
	p       *Problem
	res     Result
	visited map[string]bool
	// seen and cands are an expansion's reused dedup set and candidate
	// list (see Problem.children).
	seen  map[string]bool
	cands []candidate
	pool  pq
	// best is the incumbent, the first state evaluated at the lowest Score;
	// bestScore is its Score.
	best      *scored
	bestScore float64
	stale     int
}

// step evaluates one batch: it checks for cancellation, trims the batch to
// the evaluation limit, marks the survivors visited, evaluates them, pushes
// them into the pool and updates the incumbent, reporting whether it changed.
// Marking only what is evaluated keeps a trimmed state reachable through a
// later expansion of another parent.
func (s *search) step(cands []candidate, limit int) ([]scored, bool, error) {
	if err := s.p.opts.Ctx.Err(); err != nil {
		return nil, false, fmt.Errorf("opt: search cancelled: %w", err)
	}
	if s.res.Evaluated+len(cands) > limit {
		cands = cands[:limit-s.res.Evaluated]
	}
	for _, c := range cands {
		s.visited[c.key] = true
	}
	batch := s.p.evaluateCandidates(cands)
	s.res.Evaluated += len(batch)
	s.res.Levels++
	changed := false
	for i := range batch {
		if batch[i].err != nil {
			return nil, false, batch[i].err
		}
		sc := Score(batch[i].eval, s.p.opts.Maximize)
		heap.Push(&s.pool, pqItem{scored: batch[i], priority: sc})
		if s.best == nil || sc < s.bestScore {
			b := batch[i]
			s.best, s.bestScore, changed = &b, sc, true
		}
	}
	return batch, changed, nil
}

// patient counts one batch against Options.Patience and reports whether the
// search may go on: a batch that changed the incumbent resets the count, any
// other adds one. A* counts only once its incumbent is feasible.
func (s *search) patient(changed bool) bool {
	switch {
	case s.p.opts.AStar && !s.best.eval.Feasible:
	case changed:
		s.stale = 0
	default:
		s.stale++
	}
	return s.stale < s.p.opts.Patience
}

// pqItem is an entry of the search pool, ranked by Score, ties by key.
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
func (p pq) Swap(i, j int) { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x any)   { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() any     { old := *p; n := len(old); it := old[n-1]; *p = old[:n-1]; return it }
