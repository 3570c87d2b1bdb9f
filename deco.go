// Package deco is a declarative optimization engine for resource
// provisioning of scientific workflows in IaaS clouds — a reproduction of
// Zhou, He, Cheng and Lau (HPDC 2015).
//
// Users describe a workflow optimization problem in WLog, a ProLog-derived
// declarative language with probabilistic deadline/budget constraints that
// capture cloud performance dynamics:
//
//	import(amazonec2).
//	import(montage).
//	minimize Ct in totalcost(Ct).
//	T in maxtime(Path,T) satisfies deadline(95%,10h).
//	configs(Tid,Vid,Con) forall task(Tid) and vm(Vid).
//	...
//
// The engine translates the program into a probabilistic intermediate
// representation backed by calibrated cloud-performance histograms,
// searches the provisioning space with transformation-driven generic or A*
// search, evaluates states with Monte-Carlo inference on a parallel device
// (the software stand-in for the paper's GPU), and returns a provisioning
// plan mapping every task to an instance type, ready for execution through
// the scheduler-callout surfaces a workflow management system calls
// (Plan.Execute, decorun -json, the decod service).
//
// The quick path for Go callers skips WLog:
//
//	eng, _ := deco.NewEngine()
//	plan, _ := eng.Schedule(workflow, deco.Deadline{Percentile: 0.96, Seconds: 36000})
package deco

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/dax"
	"deco/internal/device"
	"deco/internal/estimate"
	"deco/internal/opt"
	"deco/internal/probir"
	"deco/internal/prolog"
	"deco/internal/wfgen"
	"deco/internal/wlog"
)

// Engine is the declarative optimization engine. Construct it with
// NewEngine; zero values are not usable.
type Engine struct {
	cat    *cloud.Catalog
	meta   *cloud.Metadata
	est    *estimate.Estimator
	dev    device.Device
	region string
	iters  int
	search opt.Options
	seed   int64
	// spots lists base instance types offered on the spot market: the
	// provisioning space grows a virtual "<type>:spot" column per entry,
	// priced by the region's market process. xferFrom, when set, is the
	// region holding the workflow's source inputs — source tasks pay the
	// cross-region transfer time and egress cost (data gravity).
	spots    []string
	xferFrom string
}

// prologMaxTasks bounds when user-defined goal predicates are interpreted
// exactly with the Prolog machine; beyond it the engine requires the
// standard constructs and uses the native evaluator.
const prologMaxTasks = 12

// Option configures the engine.
type Option func(*Engine)

// WithCatalog replaces the default EC2-like catalog.
func WithCatalog(cat *cloud.Catalog) Option { return func(e *Engine) { e.cat = cat } }

// WithMetadata installs a calibrated metadata store (e.g. from package
// calib); the default discretizes the catalog's ground truth.
func WithMetadata(md *cloud.Metadata) Option { return func(e *Engine) { e.meta = md } }

// WithDevice selects the solver's execution device (default: TwoLevel, the
// block/thread model of §5.2-5.3). Plans are identical on every device; it
// decides only how the work is scheduled.
func WithDevice(d device.Device) Option { return func(e *Engine) { e.dev = d } }

// WithIters sets the Monte-Carlo iteration budget per state evaluation
// (Max_iter of Algorithm 1; default 100).
func WithIters(n int) Option { return func(e *Engine) { e.iters = n } }

// WithSeed makes runs reproducible.
func WithSeed(s int64) Option { return func(e *Engine) { e.seed = s } }

// WithRegion selects the pricing region (default us-east-1).
func WithRegion(r string) Option { return func(e *Engine) { e.region = r } }

// WithSearchBudget bounds the number of states the solver evaluates.
func WithSearchBudget(n int) Option { return func(e *Engine) { e.search.MaxStates = n } }

// EvalCache is a bounded transposition table for solver state evaluations
// (see opt.EvalCache). Under the common-random-number determinism contract a
// hit is bit-identical to live evaluation, so sharing one cache across
// engines, searches, and adaptive replans changes wall-clock time only,
// never results.
type EvalCache = opt.EvalCache

// DefaultEvalCacheCapacity is the entry bound NewEvalCache applies when
// given a non-positive capacity.
const DefaultEvalCacheCapacity = opt.DefaultEvalCacheCapacity

// NewEvalCache returns an evaluation cache holding at most capacity entries
// (a default capacity when <= 0), for use with WithEvalCache.
func NewEvalCache(capacity int) *EvalCache { return opt.NewEvalCache(capacity) }

// WithEvalCache installs a shared evaluation cache: repeated searches over
// the same problem (same workflow, table, prices, goal, constraints, seed)
// reuse cached state evaluations instead of re-running Monte-Carlo
// inference. Adaptive executions pass the cache on to their replan searches.
func WithEvalCache(c *EvalCache) Option { return func(e *Engine) { e.search.Cache = c } }

// WithEvalCacheScope labels this engine's evaluation-cache traffic for
// per-scope hit/miss accounting (EvalCache.ScopeStats). Scopes are purely
// observational — they never partition the cache or affect results; decod
// uses them to report per-job-kind cache effectiveness in /metrics.
func WithEvalCacheScope(scope string) Option {
	return func(e *Engine) { e.search.CacheScope = scope }
}

// WithAdaptive toggles adaptive-precision Monte-Carlo inference: state
// evaluations run their worlds in chunks, and a state stops as soon as some
// percentile constraint can no longer be met whatever its remaining worlds
// hold. Every verdict is exact: a stopped state is infeasible at full
// precision, and a feasible state runs every world, so the returned plan is
// always backed by a complete evaluation. The saving is reported by
// Plan.WorldsSaved. Off (the default) runs every world of every state.
func WithAdaptive(on bool) Option { return func(e *Engine) { e.search.Adaptive = on } }

// WithSpot offers the named base instance types on the spot market: the
// search space gains a "<type>:spot" column per entry whose per-world cost is
// drawn from the region's clearing-price process and revocation hazard, the
// cost objective becomes expected cost under revocation, and percentile
// budget constraints bound cost-at-risk. Equivalent to spot(type) facts in a
// WLog program.
func WithSpot(types ...string) Option { return func(e *Engine) { e.spots = types } }

// WithTransferSource declares that the workflow's source inputs live in the
// named region rather than the execution region: source tasks pay the
// cross-region transfer time (calibrated bandwidth histogram) and the source
// region's per-GB egress price. Equivalent to a transfer(src, dst) fact.
func WithTransferSource(region string) Option { return func(e *Engine) { e.xferFrom = region } }

// NewEngine builds an engine with the paper's defaults: the EC2 m1 catalog,
// metadata discretized from the calibrated Table 2 distributions, the
// two-level (block per state, thread per Monte-Carlo iteration) device, and
// 100 Monte-Carlo iterations per evaluation.
func NewEngine(options ...Option) (*Engine, error) {
	e := &Engine{
		dev:    device.TwoLevel{},
		region: cloud.USEast,
		iters:  100,
		seed:   1,
	}
	e.search = opt.DefaultOptions(e.dev)
	for _, o := range options {
		o(e)
	}
	if e.cat == nil {
		e.cat = cloud.DefaultCatalog()
	}
	if err := e.cat.Validate(); err != nil {
		return nil, err
	}
	if e.meta == nil {
		md, err := truthMetadata(e.cat, e.seed)
		if err != nil {
			return nil, err
		}
		e.meta = md
	}
	if err := e.meta.Validate(e.cat); err != nil {
		return nil, err
	}
	if e.iters < 1 {
		return nil, fmt.Errorf("deco: iters must be >= 1")
	}
	e.search.Device = e.dev
	e.search.Seed = e.seed
	e.est = estimate.New(e.cat, e.meta)
	return e, nil
}

// Catalog exposes the engine's cloud catalog.
func (e *Engine) Catalog() *cloud.Catalog { return e.cat }

// Metadata exposes the calibrated performance store.
func (e *Engine) Metadata() *cloud.Metadata { return e.meta }

// Estimator exposes the task execution-time model.
func (e *Engine) Estimator() *estimate.Estimator { return e.est }

// Prices returns the hourly price per catalog type in the engine's region.
func (e *Engine) Prices() ([]float64, error) {
	r, err := e.cat.Region(e.region)
	if err != nil {
		return nil, err
	}
	prices := make([]float64, len(e.cat.Types))
	for j, it := range e.cat.Types {
		p, ok := r.PricePerHour[it.Name]
		if !ok {
			return nil, fmt.Errorf("deco: region %s does not price %s", e.region, it.Name)
		}
		prices[j] = p
	}
	return prices, nil
}

// Deadline is the probabilistic deadline requirement of §3.1: the
// Percentile-th quantile of the execution-time distribution must not exceed
// Seconds. Percentile <= 0 selects the deterministic (expected-value)
// notion; a Percentile above 1 is an error.
type Deadline struct {
	Percentile float64
	Seconds    float64
}

// Budget is the probabilistic budget requirement (Table 1), with
// Deadline's Percentile convention.
type Budget struct {
	Percentile float64
	Dollars    float64
}

// Plan is a provisioning plan: the engine's answer. It maps every task to
// an instance type and carries the evaluation of the chosen state.
type Plan struct {
	Workflow *dag.Workflow
	// Config is the per-task type index (Workflow.Tasks order).
	Config []int
	// Types are the catalog type names indexed by Config values.
	Types []string
	// EstimatedCost is the expected monetary cost of the consolidated plan
	// in dollars (hour-billed packed cost).
	EstimatedCost float64
	// Objective is the optimized goal value: equal to EstimatedCost for
	// cost goals, the expected makespan in seconds for performance goals.
	Objective float64
	// Feasible reports whether all constraints were satisfiable; when
	// false the plan is the least-violating one found.
	Feasible bool
	// ConsProb is the satisfaction probability per constraint.
	ConsProb []float64
	// Constraints are the probabilistic constraints the plan was solved
	// under (absolute bounds) — what the runtime monitor re-checks during
	// adaptive execution.
	Constraints []wlog.Constraint
	// StatesEvaluated counts solver evaluations.
	StatesEvaluated int
	// WorldsEvaluated / WorldsSaved report the adaptive-precision sampling
	// economy of the solve: Monte-Carlo worlds actually run on the adaptive
	// path and worlds avoided relative to the fixed per-state budget. Both
	// are zero when the engine ran fixed-precision (WithAdaptive off or the
	// problem not adaptive-capable).
	WorldsEvaluated int64
	WorldsSaved     int64

	engine *Engine
}

// TypeOf returns the instance type chosen for a task ID.
func (p *Plan) TypeOf(taskID string) (string, error) {
	for i, t := range p.Workflow.Tasks {
		if t.ID == taskID {
			return p.Types[p.Config[i]], nil
		}
	}
	return "", fmt.Errorf("deco: unknown task %q", taskID)
}

// Assignments returns the task→type mapping.
func (p *Plan) Assignments() map[string]string {
	out := make(map[string]string, len(p.Config))
	for i, t := range p.Workflow.Tasks {
		out[t.ID] = p.Types[p.Config[i]]
	}
	return out
}

// constraints builds the solver's constraint list: the deadline, then the
// budget, each only when its bound is positive. A percentile <= 0 selects the
// deterministic (expected-value) notion; one above 1, or NaN, is an error, as
// it is in WLog.
func constraints(d Deadline, b Budget) ([]wlog.Constraint, error) {
	var cons []wlog.Constraint
	for _, c := range []wlog.Constraint{
		{Kind: "deadline", Percentile: d.Percentile, Bound: d.Seconds},
		{Kind: "budget", Percentile: b.Percentile, Bound: b.Dollars},
	} {
		if c.Bound <= 0 {
			continue
		}
		if err := checkPercentile(c.Kind, c.Percentile); err != nil {
			return nil, err
		}
		if c.Percentile <= 0 {
			c.Percentile = -1
		}
		cons = append(cons, c)
	}
	return cons, nil
}

// checkPercentile rejects a requirement percentile above 1 or NaN.
func checkPercentile(kind string, pct float64) error {
	if !(pct <= 1) {
		return fmt.Errorf("deco: %s percentile %v is not at most 1; write 0.95 for 95%%", kind, pct)
	}
	return nil
}

// Schedule solves the workflow scheduling problem (§3.1) directly: minimize
// the mean monetary cost subject to the probabilistic deadline. This is the
// native path behind the standard WLog program of Example 1.
func (e *Engine) Schedule(w *dag.Workflow, d Deadline) (*Plan, error) {
	return e.ScheduleContext(context.Background(), w, d)
}

// ScheduleContext is Schedule with cancellation: the context is threaded into
// the solver's search loop, which aborts between state evaluations and
// returns the context's error (wrapped) when ctx is cancelled.
func (e *Engine) ScheduleContext(ctx context.Context, w *dag.Workflow, d Deadline) (*Plan, error) {
	if d.Seconds <= 0 {
		return nil, fmt.Errorf("deco: deadline must be positive")
	}
	cons, err := constraints(d, Budget{})
	if err != nil {
		return nil, err
	}
	return e.optimize(ctx, w, probir.GoalCost, cons, false, nil)
}

// ScheduleForPerformance solves the dual problem the paper's introduction
// cites (Mao & Humphrey, IPDPS'13): minimize the expected execution time
// subject to a budget. The budget is the Eq. 5 notion — mean task time ×
// unit price — with the probabilistic interpretation P(cost <= B) >= p, or
// the deterministic mean notion when Percentile <= 0. In WLog terms:
//
//	minimize T in maxtime(Path,T).
//	C in totalcost(C) satisfies budget(96%, 10).
func (e *Engine) ScheduleForPerformance(w *dag.Workflow, b Budget) (*Plan, error) {
	return e.ScheduleForPerformanceContext(context.Background(), w, b)
}

// ScheduleForPerformanceContext is ScheduleForPerformance with cancellation.
func (e *Engine) ScheduleForPerformanceContext(ctx context.Context, w *dag.Workflow, b Budget) (*Plan, error) {
	if b.Dollars <= 0 {
		return nil, fmt.Errorf("deco: budget must be positive")
	}
	cons, err := constraints(Deadline{}, b)
	if err != nil {
		return nil, err
	}
	return e.optimize(ctx, w, probir.GoalMakespan, cons, false, nil)
}

// ScheduleConstrained solves the general form: a goal (cost or makespan)
// under any mix of deadline and budget constraints, as a WLog program with
// both built-ins would. Constraints with zero bounds are skipped; at least
// one must be set.
func (e *Engine) ScheduleConstrained(w *dag.Workflow, minimizeCost bool, d Deadline, b Budget) (*Plan, error) {
	return e.ScheduleConstrainedContext(context.Background(), w, minimizeCost, d, b)
}

// ScheduleConstrainedContext is ScheduleConstrained with cancellation.
func (e *Engine) ScheduleConstrainedContext(ctx context.Context, w *dag.Workflow, minimizeCost bool, d Deadline, b Budget) (*Plan, error) {
	cons, err := constraints(d, b)
	if err != nil {
		return nil, err
	}
	if len(cons) == 0 {
		return nil, fmt.Errorf("deco: at least one constraint required")
	}
	goal := probir.GoalMakespan
	if minimizeCost {
		goal = probir.GoalCost
	}
	return e.optimize(ctx, w, goal, cons, false, nil)
}

// marketTable builds the estimate table, per-column hourly prices, and
// market specs for a workflow under the engine's market configuration: the
// cross-region transfer applied to source tasks, then one virtual spot
// column per WithSpot type. markets is nil when no spot types are offered.
func (e *Engine) marketTable(w *dag.Workflow) (*estimate.Table, []float64, []probir.MarketSpec, error) {
	prices, err := e.Prices()
	if err != nil {
		return nil, nil, nil, err
	}
	est := *e.est
	if e.xferFrom != "" {
		if e.xferFrom == e.region {
			return nil, nil, nil, fmt.Errorf("deco: transfer source %s is already the execution region", e.xferFrom)
		}
		src, err := e.cat.Region(e.xferFrom)
		if err != nil {
			return nil, nil, nil, err
		}
		priceGB, ok := src.NetPricePerGB[e.region]
		if !ok {
			return nil, nil, nil, fmt.Errorf("deco: region %s does not price transfers to %s", e.xferFrom, e.region)
		}
		if e.meta.CrossRegionNet == nil {
			return nil, nil, nil, fmt.Errorf("deco: metadata has no cross-region bandwidth model")
		}
		est.Transfer = &estimate.Transfer{
			From: e.xferFrom, To: e.region,
			PriceGB: priceGB, Net: e.meta.CrossRegionNet,
		}
	}
	tbl, err := est.BuildTable(w)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(e.spots) == 0 {
		return tbl, prices, nil, nil
	}
	if tbl, err = tbl.ExpandSpot(e.spots); err != nil {
		return nil, nil, nil, err
	}
	reg, err := e.cat.Region(e.region)
	if err != nil {
		return nil, nil, nil, err
	}
	full := make([]float64, len(tbl.Types))
	copy(full, prices)
	markets := make([]probir.MarketSpec, len(tbl.Types))
	for j := len(prices); j < len(tbl.Types); j++ {
		name := tbl.Types[j]
		sm, err := e.cat.Spot(e.region, name)
		if err != nil {
			return nil, nil, nil, err
		}
		od, ok := reg.PricePerHour[cloud.BaseType(name)]
		if !ok {
			return nil, nil, nil, fmt.Errorf("deco: region %s does not price %s", e.region, cloud.BaseType(name))
		}
		markets[j] = probir.MarketSpec{
			Spot:               true,
			PriceMean:          sm.PricePerHourMean,
			PriceSigma:         sm.PriceSigma,
			RevocationsPerHour: sm.RevocationsPerHour,
			OnDemandUSD:        od,
		}
		full[j] = sm.PricePerHourMean
	}
	return tbl, full, markets, nil
}

// optimize solves w in one pass: the market table, then the evaluator —
// the Prolog interpreter of interp's rules when interp is set, the native
// evaluator of goal under cons otherwise — then compile, search, and the
// plan with its packed, hour-billed cost.
func (e *Engine) optimize(ctx context.Context, w *dag.Workflow, goal probir.GoalKind, cons []wlog.Constraint, astar bool, interp *wlog.Program) (*Plan, error) {
	tbl, prices, markets, err := e.marketTable(w)
	if err != nil {
		return nil, err
	}
	search := e.search
	search.AStar = astar
	search.Ctx = ctx
	var space *opt.ScheduleSpace
	if interp != nil {
		// Per-world interpretation is expensive: at most 200 worlds.
		eval, err := probir.NewProlog(w, tbl, prices, interp, min(e.iters, 200))
		if err != nil {
			return nil, err
		}
		space = opt.NewScheduleSpace(w, eval)
		search.Maximize = interp.Goal.Maximize
	} else {
		eval, err := probir.NewNativeMarkets(w, tbl, prices, markets, goal, cons, e.iters)
		if err != nil {
			return nil, err
		}
		if goal == probir.GoalCost && !eval.HasSpotMarkets() {
			// Transformation-aware objective: the hour-billed cost of the
			// consolidated plan (Merge/Co-Scheduling exploit partial hours).
			// With spot markets the objective is the sampled expected cost
			// under revocation from the evaluator's kernel — a deterministic
			// packed cost would erase exactly the market risk being
			// optimized.
			space = opt.NewPackedScheduleSpace(w, eval, tbl, prices, e.region)
		} else {
			space = opt.NewScheduleSpace(w, eval)
		}
	}
	problem, err := opt.Compile(space, search)
	if err != nil {
		return nil, err
	}
	res, err := problem.Search()
	if err != nil {
		return nil, err
	}
	packed, err := opt.PackedMeanCost(w, res.Best, tbl, prices, e.region)
	if err != nil {
		return nil, err
	}
	sstats := problem.SampleStats()
	return &Plan{
		Workflow:        w,
		Config:          res.Best,
		Types:           tbl.Types,
		EstimatedCost:   packed,
		Objective:       res.BestEval.Value,
		Feasible:        res.Feasible,
		ConsProb:        res.BestEval.ConsProb,
		Constraints:     cons,
		StatesEvaluated: res.Evaluated,
		WorldsEvaluated: sstats.WorldsRun,
		WorldsSaved:     sstats.WorldsSaved(),
		engine:          e,
	}, nil
}

// cloudImports maps import(...) atoms to pricing regions.
var cloudImports = map[string]string{
	"amazonec2":            cloud.USEast,
	"ec2":                  cloud.USEast,
	"amazonec2useast":      cloud.USEast,
	"amazonec2sg":          cloud.APSoutheast,
	"amazonec2apsoutheast": cloud.APSoutheast,
}

// resolveWorkflowImport generates or loads the workflow named by an
// import(...) atom: the synthetic applications by name (montage, montage4,
// ligo, epigenomics, cybershake, pipeline, bag) or a DAX file by quoted
// path.
func resolveWorkflowImport(name string, rng *rand.Rand) (*dag.Workflow, error) {
	if strings.HasSuffix(name, ".dax") || strings.HasSuffix(name, ".xml") {
		return dax.ParseFile(name)
	}
	switch name {
	case "montage", "montage1":
		return wfgen.Montage(1, rng)
	case "montage4":
		return wfgen.Montage(4, rng)
	case "montage8":
		return wfgen.Montage(8, rng)
	case "ligo":
		return wfgen.Ligo(3, rng)
	case "epigenomics":
		return wfgen.Epigenomics(2, 4, rng)
	case "cybershake":
		return wfgen.CyberShake(4, 10, rng)
	case "pipeline":
		return wfgen.Pipeline(5, rng)
	case "bag":
		// Six independent ten-minute tasks: the embarrassingly-parallel
		// spot-market workload (each instance independently exposed to
		// revocation, no sibling stalls on a reclaimed task).
		return wfgen.Bag(6, 600, rng)
	}
	return nil, fmt.Errorf("deco: unknown workflow import %q", name)
}

// NamedWorkflow generates (or loads, for .dax/.xml paths) the workflow an
// import(name) atom would resolve to, seeding the synthetic generators with
// seed. It is the public face of resolveWorkflowImport, used by the decod
// service and available to any caller that wants the paper's benchmark
// applications without writing a WLog program.
func NamedWorkflow(name string, seed int64) (*dag.Workflow, error) {
	return resolveWorkflowImport(name, rand.New(rand.NewSource(seed)))
}

// RunProgram parses and solves a WLog program. The workflow may be supplied
// explicitly (overriding any workflow import); pass nil to let the program's
// import(...) statements provide it.
func (e *Engine) RunProgram(src string, w *dag.Workflow) (*Plan, error) {
	return e.RunProgramContext(context.Background(), src, w)
}

// RunProgramContext is RunProgram with cancellation: ctx aborts the solver's
// search between state evaluations.
func (e *Engine) RunProgramContext(ctx context.Context, src string, w *dag.Workflow) (*Plan, error) {
	prog, err := wlog.Parse(src)
	if err != nil {
		return nil, err
	}
	// Resolve imports.
	rng := rand.New(rand.NewSource(e.seed))
	region := e.region
	eng := e
	for _, imp := range prog.Imports {
		if r, ok := cloudImports[imp]; ok {
			region = r
			continue
		}
		if strings.HasSuffix(imp, ".json") {
			// A custom cloud: load the catalog and derive an engine over it.
			cat, err := cloud.LoadCatalog(imp)
			if err != nil {
				return nil, err
			}
			if eng, err = e.overCatalog(cat); err != nil {
				return nil, err
			}
			region = eng.region
			continue
		}
		if w == nil {
			if w, err = resolveWorkflowImport(imp, rng); err != nil {
				return nil, err
			}
		}
	}
	if w == nil {
		return nil, fmt.Errorf("deco: program imports no workflow and none was supplied")
	}
	if prog.Goal == nil {
		return nil, fmt.Errorf("deco: program has no optimization goal")
	}
	if region != eng.region {
		regional := *eng
		regional.region = region
		eng = &regional
	}

	// Market facts: spot(type) offerings and the transfer(src, dst) data
	// gravity declaration become engine market configuration.
	if len(prog.Spots) > 0 || len(prog.Transfers) > 0 {
		mkt := *eng
		if len(prog.Spots) > 0 {
			mkt.spots = prog.Spots
		}
		if len(prog.Transfers) > 1 {
			return nil, fmt.Errorf("deco: at most one transfer fact is supported, program has %d", len(prog.Transfers))
		}
		if len(prog.Transfers) == 1 {
			tr := prog.Transfers[0]
			if tr[1] != mkt.region {
				return nil, fmt.Errorf("deco: transfer destination %s is not the execution region %s", tr[1], mkt.region)
			}
			mkt.xferFrom = tr[0]
		}
		eng = &mkt
	}

	goalInd, err := goalIndicator(prog)
	if err != nil {
		return nil, err
	}

	// Exact interpretation: the program defines its own goal predicate and
	// the workflow is small enough for per-world Prolog evaluation — unless
	// market semantics are active, which only the native evaluator carries.
	if prog.HasRule(goalInd.name, goalInd.arity) && w.Len() <= prologMaxTasks &&
		len(eng.spots) == 0 && eng.xferFrom == "" {
		return eng.optimize(ctx, w, probir.GoalCost, prog.Constraints, prog.AStar, prog)
	}

	// Engine-native constructs (Table 1): recognize the standard goal names.
	var goal probir.GoalKind
	switch goalInd.name {
	case "totalcost", "cost":
		goal = probir.GoalCost
	case "maxtime", "makespan":
		goal = probir.GoalMakespan
	default:
		return nil, fmt.Errorf("deco: goal predicate %s/%d is not a built-in construct and the workflow has %d tasks (exact interpretation is limited to %d)",
			goalInd.name, goalInd.arity, w.Len(), prologMaxTasks)
	}
	if prog.Goal.Maximize {
		return nil, fmt.Errorf("deco: the scheduling problem minimizes; use the ensemble API for maximization")
	}
	return eng.optimize(ctx, w, goal, prog.Constraints, prog.AStar, nil)
}

// truthMetadata is the engine's default metadata: the catalog's ground-truth
// distributions discretized under the engine seed.
func truthMetadata(cat *cloud.Catalog, seed int64) (*cloud.Metadata, error) {
	return cloud.MetadataFromTruth(cat, 20, 10000, rand.New(rand.NewSource(seed)))
}

// overCatalog derives an engine over a custom catalog: a copy of e — every
// solver option (adaptive precision, eval cache, budgets,
// device, seed) carried over — with the catalog, its default metadata, the
// estimator and the region (its first) replaced.
func (e *Engine) overCatalog(cat *cloud.Catalog) (*Engine, error) {
	if err := cat.Validate(); err != nil {
		return nil, err
	}
	md, err := truthMetadata(cat, e.seed)
	if err != nil {
		return nil, err
	}
	if err := md.Validate(cat); err != nil {
		return nil, err
	}
	derived := *e
	derived.cat, derived.meta, derived.est = cat, md, estimate.New(cat, md)
	derived.region = cat.Regions[0].Name
	return &derived, nil
}

type indicator struct {
	name  string
	arity int
}

func goalIndicator(prog *wlog.Program) (indicator, error) {
	pi, err := prolog.IndicatorOf(prog.Goal.Query)
	if err != nil {
		return indicator{}, fmt.Errorf("deco: malformed goal query: %w", err)
	}
	return indicator{name: pi.Functor, arity: pi.Arity}, nil
}
