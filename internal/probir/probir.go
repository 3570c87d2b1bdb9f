// Package probir implements the probabilistic intermediate representation of
// §5.1-5.2: WLog programs are translated into probability-annotated rules
// ("p_j : exetime(Tid,Vid,T_j)" with p_j taken from the calibrated
// performance histograms), and queries on goals and constraints are answered
// by Monte-Carlo approximate inference (Algorithm 1): sample realizations
// (worlds) of the probabilistic facts, evaluate the query deterministically
// in each world, and aggregate — the mean value for goal queries, the
// satisfaction probability for constraint queries.
//
// An evaluator is bound once per search: Bind samples the worlds of one
// common-random-number (CRN) base and returns the kernel builder every state
// of that search evaluates through. Two evaluators implement it:
//
//   - Native: the engine-native fast path behind WLog's built-in
//     deadline/budget/totalcost/maxtime constructs (Table 1). It computes the
//     workflow makespan per world with a longest-path dynamic program and the
//     cost from mean task times (Eq. 1-3), exactly matching the semantics of
//     Example 1's rules.
//   - Prolog: the general path that interprets arbitrary user-defined WLog
//     rules with the Prolog machine per world, reading world p's exetime
//     facts from position p of the native evaluator's CRN rows.
//
// Both read the same worlds, so a differential test checks them world by
// world on the standard scheduling program: equal makespan and cost up to
// summation order, equal deadline indicators. Evaluate is the one-shot
// reference: bind, build one kernel, run its worlds in order.
//
// Both evaluators run as world kernels plus a reduction (kernel.go), the
// paper's block/thread shape. The kernel contract is ranged: one Sample call
// computes a contiguous range of worlds into one figure row per world, and
// the native kernel runs its longest-path passes task-major over the range.
// A CRN Program samples its worlds once, when it is built, and stores them
// decisive-world-first (order.go), so a world has one number everywhere.
// The constraint semantics — figure layout, indicator scoring, verdicts, violation gradient and the world-prefix
// reduction — exists once, in Figures (figures.go): the native kernel and
// the runtime's residual kernel embed it, and the Prolog kernel folds its
// per-constraint verdicts through the same step.
package probir

import (
	"context"
	"fmt"
	"sync"

	"deco/internal/dag"
	"deco/internal/estimate"
	"deco/internal/wlog"
)

// Evaluation is the outcome of evaluating one provisioning plan (search
// state).
type Evaluation struct {
	// Value of the optimization goal (mean over sampled worlds).
	Value float64
	// Feasible reports whether every constraint holds at its required
	// probability.
	Feasible bool
	// ConsProb is the estimated satisfaction probability of each constraint
	// (for the deterministic 'mean' notion, 1 if satisfied else 0).
	ConsProb []float64
	// Violation measures how far the state is from feasibility (0 when
	// feasible); the solver uses it to rank infeasible states so the search
	// climbs toward the feasible region.
	Violation float64
}

// Evaluator scores configurations: config[i] is the catalog type index
// assigned to workflow task i (in Workflow.Tasks order).
type Evaluator interface {
	// NumTypes is the number of catalog types a task can take.
	NumTypes() int
	// Bind samples the worlds of the CRN base and returns the kernel
	// builder of every configuration over them. ctx cancels the sampling;
	// the error then wraps ctx's.
	Bind(ctx context.Context, base int64) (Kernels, error)
	// Fingerprint identifies everything an evaluation depends on besides
	// (config, base); empty when the evaluator cannot vouch for its
	// identity, which leaves the solver's evaluation cache unbound.
	Fingerprint() string
}

// Kernels builds the world kernel of one configuration over the worlds of
// one binding. Kernels of one binding share its worlds and may be built and
// run concurrently.
type Kernels func(config []int) (WorldKernel, error)

// Evaluate is the one-shot reference evaluation of one configuration over
// the worlds of base: it binds e, builds the configuration's kernel and
// runs its worlds in order (RunKernel). A caller evaluating many
// configurations at one base binds once instead.
func Evaluate(ctx context.Context, e Evaluator, config []int, base int64) (*Evaluation, error) {
	kernels, err := e.Bind(ctx, base)
	if err != nil {
		return nil, err
	}
	k, err := kernels(config)
	if err != nil {
		return nil, err
	}
	return RunKernel(k)
}

// GoalKind selects what the native evaluator's goal query computes.
type GoalKind int

// Native goal kinds.
const (
	// GoalCost is the total monetary cost Σ M_ij×U_j×vm_ij (Eq. 1).
	GoalCost GoalKind = iota
	// GoalMakespan is the mean workflow execution time (Eq. 3's t_w).
	GoalMakespan
)

// Native is the histogram-driven Monte-Carlo evaluator for the standard
// workflow constructs.
type Native struct {
	W     *dag.Workflow
	Table *estimate.Table
	// PricePerHour per catalog type index.
	PricePerHour []float64
	Goal         GoalKind
	Constraints  []wlog.Constraint
	// Iters is Max_iter of Algorithm 1.
	Iters int

	// Markets, when non-nil, carries one MarketSpec per table column (see
	// market.go); hasSpot caches whether any column is a spot offering.
	Markets []MarketSpec
	hasSpot bool

	// flat/ftab are the compiled index-based forms of the DAG and the
	// time-distribution table: the kernels run the longest-path DP over
	// dense integer arrays so the Monte-Carlo hot loop touches no maps and
	// performs no per-world allocations.
	flat *dag.Flat
	ftab *estimate.FlatTable

	fpOnce sync.Once
	fp     string
}

// NewNative builds a native evaluator. The constraint list may contain
// deadline and budget constraints; Query/Var fields are ignored (the native
// evaluator implements maxtime and totalcost itself).
func NewNative(w *dag.Workflow, tbl *estimate.Table, prices []float64, goal GoalKind, cons []wlog.Constraint, iters int) (*Native, error) {
	if iters < 1 {
		return nil, fmt.Errorf("probir: iters must be >= 1, got %d", iters)
	}
	if len(prices) != len(tbl.Types) {
		return nil, fmt.Errorf("probir: %d prices for %d types", len(prices), len(tbl.Types))
	}
	flat, err := w.Flatten()
	if err != nil {
		return nil, err
	}
	ftab, err := tbl.Flatten(flat.IDs)
	if err != nil {
		return nil, err
	}
	for _, c := range cons {
		if c.Kind != "deadline" && c.Kind != "budget" {
			return nil, fmt.Errorf("probir: unsupported constraint kind %q", c.Kind)
		}
	}
	return &Native{
		W: w, Table: tbl, PricePerHour: prices, Goal: goal,
		Constraints: cons, Iters: iters, flat: flat, ftab: ftab,
	}, nil
}

// NumTypes implements Evaluator.
func (n *Native) NumTypes() int { return len(n.Table.Types) }

// MeanCost returns the deterministic total cost of a configuration from mean
// task times (Eq. 1-2): Σ_i mean_i(config)/3600 × U_config(i), plus any
// deterministic cross-region egress cost. For spot columns U is the mean
// clearing price and revocation reruns are ignored — this is the world-free
// anchor; the sampled expected-cost-under-revocation lives in the kernel.
func (n *Native) MeanCost(config []int) (float64, error) {
	if err := n.checkConfig(config); err != nil {
		return 0, err
	}
	return n.meanCost(config), nil
}

// meanCost is MeanCost over a configuration already checked.
func (n *Native) meanCost(config []int) float64 {
	total := 0.0
	for i, j := range config {
		td := n.ftab.Dist(i, j)
		total += td.Mean()/3600*n.PricePerHour[j] + td.XferCostUSD
	}
	return total
}
