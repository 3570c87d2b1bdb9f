package exp

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"deco/internal/cloud"
	"deco/internal/opt"
	"deco/internal/probir"
	"deco/internal/wlog"
)

// AblationResult collects the design-choice ablations DESIGN.md calls out:
// search strategy, Monte-Carlo budget, objective function, multi-start, and
// transformation granularity. Each section isolates one choice on the same
// scheduling problem.
type AblationResult struct {
	Search      []AblationSearchRow
	MCIters     []AblationMCRow
	Objective   []AblationObjectiveRow
	MultiStart  []AblationStartRow
	Granularity []AblationGranularityRow
}

// AblationSearchRow compares search strategies.
type AblationSearchRow struct {
	Strategy  string
	Cost      float64
	Feasible  bool
	Evaluated int
	Elapsed   time.Duration
}

// AblationMCRow measures Monte-Carlo budget vs estimate stability.
type AblationMCRow struct {
	Iters int
	// ProbErr is |P_est - P_ref| of the deadline satisfaction probability
	// against a high-iteration reference.
	ProbErr float64
	// EvalTime is the time of one state evaluation at this budget.
	EvalTime time.Duration
}

// AblationObjectiveRow compares the fractional Eq. 1 objective with the
// packed (hour-billed, transformation-aware) objective by realized cost.
type AblationObjectiveRow struct {
	Objective    string
	PlannedCost  float64
	RealizedCost float64
}

// AblationStartRow compares single-start (all-cheapest, the paper's Figure
// 5b initial state) with homogeneous multi-start.
type AblationStartRow struct {
	Starts   string
	Cost     float64
	Feasible bool
}

// AblationGranularityRow compares per-task and per-executable
// transformation groups.
type AblationGranularityRow struct {
	Granularity string
	Groups      int
	Cost        float64
	Evaluated   int
}

// ablationProblem builds the shared scheduling problem: Montage at the
// middle size, tight deadline, 96%.
func (e *Env) ablationProblem() (space *opt.ScheduleSpace, eval *probir.Native, deadline float64, err error) {
	w, err := e.Montage(e.MontageDegrees()[1])
	if err != nil {
		return nil, nil, 0, err
	}
	tbl, err := e.Est.BuildTable(w)
	if err != nil {
		return nil, nil, 0, err
	}
	deadline, err = e.Deadline(w, "tight")
	if err != nil {
		return nil, nil, 0, err
	}
	cons := []wlog.Constraint{{Kind: "deadline", Percentile: 0.96, Bound: deadline}}
	eval, err = probir.NewNative(w, tbl, e.Prices, probir.GoalCost, cons, e.Cfg.Iters)
	if err != nil {
		return nil, nil, 0, err
	}
	space = opt.NewPackedScheduleSpace(w, eval, tbl, e.Prices, cloud.USEast)
	return space, eval, deadline, nil
}

// Ablation runs all ablations.
func (e *Env) Ablation(out io.Writer) (*AblationResult, error) {
	res := &AblationResult{}
	space, eval, _, err := e.ablationProblem()
	if err != nil {
		return nil, err
	}
	w := space.W
	tbl := eval.Table

	// 1. Search strategy.
	for _, variant := range []struct {
		name  string
		astar bool
		beam  int
	}{
		{"generic", false, 8},
		{"generic-wide", false, 32},
		{"astar", true, 0},
	} {
		so := opt.DefaultOptions(e.Cfg.Device)
		so.MaxStates = e.Cfg.SearchBudget
		so.Seed = e.Cfg.Seed
		so.AStar = variant.astar
		if variant.beam > 0 {
			so.BeamWidth = variant.beam
		}
		start := time.Now()
		r, err := opt.Search(space, so)
		if err != nil {
			return nil, err
		}
		res.Search = append(res.Search, AblationSearchRow{
			Strategy: variant.name, Cost: r.BestEval.Value, Feasible: r.Feasible,
			Evaluated: r.Evaluated, Elapsed: time.Since(start),
		})
	}

	// 2. Monte-Carlo budget: estimate stability of the deadline probability
	// at the distribution's median — the point where the estimator's
	// variance is maximal (P(X<=mean) ≈ 0.5) and the feasibility decision is
	// hardest.
	config := make(opt.State, w.Len()) // all-cheapest
	msEval, err := probir.NewNative(w, tbl, e.Prices, probir.GoalMakespan, nil, 400)
	if err != nil {
		return nil, err
	}
	msEv, err := msEval.Evaluate(config, rand.New(rand.NewSource(e.Cfg.Seed+70)))
	if err != nil {
		return nil, err
	}
	probe := []wlog.Constraint{{Kind: "deadline", Percentile: 0.96, Bound: msEv.Value}}
	ref, err := probir.NewNative(w, tbl, e.Prices, probir.GoalCost, probe, 8000)
	if err != nil {
		return nil, err
	}
	refEv, err := ref.Evaluate(config, rand.New(rand.NewSource(e.Cfg.Seed+71)))
	if err != nil {
		return nil, err
	}
	for _, iters := range []int{10, 50, 100, 400} {
		n, err := probir.NewNative(w, tbl, e.Prices, probir.GoalCost, probe, iters)
		if err != nil {
			return nil, err
		}
		// Average the evaluation time over repetitions: a single flat-core
		// evaluation is microseconds, well inside timer noise. Each
		// repetition draws a fresh CRN base so the per-world sampling work
		// is actually redone.
		const reps = 16
		rng := rand.New(rand.NewSource(e.Cfg.Seed + 72))
		start := time.Now()
		ev, err := n.Evaluate(config, rng)
		if err != nil {
			return nil, err
		}
		for r := 1; r < reps; r++ {
			if _, err := n.Evaluate(config, rng); err != nil {
				return nil, err
			}
		}
		res.MCIters = append(res.MCIters, AblationMCRow{
			Iters:    iters,
			ProbErr:  math.Abs(ev.ConsProb[0] - refEv.ConsProb[0]),
			EvalTime: time.Since(start) / reps,
		})
	}

	// 3. Objective: fractional vs packed, judged by realized cost.
	for _, variant := range []struct {
		name   string
		packed bool
	}{{"fractional-eq1", false}, {"packed-hours", true}} {
		sp := opt.NewScheduleSpace(w, eval)
		if variant.packed {
			sp.CostFn = space.CostFn
		}
		so := opt.DefaultOptions(e.Cfg.Device)
		so.MaxStates = e.Cfg.SearchBudget
		so.Seed = e.Cfg.Seed + 73
		r, err := opt.Search(sp, so)
		if err != nil {
			return nil, err
		}
		plan, err := opt.Consolidate(w, r.Best, tbl, cloud.USEast)
		if err != nil {
			return nil, err
		}
		realized, _, _, err := e.runPlan(w, plan, e.Cfg.Seed+74)
		if err != nil {
			return nil, err
		}
		res.Objective = append(res.Objective, AblationObjectiveRow{
			Objective: variant.name, PlannedCost: r.BestEval.Value, RealizedCost: realized,
		})
	}

	// 4. Multi-start vs the single all-cheapest start.
	for _, variant := range []struct {
		name   string
		single bool
	}{{"single-start", true}, {"multi-start", false}} {
		sp := opt.NewPackedScheduleSpace(w, eval, tbl, e.Prices, cloud.USEast)
		if variant.single {
			sp.Init = make(opt.State, w.Len())
		}
		so := opt.DefaultOptions(e.Cfg.Device)
		so.MaxStates = e.Cfg.SearchBudget
		so.Seed = e.Cfg.Seed + 75
		r, err := opt.Search(sp, so)
		if err != nil {
			return nil, err
		}
		res.MultiStart = append(res.MultiStart, AblationStartRow{
			Starts: variant.name, Cost: r.BestEval.Value, Feasible: r.Feasible,
		})
	}

	// 5. Transformation granularity.
	for _, variant := range []struct {
		name   string
		groups [][]int32
	}{
		{"per-task", opt.GroupPerTask(w)},
		{"per-executable", opt.GroupByExecutable(w)},
	} {
		sp := opt.NewPackedScheduleSpace(w, eval, tbl, e.Prices, cloud.USEast)
		sp.Groups = variant.groups
		so := opt.DefaultOptions(e.Cfg.Device)
		so.MaxStates = e.Cfg.SearchBudget
		so.Seed = e.Cfg.Seed + 76
		r, err := opt.Search(sp, so)
		if err != nil {
			return nil, err
		}
		res.Granularity = append(res.Granularity, AblationGranularityRow{
			Granularity: variant.name, Groups: len(variant.groups),
			Cost: r.BestEval.Value, Evaluated: r.Evaluated,
		})
	}

	if out != nil {
		fmt.Fprintln(out, "Ablation 1: search strategy (same problem, same budget)")
		fmt.Fprintf(out, "%-14s %-10s %-9s %-9s %s\n", "strategy", "cost $", "feasible", "states", "elapsed")
		for _, r := range res.Search {
			fmt.Fprintf(out, "%-14s %-10.4f %-9v %-9d %s\n", r.Strategy, r.Cost, r.Feasible, r.Evaluated, r.Elapsed.Round(time.Millisecond))
		}
		fmt.Fprintln(out, "\nAblation 2: Monte-Carlo budget vs estimate stability")
		fmt.Fprintf(out, "%-8s %-12s %s\n", "iters", "|P-Pref|", "eval time")
		for _, r := range res.MCIters {
			fmt.Fprintf(out, "%-8d %-12.4f %s\n", r.Iters, r.ProbErr, r.EvalTime.Round(time.Microsecond))
		}
		fmt.Fprintln(out, "\nAblation 3: objective function (judged by realized cost)")
		fmt.Fprintf(out, "%-16s %-12s %s\n", "objective", "planned $", "realized $")
		for _, r := range res.Objective {
			fmt.Fprintf(out, "%-16s %-12.4f %.4f\n", r.Objective, r.PlannedCost, r.RealizedCost)
		}
		fmt.Fprintln(out, "\nAblation 4: start states")
		fmt.Fprintf(out, "%-14s %-10s %s\n", "starts", "cost $", "feasible")
		for _, r := range res.MultiStart {
			fmt.Fprintf(out, "%-14s %-10.4f %v\n", r.Starts, r.Cost, r.Feasible)
		}
		fmt.Fprintln(out, "\nAblation 5: transformation granularity")
		fmt.Fprintf(out, "%-16s %-8s %-10s %s\n", "granularity", "groups", "cost $", "states")
		for _, r := range res.Granularity {
			fmt.Fprintf(out, "%-16s %-8d %-10.4f %d\n", r.Granularity, r.Groups, r.Cost, r.Evaluated)
		}
	}
	return res, nil
}
