package ensemble

import (
	"context"
	"math/rand"

	"deco/internal/dag"
	"deco/internal/estimate"
	"deco/internal/opt"
	"deco/internal/probir"
	"deco/internal/wlog"
)

// DecoPlanner plans one workflow with Deco's transformation-based search:
// minimize the Eq. 1 cost under the workflow's probabilistic deadline. The
// resulting fractional (partial-hour-sharing) cost is what the Merge and
// Co-Scheduling transformations make achievable, and is the reason Deco
// fits more workflows into an ensemble budget than SPSS (§6.3.2).
func DecoPlanner(tblOf func(w *dag.Workflow) (*estimate.Table, error), prices []float64, iters int, search opt.Options) Planner {
	return func(w *dag.Workflow, deadlineSec, percentile float64) (*PlannedWorkflow, error) {
		tbl, err := tblOf(w)
		if err != nil {
			return nil, err
		}
		pct := percentile
		if pct == 0 {
			pct = 0.96
		}
		cons := []wlog.Constraint{{Kind: "deadline", Percentile: pct, Bound: deadlineSec}}
		eval, err := probir.NewNative(w, tbl, prices, probir.GoalCost, cons, iters)
		if err != nil {
			return nil, err
		}
		space := opt.NewPackedScheduleSpace(w, eval, tbl, prices, "us-east-1")
		res, err := opt.Search(space, search)
		if err != nil {
			return nil, err
		}
		cost := res.BestEval.Value
		// Re-evaluate feasibility over independent worlds for an honest
		// admission decision.
		ctx := search.Ctx
		if ctx == nil {
			ctx = context.Background()
		}
		ev, err := probir.Evaluate(ctx, eval, res.Best, rand.New(rand.NewSource(search.Seed+104729)).Int63())
		if err != nil {
			return nil, err
		}
		return &PlannedWorkflow{Config: res.Best, Cost: cost, Feasible: res.Feasible && ev.Feasible}, nil
	}
}
