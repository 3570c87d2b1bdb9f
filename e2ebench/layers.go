package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"deco"
	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/device"
	"deco/internal/estimate"
	"deco/internal/opt"
	"deco/internal/probir"
	"deco/internal/prolog"
	"deco/internal/runtime"
	"deco/internal/sim"
	"deco/internal/wlog"
)

// marketTable rebuilds, from the engine's public accessors, the estimate
// table, per-column prices and market specs the engine solves over: the
// cross-region transfer applied to source tasks, then one spot column per
// offered type. It mirrors the engine's own construction step for step, so
// the traced solve below evaluates exactly the engine's problem.
func marketTable(eng *deco.Engine, w *dag.Workflow, spots []string, xferFrom string) (*estimate.Table, []float64, []probir.MarketSpec, error) {
	prices, err := eng.Prices()
	if err != nil {
		return nil, nil, nil, err
	}
	est := *eng.Estimator()
	if xferFrom != "" {
		src, err := eng.Catalog().Region(xferFrom)
		if err != nil {
			return nil, nil, nil, err
		}
		est.Transfer = &estimate.Transfer{From: xferFrom, To: cloud.USEast,
			PriceGB: src.NetPricePerGB[cloud.USEast], Net: eng.Metadata().CrossRegionNet}
	}
	tbl, err := est.BuildTable(w)
	if err != nil || len(spots) == 0 {
		return tbl, prices, nil, err
	}
	if tbl, err = tbl.ExpandSpot(spots); err != nil {
		return nil, nil, nil, err
	}
	reg, err := eng.Catalog().Region(cloud.USEast)
	if err != nil {
		return nil, nil, nil, err
	}
	full := make([]float64, len(tbl.Types))
	copy(full, prices)
	markets := make([]probir.MarketSpec, len(tbl.Types))
	for j := len(prices); j < len(tbl.Types); j++ {
		sm, err := eng.Catalog().Spot(cloud.USEast, tbl.Types[j])
		if err != nil {
			return nil, nil, nil, err
		}
		markets[j] = probir.MarketSpec{Spot: true, PriceMean: sm.PricePerHourMean, PriceSigma: sm.PriceSigma,
			RevocationsPerHour: sm.RevocationsPerHour, OnDemandUSD: reg.PricePerHour[cloud.BaseType(tbl.Types[j])]}
		full[j] = sm.PricePerHourMean
	}
	return tbl, full, markets, nil
}

// timedDevice wraps the engine's default two-level device and accounts the
// wall time spent inside it, its calls, blocks (states) and block threads
// (state × world pairs).
type timedDevice struct {
	inner                  device.TwoLevel
	busy                   atomic.Int64
	calls, blocks, threads atomic.Int64
}

func (d *timedDevice) Name() string { return d.inner.Name() }
func (d *timedDevice) Blocks() int  { return d.inner.Blocks() }

func (d *timedDevice) Map(n int, fn func(i int)) {
	t := time.Now()
	d.inner.Map(n, fn)
	d.busy.Add(int64(time.Since(t)))
	d.calls.Add(1)
	d.blocks.Add(int64(n))
}

func (d *timedDevice) MapBlocks(nBlocks, threads int, kernel func(block, thread int)) {
	t := time.Now()
	d.inner.MapBlocks(nBlocks, threads, kernel)
	d.busy.Add(int64(time.Since(t)))
	d.calls.Add(1)
	d.blocks.Add(int64(nBlocks))
	d.threads.Add(int64(nBlocks) * int64(threads))
}

// layerSums accumulates per-layer figures over the requests one caller
// traced; callers merge theirs at the end.
type layerSums map[string]float64

func (l layerSums) add(name string, v float64) { l[name] += v }

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// steppedSolve runs the engine's native solve one layer at a time — DAX read,
// WLog parse, table build, evaluator compile, problem compile, search, plan
// packing — timing each, and returns the resulting plan fields for comparison
// with the engine's own plan.
func steppedSolve(ctx context.Context, eng *deco.Engine, r *request, adaptive bool, l layerSums) (*deco.Plan, error) {
	t := time.Now()
	w, err := parseDAX(r.DAX)
	if err != nil {
		return nil, err
	}
	l.add("dax.read_s", since(t))

	goal := probir.GoalCost
	cons := []wlog.Constraint{{Kind: "deadline", Percentile: r.Pct, Bound: r.Deadline}}
	var spots []string
	xfer := ""
	if r.Program != "" {
		t = time.Now()
		prog, err := wlog.Parse(r.Program)
		if err != nil {
			return nil, err
		}
		l.add("wlog.parse_s", since(t))
		pi, err := prolog.IndicatorOf(prog.Goal.Query)
		if err != nil {
			return nil, err
		}
		switch pi.Functor {
		case "totalcost":
		case "maxtime":
			goal = probir.GoalMakespan
		default:
			return nil, fmt.Errorf("unexpected goal %s", pi.Functor)
		}
		cons, spots = prog.Constraints, prog.Spots
		if len(prog.Transfers) == 1 {
			xfer = prog.Transfers[0][0]
		}
	}

	t = time.Now()
	tbl, prices, markets, err := marketTable(eng, w, spots, xfer)
	if err != nil {
		return nil, err
	}
	l.add("estimate.table_s", since(t))

	t = time.Now()
	eval, err := probir.NewNativeMarkets(w, tbl, prices, markets, goal, cons, engineIters)
	if err != nil {
		return nil, err
	}
	space := opt.NewScheduleSpace(w, eval)
	if goal == probir.GoalCost && !eval.HasSpotMarkets() {
		space.CostFn = func(st opt.State) (float64, error) {
			return opt.PackedMeanCost(w, st, tbl, prices, cloud.USEast)
		}
		space.CostTag = "packed:" + cloud.USEast
	}
	l.add("probir.compile_s", since(t))

	dev := &timedDevice{}
	search := opt.DefaultOptions(dev)
	search.Seed = engineSeed
	search.Adaptive = adaptive
	search.Ctx = ctx
	t = time.Now()
	problem, err := opt.Compile(space, search)
	if err != nil {
		return nil, err
	}
	l.add("opt.compile_s", since(t))

	t = time.Now()
	res, err := problem.Search()
	if err != nil {
		return nil, err
	}
	searchS := since(t)
	busy := time.Duration(dev.busy.Load()).Seconds()
	l.add("opt.search_s", searchS)
	l.add("opt.search_self_s", searchS-busy)
	l.add("device.busy_s", busy)
	l.add("device.calls", float64(dev.calls.Load()))
	l.add("device.blocks", float64(dev.blocks.Load()))
	l.add("device.block_threads", float64(dev.threads.Load()))
	l.add("opt.states", float64(res.Evaluated))
	ds := problem.DeltaStats()
	l.add("opt.delta_evals", float64(ds.DeltaEvals))
	l.add("opt.full_evals", float64(ds.FullEvals))
	l.add("opt.delta_fallbacks", float64(ds.Fallbacks))
	l.add("opt.cone_plan_hits", float64(ds.ConePlanHits))
	ss := problem.SampleStats()
	l.add("sample.worlds_run", float64(ss.WorldsRun))
	l.add("sample.worlds_budget", float64(ss.WorldsBudget))
	l.add("sample.worlds_saved", float64(ss.WorldsSaved()))
	l.add("sample.worlds_reordered", float64(ss.WorldsReordered))

	t = time.Now()
	packed, err := opt.PackedMeanCost(w, res.Best, tbl, prices, cloud.USEast)
	if err != nil {
		return nil, err
	}
	l.add("opt.pack_s", since(t))
	return &deco.Plan{Workflow: w, Config: res.Best, Types: tbl.Types, EstimatedCost: packed,
		Objective: res.BestEval.Value, Feasible: res.Feasible, ConsProb: res.BestEval.ConsProb}, nil
}

// timedController wraps the runtime monitor as the simulator's controller
// and accounts the time the simulator spends inside it.
type timedController struct {
	mon                      *runtime.Monitor
	onEvent, revise, replans time.Duration
	events                   int
}

func (c *timedController) OnEvent(ev sim.Event) {
	t := time.Now()
	c.mon.OnEvent(ev)
	c.onEvent += time.Since(t)
	c.events++
}

func (c *timedController) Revise() map[string]sim.Placement {
	t := time.Now()
	upd := c.mon.Revise()
	d := time.Since(t)
	c.revise += d
	if upd != nil {
		c.replans += d
	}
	return upd
}
