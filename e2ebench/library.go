package main

import (
	"context"
	"fmt"
	"math"
	goruntime "runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deco"
	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/dax"
)

// The library workloads run the engine at decod's default budgets: 100
// Monte-Carlo worlds per state, 4000 states per search, seed 1.
const (
	engineSeed  = 1
	engineIters = 100
	// execRuns seeded simulator executions per plan give the realized cost
	// and deadline-hit figures, outside the timed region.
	execRuns = 25
)

func parseDAX(doc string) (*dag.Workflow, error) { return dax.Parse(strings.NewReader(doc)) }

// libCall is the timed request of the library workloads: read the DAX, then
// plan it through the engine's public entry point.
func libCall(ctx context.Context, eng *deco.Engine, r *request) (*deco.Plan, error) {
	w, err := parseDAX(r.DAX)
	if err != nil {
		return nil, err
	}
	if r.Program != "" {
		return eng.RunProgramContext(ctx, r.Program, w)
	}
	return eng.ScheduleContext(ctx, w, deco.Deadline{Percentile: r.Pct, Seconds: r.Deadline})
}

// newLibEngine is the set-up step of a library caller: NewEngine plus
// Calibrate, the paper's metadata-store step.
func newLibEngine(adaptive bool) (*deco.Engine, float64, error) {
	eng, err := deco.NewEngine(deco.WithSeed(engineSeed), deco.WithIters(engineIters), deco.WithAdaptive(adaptive))
	if err != nil {
		return nil, 0, err
	}
	t := time.Now()
	if _, err := eng.Calibrate(0, 0); err != nil {
		return nil, 0, err
	}
	return eng, since(t), nil
}

// closedLoop runs fn over requests 0..n-1 from `callers` goroutines, each
// taking the next index only after its previous call returned.
func closedLoop(n, callers int, fn func(caller, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// runLibrary runs plan-cold or wlog-spot-adaptive.
func runLibrary(ctx context.Context, cfg config) (*report, error) {
	adaptive := cfg.workload == wlWlogSpot
	rep := &report{}

	// Set-up: one calibrated engine per caller, repeated; the last set is kept.
	var engines []*deco.Engine
	var calibs []float64
	for k := 0; k < cfg.setups; k++ {
		goruntime.GC()
		t := time.Now()
		engines = engines[:0]
		for c := 0; c < cfg.callers; c++ {
			eng, cs, err := newLibEngine(adaptive)
			if err != nil {
				return nil, err
			}
			engines = append(engines, eng)
			calibs = append(calibs, cs)
		}
		rep.setups = append(rep.setups, since(t))
	}

	var err error
	if adaptive {
		rep.requests, err = genWlogSpot(engines[0], cfg.seed, cfg.requests)
	} else {
		rep.requests, err = genPlanCold(engines[0], cfg.seed, cfg.requests)
	}
	if err != nil {
		return nil, fmt.Errorf("generate requests: %w", err)
	}
	n := len(rep.requests)
	plans := make([]*deco.Plan, n)
	errs := make([]error, n)
	lat := make([]float64, n)

	probe := startProbe()
	closedLoop(n, cfg.callers, func(c, i int) {
		t := time.Now()
		plans[i], errs[i] = libCall(ctx, engines[c], &rep.requests[i])
		lat[i] = since(t)
	})
	rep.wall, rep.allocMB, _, _ = probe.stop()
	rep.latencies = lat

	cat := engines[0].Catalog()
	for i := range rep.requests {
		if errs[i] == nil {
			errs[i] = checkPlan(plans[i], &rep.requests[i], cat)
		}
	}

	if cfg.trace {
		// Re-solve every request one layer at a time and demand the engine's
		// plan back bit for bit.
		sums := make([]layerSums, cfg.callers)
		for c := range sums {
			sums[c] = layerSums{}
		}
		probe := startProbe()
		closedLoop(n, cfg.callers, func(c, i int) {
			p, err := steppedSolve(ctx, engines[c], &rep.requests[i], adaptive, sums[c])
			if err == nil && errs[i] == nil {
				err = samePlan(plans[i], p)
			}
			if err != nil && errs[i] == nil {
				errs[i] = fmt.Errorf("traced solve: %w", err)
			}
		})
		_, _, gcs, pause := probe.stop()
		rep.layers = libraryLayers(sums, n, gcs, pause, median(calibs))
	} else {
		rep.quality = executePlans(plans, errs, rep.requests, cfg.seed)
	}
	rep.settle(errs)
	d := &digest{}
	for i, p := range plans {
		if p == nil {
			d.i64(-1)
			continue
		}
		d.i64(int64(i)).str(fmt.Sprint(p.Config)).f64(p.Objective).f64(p.EstimatedCost).str(fmt.Sprint(p.Feasible))
		for _, q := range p.ConsProb {
			d.f64(q)
		}
	}
	rep.planDigest = d.sum()
	return rep, nil
}

// checkPlan is the output check every returned plan passes: it materializes,
// every task has a catalog type, the objective and cost are finite, the plan
// carries the request's constraint, and Feasible agrees with ConsProb at
// each constraint's percentile.
func checkPlan(p *deco.Plan, r *request, cat *cloud.Catalog) error {
	if p == nil || p.Workflow == nil {
		return fmt.Errorf("request %d: no plan", r.Index)
	}
	if len(p.Config) != p.Workflow.Len() {
		return fmt.Errorf("request %d: %d assignments for %d tasks", r.Index, len(p.Config), p.Workflow.Len())
	}
	for i, c := range p.Config {
		if c < 0 || c >= len(p.Types) || cat.TypeIndex(cloud.BaseType(p.Types[c])) < 0 {
			return fmt.Errorf("request %d: task %s has no catalog type (index %d)", r.Index, p.Workflow.Tasks[i].ID, c)
		}
	}
	if !finite(p.Objective) || !finite(p.EstimatedCost) || p.EstimatedCost <= 0 {
		return fmt.Errorf("request %d: objective %v, cost %v", r.Index, p.Objective, p.EstimatedCost)
	}
	if len(p.Constraints) != 1 || len(p.ConsProb) != 1 {
		return fmt.Errorf("request %d: %d constraints, %d probabilities, want 1", r.Index, len(p.Constraints), len(p.ConsProb))
	}
	c := p.Constraints[0]
	want, kind := r.Deadline, "deadline"
	if r.Budget > 0 {
		want, kind = r.Budget, "budget"
	}
	if c.Kind != kind || c.Bound != want || c.Percentile != r.Pct {
		return fmt.Errorf("request %d: plan solved under %s(%v, %v), request asked %s(%v, %v)", r.Index, c.Kind, c.Percentile, c.Bound, kind, r.Pct, want)
	}
	if feasible := p.ConsProb[0] >= c.Percentile; feasible != p.Feasible {
		return fmt.Errorf("request %d: Feasible=%v but P=%v against percentile %v", r.Index, p.Feasible, p.ConsProb[0], c.Percentile)
	}
	if _, err := p.Materialize(); err != nil {
		return fmt.Errorf("request %d: materialize: %w", r.Index, err)
	}
	return nil
}

// samePlan demands bit-identical plans.
func samePlan(want, got *deco.Plan) error {
	if want == nil || got == nil {
		return fmt.Errorf("missing plan")
	}
	same := slices.Equal(want.Config, got.Config) && want.Feasible == got.Feasible &&
		math.Float64bits(want.Objective) == math.Float64bits(got.Objective) &&
		math.Float64bits(want.EstimatedCost) == math.Float64bits(got.EstimatedCost) &&
		slices.EqualFunc(want.ConsProb, got.ConsProb, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
	if !same {
		return fmt.Errorf("plan differs: objective %v vs %v, cost %v vs %v, feasible %v vs %v",
			want.Objective, got.Objective, want.EstimatedCost, got.EstimatedCost, want.Feasible, got.Feasible)
	}
	return nil
}

// executePlans runs each plan execRuns times on the simulator (seeded from
// the workload seed), outside the timed region, for the quality metrics.
func executePlans(plans []*deco.Plan, errs []error, reqs []request, seed int64) quality {
	var q quality
	var costN, dlN int
	var cost, hit float64
	for i, p := range plans {
		if errs[i] != nil {
			continue
		}
		q.planCost += p.EstimatedCost
		if p.Feasible {
			q.feasible++
		}
		q.planned++
		res, err := p.Execute(execRuns, mix(seed, 1_000_000+i))
		if err != nil {
			errs[i] = fmt.Errorf("request %d: execute: %w", i, err)
			continue
		}
		met := 0
		for _, r := range res {
			cost += r.TotalCost
			if r.Makespan <= reqs[i].Deadline {
				met++
			}
		}
		costN += len(res)
		if reqs[i].Deadline > 0 {
			hit += float64(met) / float64(len(res))
			dlN++
		}
	}
	q.realizedCost = cost / float64(max(costN, 1))
	q.deadlineHit = hit / float64(max(dlN, 1))
	return q
}

func libraryLayers(sums []layerSums, n int, gcs uint32, pause, calib float64) map[string]float64 {
	t := layerSums{}
	for _, s := range sums {
		for k, v := range s {
			t[k] += v
		}
	}
	per := func(k string) float64 { return t[k] / float64(n) }
	out := map[string]float64{"calib.run_s": calib}
	for _, k := range []string{"wlog.parse_s", "dax.read_s", "estimate.table_s", "probir.compile_s",
		"opt.compile_s", "opt.search_s", "opt.search_self_s", "opt.states", "opt.delta_fallbacks",
		"opt.cone_plan_hits", "opt.pack_s", "device.busy_s", "device.calls", "device.blocks",
		"device.block_threads", "sample.worlds_run", "sample.worlds_reordered"} {
		out[k] = per(k)
	}
	out["opt.states_per_s"] = ratio(t["opt.states"], t["opt.search_s"])
	out["opt.delta_share"] = ratio(t["opt.delta_evals"], t["opt.delta_evals"]+t["opt.full_evals"])
	out["device.busy_share"] = ratio(t["device.busy_s"], t["opt.search_s"])
	out["sample.worlds_saved_share"] = ratio(t["sample.worlds_saved"], t["sample.worlds_budget"])
	out["go.gc_cycles"] = float64(gcs) / float64(n)
	out["go.gc_pause_s"] = pause / float64(n)
	return out
}
