// Command benchsolver measures batch state evaluation — the solver's hot
// loop — on the live paths of all three paper use cases, plus the §6.3
// device comparison, and writes the numbers to BENCH_solver.json at the
// repository root, stamped with the host they ran on.
//
// Scheduling row: one frontier expansion on the flat common-random-number
// core — per-state CRN world kernels over one shared compiled program.
//
// Ensemble row: admission-search frontier expansions over one planned space.
// The compiled problem binds the search-level eval cache once, so repeated
// expansions — a decod worker re-serving the job, solver-config comparisons
// over the same plans — are answered from entries earlier searches warmed.
//
// Follow-the-cost row: one runtime decision point. The compiled path
// snapshots the runtime once per decision point and scores placements as
// pure arithmetic over dense rows. Decision points are content-distinct in
// production, so this row runs the cold compiled path (no cache) and
// includes the per-decision snapshot in the measurement.
//
// These three rows report allocations and bytes per evaluated state, which
// CI holds under fixed ceilings. The other rows compare two live paths on
// the same states (adaptive vs fixed, ordered adaptive vs fixed, market vs
// on-demand), and device_scaling times the
// same searches on the sequential, state-parallel and two-level devices
// (exp.Env.Speedup).
//
// Usage:
//
//	benchsolver [-tasks 100] [-worlds 100] [-out BENCH_solver.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"testing"
	"time"

	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/device"
	"deco/internal/ensemble"
	"deco/internal/estimate"
	"deco/internal/exp"
	"deco/internal/ftc"
	"deco/internal/hoststamp"
	"deco/internal/opt"
	"deco/internal/probir"
	"deco/internal/wfgen"
	"deco/internal/wlog"
)

// problem is the shared benchmark instance.
type problem struct {
	w        *dag.Workflow
	tbl      *estimate.Table
	prices   []float64
	deadline float64
	worlds   int
	configs  [][]int
}

func buildProblem(tasks, worlds int) (*problem, error) {
	w, err := wfgen.BySize(wfgen.AppMontage, tasks, rand.New(rand.NewSource(3)))
	if err != nil {
		return nil, err
	}
	cat := cloud.DefaultCatalog()
	md, err := cloud.MetadataFromTruth(cat, 15, 5000, rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, err
	}
	tbl, err := estimate.New(cat, md).BuildTable(w)
	if err != nil {
		return nil, err
	}
	us, _ := cat.Region(cloud.USEast)
	prices := make([]float64, len(tbl.Types))
	for j, name := range tbl.Types {
		prices[j] = us.PricePerHour[name]
	}
	// Deadline at the all-cheapest mean makespan: the feasibility boundary
	// the search actually probes.
	means, err := tbl.MeanDurations(uniformConfig(w, tbl, 0))
	if err != nil {
		return nil, err
	}
	deadline, _, err := w.Makespan(means)
	if err != nil {
		return nil, err
	}
	// The batch: the all-cheapest state plus one Δ=1 promotion per task
	// (capped), i.e. one solver frontier expansion.
	configs := [][]int{make([]int, w.Len())}
	for i := 0; i < w.Len() && len(configs) <= 16; i++ {
		c := make([]int, w.Len())
		c[i] = 1
		configs = append(configs, c)
	}
	return &problem{w: w, tbl: tbl, prices: prices, deadline: deadline, worlds: worlds, configs: configs}, nil
}

func uniformConfig(w *dag.Workflow, tbl *estimate.Table, j int) map[string]int {
	m := make(map[string]int, w.Len())
	for _, t := range w.Tasks {
		m[t.ID] = j
	}
	return m
}

// boundaryDeadline binary-searches a deadline bound whose all-cheapest CRN
// satisfaction probability lands in [lo, hi] — the tail regime, where states
// are infeasible at a high percentile but violate in only a small fraction of
// worlds, so a fixed world order spreads the violations thin.
func boundaryDeadline(p *problem, worlds int, pct, lo, hi float64) (float64, error) {
	probOf := func(bound float64) (float64, error) {
		cons := []wlog.Constraint{{Kind: "deadline", Percentile: pct, Bound: bound}}
		n, err := probir.NewNative(p.w, p.tbl, p.prices, probir.GoalCost, cons, worlds)
		if err != nil {
			return 0, err
		}
		k, err := n.CRNKernel(context.Background(), make([]int, p.w.Len()), 1)
		if err != nil {
			return 0, err
		}
		ev, err := probir.RunKernel(k)
		if err != nil {
			return 0, err
		}
		return ev.ConsProb[0], nil
	}
	a, b := p.deadline/2, p.deadline*4
	for i := 0; i < 64; i++ {
		mid := (a + b) / 2
		pr, err := probOf(mid)
		if err != nil {
			return 0, err
		}
		switch {
		case pr < lo:
			a = mid
		case pr > hi:
			b = mid
		default:
			return mid, nil
		}
	}
	return 0, fmt.Errorf("no deadline with all-cheapest P(met) in [%g, %g]", lo, hi)
}

// batchFlat evaluates the batch on the production path: per-state CRN world
// kernels over one shared compiled program, folded canonically.
func batchFlat(n *probir.Native, p *problem, base int64) error {
	for _, cfg := range p.configs {
		k, err := n.CRNKernel(context.Background(), cfg, base)
		if err != nil {
			return err
		}
		if _, err := probir.RunKernel(k); err != nil {
			return err
		}
	}
	return nil
}

// expandBatch collects up to max distinct states breadth-first from the
// space's first start state — the states a beam search's first expansions
// actually visit.
func expandBatch(sp opt.Space, max int) []opt.State {
	seen := map[string]bool{}
	frontier := []opt.State{sp.Starts()[0]}
	seen[frontier[0].Key()] = true
	batch := []opt.State{frontier[0]}
	for len(batch) < max && len(frontier) > 0 {
		var next []opt.State
		for _, p := range frontier {
			for _, tr := range sp.Neighbors(p) {
				c := tr.Apply(nil, p)
				k := c.Key()
				if seen[k] {
					continue
				}
				seen[k] = true
				batch = append(batch, c)
				next = append(next, c)
				if len(batch) >= max {
					return batch
				}
			}
		}
		frontier = next
	}
	return batch
}

// buildEnsembleBench assembles an admission-search instance: n prioritized
// workflows with planned costs and a budget that roughly half the ensemble
// fits into, plus the batch of admission states the search's first beam
// rounds expand.
func buildEnsembleBench(n int) (*ensemble.Space, []opt.State) {
	rng := rand.New(rand.NewSource(7))
	e := &ensemble.Ensemble{Kind: ensemble.Constant}
	sp := &ensemble.Space{E: e}
	total := 0.0
	for i := 0; i < n; i++ {
		e.Workflows = append(e.Workflows, &dag.Workflow{Name: fmt.Sprintf("wf-%02d", i), Priority: i})
		cost := 2 + 6*rng.Float64()
		total += cost
		sp.Plans = append(sp.Plans, &ensemble.PlannedWorkflow{Cost: cost, Feasible: true})
	}
	sp.Budget = total / 2
	return sp, expandBatch(sp, 48)
}

// stayOpt is a placement optimizer that never migrates; it only advances the
// benchmark runtime to a mid-execution decision point.
type stayOpt struct{}

func (stayOpt) Name() string { return "stay" }

func (stayOpt) Decide(rt *ftc.Runtime) ([]int, []float64, error) {
	regions := make([]int, len(rt.Jobs))
	for i, j := range rt.Jobs {
		regions[i] = j.Region
	}
	return regions, nil, nil
}

// buildFTCBench builds a follow-the-cost runtime of nJobs funnel workflows,
// executes it to a mid-run decision point, and collects the placement states
// a per-decision search expands there.
func buildFTCBench(nJobs, steps int) (*ftc.Runtime, []opt.State, error) {
	cat := cloud.DefaultCatalog()
	md, err := cloud.MetadataFromTruth(cat, 15, 5000, rand.New(rand.NewSource(11)))
	if err != nil {
		return nil, nil, err
	}
	est := estimate.New(cat, md)
	var jobs []*ftc.Job
	for i := 0; i < nJobs; i++ {
		w, err := wfgen.Funnel(90, 6000, 20, rand.New(rand.NewSource(100+int64(i))))
		if err != nil {
			return nil, nil, err
		}
		tbl, err := est.BuildTable(w)
		if err != nil {
			return nil, nil, err
		}
		region := i % len(cat.Regions)
		probe, err := ftc.NewJob(w, tbl, region, 1, 0)
		if err != nil {
			return nil, nil, err
		}
		rem, err := probe.RemainingMeanSec()
		if err != nil {
			return nil, nil, err
		}
		j, err := ftc.NewJob(w, tbl, region, 1, rem*1.3)
		if err != nil {
			return nil, nil, err
		}
		jobs = append(jobs, j)
	}
	rt := &ftc.Runtime{Cat: cat, Jobs: jobs, Rng: rand.New(rand.NewSource(5)), Opt: stayOpt{}}
	for s := 0; s < steps; s++ {
		if _, err := rt.Step(); err != nil {
			return nil, nil, err
		}
	}
	return rt, expandBatch(ftc.NewSpace(rt), 96), nil
}

// row is one measured path in the output document.
type row struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// statesPerSec converts a measured batch of states to evaluated states per
// second.
func (r row) statesPerSec(states int) float64 {
	if r.NsPerOp <= 0 {
		return 0
	}
	return float64(states) / (float64(r.NsPerOp) / 1e9)
}

// ratio is a/b, or 0 when b is not positive.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// batchRow is one live evaluation path measured over a fixed batch of
// states, with its allocations and bytes per evaluated state: the figures
// CI holds under absolute ceilings.
type batchRow struct {
	Benchmark string `json:"benchmark"`
	States    int    `json:"states"`
	row
	AllocsPerState float64 `json:"allocs_per_state"`
	BytesPerState  float64 `json:"bytes_per_state"`
}

func newBatchRow(benchmark string, states int, r row) *batchRow {
	return &batchRow{
		Benchmark: benchmark, States: states, row: r,
		AllocsPerState: float64(r.AllocsPerOp) / float64(states),
		BytesPerState:  float64(r.BytesPerOp) / float64(states),
	}
}

// adaptiveRow compares fixed-precision against adaptive-precision
// Monte-Carlo inference (a state stops once it is proven infeasible) on two
// levels. Plan quality: complete solver searches, fixed and adaptive, must
// land on the same objective value and feasibility — benchsolver aborts
// otherwise, so the row only ever reports a speedup at unchanged quality.
// Throughput: the
// measured operation is the solver's hot loop, one warm frontier expansion
// over the deadline-probing batch every search from the paper's all-cheapest
// start evaluates first, where the exact worst-case stopping rule decides
// sharply infeasible children within the first world chunks.
type adaptiveRow struct {
	Benchmark         string  `json:"benchmark"`
	FixedObjective    float64 `json:"fixed_objective"`
	AdaptiveObjective float64 `json:"adaptive_objective"`
	Feasible          bool    `json:"feasible"`
	// SearchStates / SearchWorlds* describe the adaptive full search backing
	// the plan-quality assertion.
	SearchStates      int   `json:"search_states"`
	SearchWorldsRun   int64 `json:"search_worlds_run"`
	SearchWorldsSaved int64 `json:"search_worlds_saved"`
	// BatchStates is the size of the measured frontier-expansion batch.
	BatchStates          int     `json:"batch_states"`
	Fixed                row     `json:"fixed_expansion"`
	Adaptive             row     `json:"adaptive_expansion"`
	FixedStatesPerSec    float64 `json:"fixed_states_per_sec"`
	AdaptiveStatesPerSec float64 `json:"adaptive_states_per_sec"`
	SpeedupStatesPerSec  float64 `json:"speedup_states_per_sec"`
}

// orderedRow measures the decisive-world-first adaptive path on a
// tail-regime instance: a 0.96-percentile deadline calibrated so the probed
// states violate in only a small fraction of worlds. Every Program stores
// its worlds most-severe first, so the exact worst-case stopping rule meets
// the failures it needs within the first chunks. The baseline is the live
// fixed-precision path over the same states. SearchWorldsRun is deterministic, so CI also gates it: losing the order
// shows up as more worlds whatever the host's noise. Plan quality is
// asserted the same way as adaptiveRow: complete fixed and ordered searches
// must land on the same objective value and feasibility.
type orderedRow struct {
	Benchmark        string  `json:"benchmark"`
	FixedObjective   float64 `json:"fixed_objective"`
	OrderedObjective float64 `json:"ordered_objective"`
	Feasible         bool    `json:"feasible"`
	// SearchStates / SearchWorldsRun describe the ordered adaptive full
	// search backing the plan-quality assertion.
	SearchStates    int   `json:"search_states"`
	SearchWorldsRun int64 `json:"search_worlds_run"`
	// BatchStates is the size of the measured frontier-expansion batch;
	// Baseline names the path Base ran.
	BatchStates          int     `json:"batch_states"`
	Baseline             string  `json:"baseline"`
	Base                 row     `json:"baseline_expansion"`
	Ordered              row     `json:"adaptive_ordered_expansion"`
	BaselineStatesPerSec float64 `json:"baseline_states_per_sec"`
	OrderedStatesPerSec  float64 `json:"ordered_states_per_sec"`
	SpeedupStatesPerSec  float64 `json:"speedup_states_per_sec"`
}

// spotRow compares complete cost-minimizing searches over the same Montage
// instance with and without the spot-market layer: the on-demand search sees
// only the catalog's fixed hourly prices, the market search sees one
// preemptible column per type priced by the clearing-price process with
// Poisson revocation rework folded into every world. Three contracts back
// the row: both searches must converge to a feasible plan, the market
// objective (expected cost under revocation) must land strictly below the
// on-demand objective, and the market search must produce a bit-identical
// objective on the sequential and two-level devices — the CRN
// determinism contract extended over the spot virtual columns. The
// throughput halves measure one warm frontier expansion each — the
// on-demand batch from the all-cheapest state, the market batch from the
// all-cheapest-spot state — so the per-state overhead of revocation
// sampling is visible rather than averaged away.
type spotRow struct {
	Benchmark         string  `json:"benchmark"`
	OnDemandObjective float64 `json:"ondemand_objective"`
	SpotObjective     float64 `json:"spot_objective"`
	// SpotObjectiveParallel is the market search's objective on the
	// two-level device; CI asserts bit-equality with SpotObjective.
	SpotObjectiveParallel float64 `json:"spot_objective_parallel"`
	Feasible              bool    `json:"feasible"`
	// SavingsFrac is 1 - spot/on-demand: the fraction of the bill the market
	// plan saves net of priced-in revocation rework.
	SavingsFrac float64 `json:"savings_frac"`
	// SpotAssignments counts tasks the market plan places on spot columns.
	SpotAssignments      int     `json:"spot_assignments"`
	OnDemandBatchStates  int     `json:"ondemand_batch_states"`
	MarketBatchStates    int     `json:"market_batch_states"`
	OnDemand             row     `json:"ondemand_expansion"`
	Market               row     `json:"market_expansion"`
	OnDemandStatesPerSec float64 `json:"ondemand_states_per_sec"`
	MarketStatesPerSec   float64 `json:"market_states_per_sec"`
	// MarketOverheadRatio is market ns-per-state over on-demand ns-per-state:
	// what one evaluated state costs extra once every world also samples
	// clearing prices and revocation times.
	MarketOverheadRatio float64 `json:"market_overhead_ratio"`
}

// scalingRow is the §6.3 device comparison of exp.Env.Speedup at quick
// scale: the same Montage searches on the sequential, state-parallel and
// two-level devices, each device's time the median of exp.SpeedupRounds
// interleaved rounds, every device landing on the same plan.
type scalingRow struct {
	Benchmark string         `json:"benchmark"`
	Blocks    int            `json:"blocks"`
	Rounds    int            `json:"rounds"`
	Rows      []scalingEntry `json:"rows"`
}

type scalingEntry struct {
	Workload        string  `json:"workload"`
	Tasks           int     `json:"tasks"`
	Beam            int     `json:"beam"`
	SequentialMs    float64 `json:"sequential_ms"`
	ParallelMs      float64 `json:"parallel_ms"`
	TwoLevelMs      float64 `json:"twolevel_ms"`
	Speedup         float64 `json:"speedup"`
	TwoLevelSpeedup float64 `json:"twolevel_speedup"`
}

type report struct {
	Host   hoststamp.Host `json:"host"`
	Tasks  int            `json:"tasks"`
	Worlds int            `json:"worlds"`
	// Flat is one frontier expansion on the flat CRN core.
	Flat *batchRow `json:"flat"`
	// SchedulingAdaptive compares full solver searches — fixed-precision
	// against adaptive-precision — over the same space; see adaptiveRow.
	SchedulingAdaptive *adaptiveRow `json:"scheduling_adaptive"`
	// SchedulingTail compares the decisive-world-first adaptive path with
	// fixed precision on a tail-regime deadline (states violate in a small
	// fraction of worlds); see orderedRow.
	SchedulingTail *orderedRow `json:"scheduling_tail"`
	// SchedulingGroups runs the same comparison on the per-executable
	// grouping, where one promotion moves a whole executable's tasks.
	SchedulingGroups *orderedRow `json:"scheduling_groups"`
	// SchedulingSpot compares market-aware search (spot columns, sampled
	// clearing prices, revocation rework) against the on-demand-only search
	// on the same instance; see spotRow.
	SchedulingSpot *spotRow    `json:"scheduling_spot"`
	Ensemble       *batchRow   `json:"ensemble"`
	FTC            *batchRow   `json:"ftc"`
	DeviceScaling  *scalingRow `json:"device_scaling"`
}

func measure(f func(base int64) error) row {
	var inner error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A fresh base per iteration so every run redoes the sampling
			// work, not just the DP over previously filled rows.
			if err := f(int64(i) + 1); err != nil {
				inner = err
				b.FailNow()
			}
		}
	})
	if inner != nil {
		log.Fatal(inner)
	}
	return row{
		NsPerOp:     res.NsPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
}

// measureExpansion compiles sp under o, warms one frontier expansion of
// parent (nil: the problem's first start) — rows filled, the steady state of
// a running search — and measures that expansion. It returns the row and the
// batch size, parent plus children.
func measureExpansion(sp opt.Space, o opt.Options, parent opt.State) (row, int) {
	prob := must(opt.Compile(sp, o))
	if parent == nil {
		parent = prob.Starts()[0]
	}
	_, kids, _, err := prob.EvaluateExpansion(parent)
	if err != nil {
		log.Fatal(err)
	}
	return measure(func(int64) error {
		_, _, _, err := prob.EvaluateExpansion(parent)
		return err
	}), 1 + len(kids)
}

// search compiles sp under o and runs the search to completion.
func search(sp opt.Space, o opt.Options) (*opt.Result, *opt.Problem) {
	prob := must(opt.Compile(sp, o))
	return must(prob.Search()), prob
}

// sameQuality aborts unless two complete searches land on the same
// objective value and feasibility.
func sameQuality(what string, a, b *opt.Result) {
	if a.BestEval.Value != b.BestEval.Value || a.Feasible != b.Feasible {
		log.Fatalf("%s diverged: %v (feasible %v) vs %v (feasible %v)",
			what, a.BestEval.Value, a.Feasible, b.BestEval.Value, b.Feasible)
	}
}

// must aborts the run on a setup error.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

// orderedPair builds the tail-regime comparison of an orderedRow: a
// 0.96-percentile deadline at which the all-cheapest start meets it in a
// share of worlds within [lo, hi], complete fixed and ordered-adaptive
// searches that must agree on plan quality, and one warm expansion of the
// all-cheapest start at fixed precision and on the ordered adaptive path.
func orderedPair(p *problem, worlds int, lo, hi float64, groups [][]int32, fixedOpts opt.Options) *orderedRow {
	bound := must(boundaryDeadline(p, worlds, 0.96, lo, hi))
	cons := []wlog.Constraint{{Kind: "deadline", Percentile: 0.96, Bound: bound}}
	sp := opt.NewScheduleSpace(p.w, must(probir.NewNative(p.w, p.tbl, p.prices, probir.GoalCost, cons, worlds)))
	sp.Groups = groups
	sp.Init = make(opt.State, p.w.Len())
	ordOpts := fixedOpts
	ordOpts.Adaptive = true
	fixedRes, _ := search(sp, fixedOpts)
	ordRes, ordProb := search(sp, ordOpts)
	stats := ordProb.SampleStats()
	if !stats.Adaptive || stats.WorldsRun == 0 {
		log.Fatalf("ordered search never engaged the adaptive path: %+v", stats)
	}
	sameQuality("ordered plan quality", fixedRes, ordRes)
	o := &orderedRow{
		FixedObjective:   fixedRes.BestEval.Value,
		OrderedObjective: ordRes.BestEval.Value,
		Feasible:         ordRes.Feasible,
		SearchStates:     ordRes.Evaluated,
		SearchWorldsRun:  stats.WorldsRun,
		Baseline:         "fixed precision",
	}
	o.Base, _ = measureExpansion(sp, fixedOpts, nil)
	o.Ordered, o.BatchStates = measureExpansion(sp, ordOpts, nil)
	o.BaselineStatesPerSec = o.Base.statesPerSec(o.BatchStates)
	o.OrderedStatesPerSec = o.Ordered.statesPerSec(o.BatchStates)
	o.SpeedupStatesPerSec = ratio(o.OrderedStatesPerSec, o.BaselineStatesPerSec)
	return o
}

// spotPair builds the spot-market row. The instance gains one preemptible
// column per on-demand type, priced from the default catalog's us-east
// market models, under a deadline loose enough (2x the all-cheapest mean
// makespan at the 0.9 percentile) that cost, not feasibility, decides the
// plan. The on-demand search can only pick fixed-price columns; the market
// search may also bid on spot, paying the clearing-price process and the
// expected revocation rework in every world. Multi-start is left on — the
// homogeneous all-spot starts are how the production engine reaches the
// market shelf — and the market search runs twice, on the sequential and
// two-level devices, to pin the CRN bit-equality contract over the
// spot columns.
func spotPair(p *problem) *spotRow {
	spotCat := cloud.DefaultCatalog()
	spotTbl := must(p.tbl.ExpandSpot(p.tbl.Types))
	usReg := must(spotCat.Region(cloud.USEast))
	marketPrices := make([]float64, len(spotTbl.Types))
	copy(marketPrices, p.prices)
	markets := make([]probir.MarketSpec, len(spotTbl.Types))
	for j := len(p.prices); j < len(spotTbl.Types); j++ {
		sm := must(spotCat.Spot(cloud.USEast, spotTbl.Types[j]))
		od, ok := usReg.PricePerHour[cloud.BaseType(spotTbl.Types[j])]
		if !ok {
			log.Fatalf("us-east does not price %s", cloud.BaseType(spotTbl.Types[j]))
		}
		markets[j] = probir.MarketSpec{
			Spot:               true,
			PriceMean:          sm.PricePerHourMean,
			PriceSigma:         sm.PriceSigma,
			RevocationsPerHour: sm.RevocationsPerHour,
			OnDemandUSD:        od,
		}
		marketPrices[j] = sm.PricePerHourMean
	}
	spotCons := []wlog.Constraint{{Kind: "deadline", Percentile: 0.9, Bound: p.deadline * 2}}
	odSpace := opt.NewScheduleSpace(p.w, must(probir.NewNative(p.w, p.tbl, p.prices, probir.GoalCost, spotCons, p.worlds)))
	mkSpace := opt.NewScheduleSpace(p.w, must(probir.NewNativeMarkets(p.w, spotTbl, marketPrices, markets, probir.GoalCost, spotCons, p.worlds)))
	spotOpts := opt.Options{
		Device: device.Sequential{}, Seed: 23,
		MaxStates: 500, BeamWidth: 6, Patience: 20,
		Worlds: p.worlds, MinWorlds: 8,
	}
	spotParOpts := spotOpts
	spotParOpts.Device = device.TwoLevel{}
	odRes, _ := search(odSpace, spotOpts)
	mkRes, _ := search(mkSpace, spotOpts)
	mkResPar, _ := search(mkSpace, spotParOpts)
	if !odRes.Feasible || !mkRes.Feasible {
		log.Fatalf("spot searches infeasible: ondemand %v, market %v", odRes.Feasible, mkRes.Feasible)
	}
	sameQuality("market objective across devices", mkRes, mkResPar)
	if mkRes.BestEval.Value >= odRes.BestEval.Value {
		log.Fatalf("market plan not cheaper: spot %v vs on-demand %v", mkRes.BestEval.Value, odRes.BestEval.Value)
	}
	spotAssigned := 0
	for _, j := range mkRes.Best {
		if j >= len(p.prices) {
			spotAssigned++
		}
	}
	if spotAssigned == 0 {
		log.Fatal("market plan cheaper than on-demand but placed nothing on spot")
	}
	spot := &spotRow{
		Benchmark:             "complete cost search, loose deadline; on-demand-only columns vs spot markets (clearing-price process + revocation rework), feasibility and spot < on-demand asserted, market objective bit-equal across sequential and two-level devices; expansion halves measured at the all-cheapest and all-cheapest-spot states",
		OnDemandObjective:     odRes.BestEval.Value,
		SpotObjective:         mkRes.BestEval.Value,
		SpotObjectiveParallel: mkResPar.BestEval.Value,
		Feasible:              mkRes.Feasible,
		SavingsFrac:           1 - mkRes.BestEval.Value/odRes.BestEval.Value,
		SpotAssignments:       spotAssigned,
	}
	// The measured expansions: on-demand from the all-cheapest state, market
	// from the all-cheapest-spot state, so the market half runs the spot
	// sampling (price draw + revocation draw per task per world) for the
	// whole batch rather than for a lone promoted child.
	cheapest := 0
	for j := 1; j < len(p.prices); j++ {
		if p.prices[j] < p.prices[cheapest] {
			cheapest = j
		}
	}
	odParent := make(opt.State, p.w.Len())
	mkParent := make(opt.State, p.w.Len())
	for i := range odParent {
		odParent[i] = cheapest
		mkParent[i] = len(p.prices) + cheapest
	}
	spot.OnDemand, spot.OnDemandBatchStates = measureExpansion(odSpace, spotOpts, odParent)
	spot.Market, spot.MarketBatchStates = measureExpansion(mkSpace, spotOpts, mkParent)
	spot.OnDemandStatesPerSec = spot.OnDemand.statesPerSec(spot.OnDemandBatchStates)
	spot.MarketStatesPerSec = spot.Market.statesPerSec(spot.MarketBatchStates)
	spot.MarketOverheadRatio = ratio(spot.OnDemandStatesPerSec, spot.MarketStatesPerSec)
	return spot
}

// deviceScaling runs exp.Env.Speedup at quick scale and aborts unless every
// device lands on the same plan as the sequential one.
func deviceScaling() *scalingRow {
	env := must(exp.NewEnv(exp.QuickConfig()))
	res := must(env.Speedup(nil, exp.SpeedupRounds))
	sr := &scalingRow{
		Benchmark: "complete Montage scheduling searches (quick scale: default beam, and beam 2 where batches are narrower than the machine) on the sequential, state-parallel (one worker per state) and two-level devices; median of interleaved rounds, device order rotated per round, identical plans asserted",
		Blocks:    res.ParallelBlocks,
		Rounds:    exp.SpeedupRounds,
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, r := range res.Rows {
		for _, got := range r.Results[1:] {
			if got.Best.Key() != r.Results[0].Best.Key() {
				log.Fatalf("%s: devices disagree on the plan", r.Workload)
			}
			sameQuality(r.Workload+": device objective", r.Results[0], got)
		}
		sr.Rows = append(sr.Rows, scalingEntry{
			Workload: r.Workload, Tasks: r.Tasks, Beam: r.Beam,
			SequentialMs: ms(r.Sequential), ParallelMs: ms(r.Parallel), TwoLevelMs: ms(r.TwoLevel),
			Speedup: r.Speedup, TwoLevelSpeedup: r.TwoLevelSpeedup,
		})
	}
	return sr
}

func main() {
	tasks := flag.Int("tasks", 100, "Montage workflow size")
	worlds := flag.Int("worlds", 100, "Monte-Carlo worlds per state evaluation")
	out := flag.String("out", "BENCH_solver.json", "output path")
	flag.Parse()

	p := must(buildProblem(*tasks, *worlds))
	cons := []wlog.Constraint{{Kind: "deadline", Percentile: 0.96, Bound: p.deadline}}
	native := must(probir.NewNative(p.w, p.tbl, p.prices, probir.GoalCost, cons, p.worlds))
	rep := report{Host: hoststamp.Stamp(), Tasks: *tasks, Worlds: *worlds}
	rep.Flat = newBatchRow("batch state evaluation (one frontier expansion), Montage scheduling space, flat CRN kernels",
		len(p.configs), measure(func(base int64) error { return batchFlat(native, p, base) }))

	// Adaptive precision. The space reproduces the paper's Figure 5b search:
	// start from the all-cheapest plan and promote, under a deadline at the
	// uniform-medium mean makespan with a 0.96-percentile constraint — tight
	// enough that the start and most early promotions are sharply infeasible,
	// reachable enough that the search converges to a feasible plan. Two
	// contracts are checked, on the live evaluation paths (no eval cache):
	//
	// Plan quality: complete fixed and adaptive searches must land on the
	// same objective value and feasibility (benchsolver aborts otherwise).
	//
	// Throughput: the measured op is one warm frontier expansion of the
	// all-cheapest parent — the deadline-probing batch every search from
	// that start evaluates first, and the regime adaptive stopping
	// accelerates: sharply infeasible children are decided within the first
	// world chunks by the exact worst-case rule, while boundary and feasible
	// states still run their full budget (only a proven-infeasible state
	// stops early, so a feasible state always runs every world).
	tightMeans := must(p.tbl.MeanDurations(uniformConfig(p.w, p.tbl, 1)))
	tightDeadline, _, err := p.w.Makespan(tightMeans)
	if err != nil {
		log.Fatal(err)
	}
	tightCons := []wlog.Constraint{{Kind: "deadline", Percentile: 0.96, Bound: tightDeadline}}
	tightNative := must(probir.NewNative(p.w, p.tbl, p.prices, probir.GoalCost, tightCons, p.worlds))
	adSpace := opt.NewScheduleSpace(p.w, tightNative)
	adSpace.Groups = opt.GroupPerTask(p.w)
	adSpace.Init = make(opt.State, p.w.Len()) // Figure 5b: all-cheapest start
	searchOpts := opt.Options{
		Device: device.Sequential{}, Seed: 11,
		MaxStates: 500, BeamWidth: 6, Patience: 20,
		Worlds: *worlds, MinWorlds: 8,
	}
	adaptOpts := searchOpts
	adaptOpts.Adaptive = true
	fixedRes, _ := search(adSpace, searchOpts)
	adaptRes, adaptProb := search(adSpace, adaptOpts)
	adaptStats := adaptProb.SampleStats()
	if !adaptStats.Adaptive || adaptStats.StatesAdaptive == 0 {
		log.Fatalf("adaptive search never engaged the adaptive path: %+v", adaptStats)
	}
	sameQuality("adaptive plan quality", fixedRes, adaptRes)
	adapt := &adaptiveRow{
		Benchmark:         "frontier expansion at the all-cheapest start (deadline-probing batch), Montage scheduling space; fixed worlds per state vs adaptive stopping, equal full-search objective asserted",
		FixedObjective:    fixedRes.BestEval.Value,
		AdaptiveObjective: adaptRes.BestEval.Value,
		Feasible:          adaptRes.Feasible,
		SearchStates:      adaptRes.Evaluated,
		SearchWorldsRun:   adaptStats.WorldsRun,
		SearchWorldsSaved: adaptStats.WorldsSaved(),
	}
	adapt.Fixed, _ = measureExpansion(adSpace, searchOpts, nil)
	adapt.Adaptive, adapt.BatchStates = measureExpansion(adSpace, adaptOpts, nil)
	adapt.FixedStatesPerSec = adapt.Fixed.statesPerSec(adapt.BatchStates)
	adapt.AdaptiveStatesPerSec = adapt.Adaptive.statesPerSec(adapt.BatchStates)
	adapt.SpeedupStatesPerSec = ratio(adapt.AdaptiveStatesPerSec, adapt.FixedStatesPerSec)
	rep.SchedulingAdaptive = adapt

	// Tail-regime ordering. The deadline is calibrated so the all-cheapest
	// start meets it in ~90% of worlds: every early state is infeasible at the
	// 0.96 percentile, but its violating worlds are rare. Unordered, the
	// adaptive path would scan a long prefix to collect the failures the
	// exact worst-case rule needs; stored most-severe first, those worlds
	// decide the same verdicts within the first chunks. The baseline is the
	// fixed-precision expansion.
	// Both ordered rows run 256 worlds per state: rare tail violations need a
	// deeper sample, and the larger budget keeps the per-world savings from
	// dominating rather than the per-state kernel-build cost that both paths
	// pay identically.
	const tailWorlds = 256
	tailFixedOpts := opt.Options{
		Device: device.Sequential{}, Seed: 13,
		MaxStates: 500, BeamWidth: 6, Patience: 20,
		Worlds: tailWorlds, MinWorlds: 8,
	}
	tail := orderedPair(p, tailWorlds, 0.88, 0.92, opt.GroupPerTask(p.w), tailFixedOpts)
	tail.Benchmark = "frontier expansion at the all-cheapest start, tail-regime deadline (all-cheapest meets it in ~90% of worlds, 0.96 percentile required); fixed precision vs decisive-world-first adaptive stopping, equal full-search objective asserted"
	rep.SchedulingTail = tail

	// Executable groups: the same tail-regime comparison on the
	// per-executable grouping NewScheduleSpace picks for Montage at scale,
	// where one promotion moves a whole executable's tasks. The group
	// deadline is calibrated lower ([0.78, 0.85] at all-cheapest) so that
	// promoting a single executable group is not enough to reach the 0.96
	// percentile: every child of the start stays infeasible, and ordering
	// decides each one within the first chunks.
	grpFixedOpts := tailFixedOpts
	grpFixedOpts.Seed = 17
	groups := orderedPair(p, tailWorlds, 0.78, 0.85, opt.GroupByExecutable(p.w), grpFixedOpts)
	groups.Benchmark = "frontier expansion at the all-cheapest start, per-executable groups, tail-regime deadline; fixed precision vs decisive-world-first adaptive stopping, equal full-search objective asserted"
	rep.SchedulingGroups = groups

	rep.SchedulingSpot = spotPair(p)

	// Ensemble admission: the compiled problem binds the eval cache once, so
	// the steady state of repeated expansions over one planned space is
	// answered from it.
	ensSpace, ensBatch := buildEnsembleBench(32)
	ensProb := must(opt.Compile(ensSpace, opt.Options{
		Maximize: true, Seed: 1, Device: device.Sequential{}, Cache: opt.NewEvalCache(0),
	}))
	rep.Ensemble = newBatchRow("admission batch (beam expansions, 32 workflows), ensemble space; includes the bound eval cache",
		len(ensBatch), measure(func(int64) error { _, err := ensProb.EvaluateStates(ensBatch); return err }))

	// Follow-the-cost decision point: each iteration pays the runtime
	// snapshot and Compile (decision points are content-distinct in
	// production, so no cache) before the dense per-state arithmetic.
	ftcRT, ftcBatch, err := buildFTCBench(12, 30)
	if err != nil {
		log.Fatal(err)
	}
	rep.FTC = newBatchRow("placement batch (one decision point, 12 jobs), follow-the-cost space; includes the per-decision snapshot",
		len(ftcBatch), measure(func(int64) error {
			prob, err := opt.Compile(ftc.NewSpace(ftcRT), opt.Options{Seed: 1, Device: device.Sequential{}})
			if err != nil {
				return err
			}
			_, err = prob.EvaluateStates(ftcBatch)
			return err
		}))

	rep.DeviceScaling = deviceScaling()

	doc := must(json.MarshalIndent(rep, "", "  "))
	if err := os.WriteFile(*out, append(doc, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	for i, b := range []*batchRow{rep.Flat, rep.Ensemble, rep.FTC} {
		fmt.Printf("%-12s %d ns/op | %.2f allocs/state, %.0f B/state (%d states)\n",
			[]string{"flat:", "ensemble:", "ftc:"}[i], b.NsPerOp, b.AllocsPerState, b.BytesPerState, b.States)
	}
	fmt.Printf("sched-adapt: fixed %d ns/op | adaptive %d ns/op (%d-state batch) | states/sec speedup %.1fx | search %d states, %d/%d worlds, objective %.4f on both\n",
		adapt.Fixed.NsPerOp, adapt.Adaptive.NsPerOp, adapt.BatchStates, adapt.SpeedupStatesPerSec,
		adapt.SearchStates, adapt.SearchWorldsRun, adapt.SearchWorldsRun+adapt.SearchWorldsSaved,
		adapt.AdaptiveObjective)
	for i, o := range []*orderedRow{tail, groups} {
		fmt.Printf("%-12s %s %d ns/op | ordered %d ns/op (%d-state batch) | states/sec speedup %.1fx | search %d states, %d worlds run, objective %.4f on both\n",
			[]string{"sched-tail:", "sched-group:"}[i], o.Baseline, o.Base.NsPerOp, o.Ordered.NsPerOp, o.BatchStates, o.SpeedupStatesPerSec,
			o.SearchStates, o.SearchWorldsRun, o.OrderedObjective)
	}
	spot := rep.SchedulingSpot
	fmt.Printf("sched-spot:  ondemand $%.4f | market $%.4f (savings %.0f%%, %d/%d tasks on spot, bit-equal across devices) | expansion od %d ns/op (%d states) vs market %d ns/op (%d states), overhead %.2fx\n",
		spot.OnDemandObjective, spot.SpotObjective, 100*spot.SavingsFrac,
		spot.SpotAssignments, p.w.Len(),
		spot.OnDemand.NsPerOp, spot.OnDemandBatchStates,
		spot.Market.NsPerOp, spot.MarketBatchStates, spot.MarketOverheadRatio)
	for _, r := range rep.DeviceScaling.Rows {
		fmt.Printf("scaling:     %-18s sequential %.1f ms | parallel %.1f ms (%.2fx) | two-level %.1f ms (%.2fx)\n",
			r.Workload, r.SequentialMs, r.ParallelMs, r.Speedup, r.TwoLevelMs, r.TwoLevelSpeedup)
	}
	fmt.Printf("wrote %s\n", *out)
}
