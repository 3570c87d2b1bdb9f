// Command benchsolver measures batch state evaluation — the solver's hot
// loop — for all three paper use cases, comparing each compiled pipeline
// against a reproduction of the fallback path it replaced, and writes the
// numbers to BENCH_solver.json at the repository root to seed the
// performance trajectory.
//
// Scheduling row: the flat common-random-number core against the previous
// map-keyed evaluation path — per state, per world, a map[string]float64 of
// sampled task durations followed by a map-keyed longest-path dynamic
// program, with every state drawing its own worlds from a state-keyed rng.
//
// Ensemble row: admission-search frontier expansions over one planned space.
// The fallback evaluated every state from scratch on the per-state-rng Map
// path and could never cache (the space had no fingerprint, so the old
// capability ladder silently disabled the eval cache); the compiled path
// binds the search-level cache once, so repeated expansions — a decod worker
// re-serving the job, solver-config comparisons over the same plans — are
// answered from entries earlier searches warmed.
//
// Follow-the-cost row: one runtime decision point. The fallback re-derived
// every job's remaining work, live data and price rows per state; the
// compiled path snapshots the runtime once per decision point and scores
// placements as pure arithmetic over dense rows. Decision points are
// content-distinct in production, so this row runs the cold compiled path
// (no cache) and includes the per-decision snapshot in the measurement.
//
// Usage:
//
//	benchsolver [-tasks 100] [-worlds 100] [-out BENCH_solver.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"math/rand"
	"os"
	"sort"
	"testing"

	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/device"
	"deco/internal/ensemble"
	"deco/internal/estimate"
	"deco/internal/ftc"
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
		k, err := n.CRNKernel(make([]int, p.w.Len()), 1)
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

// legacyEval reproduces the pre-flat-core evaluation of one state: worlds
// sampled into a map keyed by task ID, a map-keyed longest-path DP per
// world, and a per-state rng — so sibling states resample everything.
type legacyEval struct {
	p     *problem
	order []string
	ids   []string
}

func newLegacyEval(p *problem) (*legacyEval, error) {
	order, err := p.w.TopoOrder()
	if err != nil {
		return nil, err
	}
	ids := make([]string, 0, p.w.Len())
	for _, t := range p.w.Tasks {
		ids = append(ids, t.ID)
	}
	sort.Strings(ids)
	return &legacyEval{p: p, order: order, ids: ids}, nil
}

// evaluate returns (P(makespan <= deadline), mean cost) for one state.
func (l *legacyEval) evaluate(config []int, rng *rand.Rand) (float64, float64, error) {
	p := l.p
	idx := make(map[string]int, len(l.ids))
	for i, t := range p.w.Tasks {
		idx[t.ID] = i
	}
	met := 0
	costSum := 0.0
	for it := 0; it < p.worlds; it++ {
		// One world: a fresh duration map, tasks drawn in sorted-ID order.
		durs := make(map[string]float64, len(l.ids))
		for _, id := range l.ids {
			j := config[idx[id]]
			durs[id] = p.tbl.Dists[id][j].Sample(rng)
		}
		// Map-keyed longest-path DP.
		finish := make(map[string]float64, len(l.order))
		makespan := 0.0
		for _, id := range l.order {
			start := 0.0
			for _, par := range p.w.Parents(id) {
				if f := finish[par]; f > start {
					start = f
				}
			}
			end := start + durs[id]
			finish[id] = end
			if end > makespan {
				makespan = end
			}
		}
		if makespan <= p.deadline {
			met++
		}
		cost := 0.0
		for _, id := range l.ids {
			cost += durs[id] / 3600 * p.prices[config[idx[id]]]
		}
		costSum += cost
	}
	return float64(met) / float64(p.worlds), costSum / float64(p.worlds), nil
}

// batchLegacy evaluates every state in the batch the old way.
func batchLegacy(l *legacyEval, base int64) error {
	for si, cfg := range l.p.configs {
		rng := rand.New(rand.NewSource(base + int64(si)*1000003))
		if _, _, err := l.evaluate(cfg, rng); err != nil {
			return err
		}
	}
	return nil
}

// batchFlat evaluates the batch on the production path: per-state CRN world
// kernels over one shared compiled program, folded canonically.
func batchFlat(n *probir.Native, p *problem, base int64) error {
	for _, cfg := range p.configs {
		k, err := n.CRNKernel(cfg, base)
		if err != nil {
			return err
		}
		if _, err := probir.RunKernel(k); err != nil {
			return err
		}
	}
	return nil
}

// legacyKey reproduces the old State.Key: a heap-sized scratch slice plus
// the string conversion, paid on every visited-set probe and rng derivation.
func legacyKey(s opt.State) string {
	b := make([]byte, 0, len(s)*2)
	for _, v := range s {
		u := uint64(int64(v)<<1) ^ uint64(int64(v)>>63) // zigzag
		for u >= 0x80 {
			b = append(b, byte(u)|0x80)
			u >>= 7
		}
		b = append(b, byte(u))
	}
	return string(b)
}

// legacyStateRng reproduces the solver's old per-state rng construction
// (fnv over the state key xor the search seed) that the fallback path paid
// for every evaluation, deterministic or not.
func legacyStateRng(seed int64, key string) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
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
				c, k := tr.Child, tr.Child.Key()
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

// legacyAdmissionBatch reproduces the pre-compile fallback for the ensemble
// admission space: per state, a fresh state-keyed rng, a bool admission
// mask, and the Eq. 4 score fold over every workflow — redone on every
// expansion because the old ladder gave fingerprint-less spaces no cache.
func legacyAdmissionBatch(sp *ensemble.Space, states []opt.State, seed int64) error {
	for _, st := range states {
		_ = legacyStateRng(seed, legacyKey(st))
		cost := 0.0
		admitted := make([]bool, len(st))
		for i, bit := range st {
			if bit == 0 {
				continue
			}
			if sp.Plans[i] == nil {
				return fmt.Errorf("state admits unplannable workflow %d", i)
			}
			admitted[i] = true
			cost += sp.Plans[i].Cost
		}
		ev := &probir.Evaluation{Value: sp.E.Score(admitted), Feasible: cost <= sp.Budget}
		if !ev.Feasible && sp.Budget > 0 {
			ev.Violation = (cost - sp.Budget) / sp.Budget
		}
	}
	return nil
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

// legacyPlacementBatch reproduces the pre-compile fallback for the
// follow-the-cost space: per state, a fresh state-keyed rng and a full
// re-derivation of every job's remaining mean time, live data and map-keyed
// prices — the work the compiled snapshot now does once per decision point.
func legacyPlacementBatch(rt *ftc.Runtime, states []opt.State, seed int64) error {
	for _, st := range states {
		_ = legacyStateRng(seed, legacyKey(st))
		ev := &probir.Evaluation{Feasible: true}
		meanBW := rt.Cat.Perf.CrossRegionNet.Mean()
		for i, j := range rt.Jobs {
			if j.Done() {
				continue
			}
			target := st[i]
			if target < 0 || target >= len(rt.Cat.Regions) {
				return fmt.Errorf("region %d out of range", target)
			}
			rem, err := j.RemainingMeanSec()
			if err != nil {
				return err
			}
			cost := rem / 3600 * rt.Cat.Regions[target].PricePerHour[rt.Cat.Types[j.TypeIndex].Name]
			migTime := 0.0
			if target != j.Region {
				data := j.LiveDataMB()
				priceGB := rt.Cat.Regions[j.Region].NetPricePerGB[rt.Cat.Regions[target].Name]
				cost += data / 1024 * priceGB
				if data > 0 && meanBW > 0 {
					migTime = data / meanBW
				}
			}
			ev.Value += cost
			if j.DeadlineSec > 0 {
				projected := j.Elapsed + migTime + rem
				if projected > j.DeadlineSec {
					ev.Feasible = false
					ev.Violation += (projected - j.DeadlineSec) / j.DeadlineSec
				}
			}
		}
	}
	return nil
}

// row is one measured path in the output document.
type row struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// adaptiveRow compares fixed-precision against adaptive-precision
// Monte-Carlo inference (sequential stopping + racing) on two levels. Plan
// quality: complete solver searches, fixed and adaptive, must land on the
// same objective value and feasibility — benchsolver aborts otherwise, so
// the row only ever reports a speedup at unchanged quality. Throughput: the
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

// orderedRow compares the plain adaptive path (PR: sequential stopping, fixed
// world order) against the same path with decisive-world-first ordering — and,
// for the groups row, group-cone delta evaluation — on a tail-regime instance:
// a 0.96-percentile deadline calibrated so the probed states violate in only a
// small fraction of worlds. Fixed world order spreads those violating worlds
// uniformly, so the exact worst-case stopping rule needs a long prefix to
// collect enough failures; severity ordering front-loads them, deciding the
// same verdicts within the first chunks. Plan quality is asserted the same way
// as adaptiveRow: complete fixed and ordered searches must land on the same
// objective value and feasibility.
type orderedRow struct {
	Benchmark        string  `json:"benchmark"`
	FixedObjective   float64 `json:"fixed_objective"`
	OrderedObjective float64 `json:"ordered_objective"`
	Feasible         bool    `json:"feasible"`
	// SearchStates / SearchWorldsRun / SearchWorldsReordered describe the
	// ordered adaptive full search backing the plan-quality assertion.
	SearchStates          int   `json:"search_states"`
	SearchWorldsRun       int64 `json:"search_worlds_run"`
	SearchWorldsReordered int64 `json:"search_worlds_reordered"`
	// BatchStates is the size of the measured frontier-expansion batch.
	BatchStates          int     `json:"batch_states"`
	Baseline             row     `json:"adaptive_unordered_expansion"`
	Ordered              row     `json:"adaptive_ordered_expansion"`
	BaselineStatesPerSec float64 `json:"baseline_states_per_sec"`
	OrderedStatesPerSec  float64 `json:"ordered_states_per_sec"`
	SpeedupStatesPerSec  float64 `json:"speedup_states_per_sec"`
	// DeltaEvals / DeltaFallbacks / ConePlanHits report the group-cone routing
	// of the ordered search (groups row only; the baseline disables delta).
	DeltaEvals     int64 `json:"delta_evals,omitempty"`
	DeltaFallbacks int64 `json:"delta_fallbacks,omitempty"`
	ConePlanHits   int64 `json:"cone_plan_hits,omitempty"`
}

func (o *orderedRow) finish() {
	if o.Baseline.NsPerOp > 0 {
		o.BaselineStatesPerSec = float64(o.BatchStates) / (float64(o.Baseline.NsPerOp) / 1e9)
	}
	if o.Ordered.NsPerOp > 0 {
		o.OrderedStatesPerSec = float64(o.BatchStates) / (float64(o.Ordered.NsPerOp) / 1e9)
	}
	if o.BaselineStatesPerSec > 0 {
		o.SpeedupStatesPerSec = o.OrderedStatesPerSec / o.BaselineStatesPerSec
	}
}

// spotRow compares complete cost-minimizing searches over the same Montage
// instance with and without the spot-market layer: the on-demand search sees
// only the catalog's fixed hourly prices, the market search sees one
// preemptible column per type priced by the clearing-price process with
// Poisson revocation rework folded into every world. Three contracts back
// the row: both searches must converge to a feasible plan, the market
// objective (expected cost under revocation) must land strictly below the
// on-demand objective, and the market search must produce a bit-identical
// objective on the sequential and parallel devices — the CRN determinism
// contract extended over the spot virtual columns. The throughput halves
// measure one warm frontier expansion each — the on-demand batch from the
// all-cheapest state, the market batch from the all-cheapest-spot state —
// so the per-state overhead of revocation sampling is visible rather than
// averaged away.
type spotRow struct {
	Benchmark         string  `json:"benchmark"`
	OnDemandObjective float64 `json:"ondemand_objective"`
	SpotObjective     float64 `json:"spot_objective"`
	// SpotObjectiveParallel is the market search's objective on the parallel
	// device; CI asserts bit-equality with SpotObjective.
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

func (s *spotRow) finish() {
	if s.OnDemand.NsPerOp > 0 {
		s.OnDemandStatesPerSec = float64(s.OnDemandBatchStates) / (float64(s.OnDemand.NsPerOp) / 1e9)
	}
	if s.Market.NsPerOp > 0 {
		s.MarketStatesPerSec = float64(s.MarketBatchStates) / (float64(s.Market.NsPerOp) / 1e9)
	}
	if s.OnDemandStatesPerSec > 0 && s.MarketStatesPerSec > 0 {
		s.MarketOverheadRatio = s.OnDemandStatesPerSec / s.MarketStatesPerSec
	}
}

// useCaseRow is one ported use case's fallback-vs-compiled comparison.
type useCaseRow struct {
	Benchmark   string  `json:"benchmark"`
	States      int     `json:"states"`
	Old         row     `json:"old_fallback_path"`
	New         row     `json:"new_compiled_path"`
	SpeedupNs   float64 `json:"speedup_ns"`
	AllocsRatio float64 `json:"allocs_ratio"`
}

func (u *useCaseRow) ratios() {
	if u.New.NsPerOp > 0 {
		u.SpeedupNs = float64(u.Old.NsPerOp) / float64(u.New.NsPerOp)
	}
	if u.New.AllocsPerOp > 0 {
		u.AllocsRatio = float64(u.Old.AllocsPerOp) / float64(u.New.AllocsPerOp)
	}
}

type report struct {
	Benchmark   string  `json:"benchmark"`
	Tasks       int     `json:"tasks"`
	States      int     `json:"states"`
	Worlds      int     `json:"worlds"`
	Old         row     `json:"old_map_path"`
	New         row     `json:"new_flat_crn_path"`
	SpeedupNs   float64 `json:"speedup_ns"`
	AllocsRatio float64 `json:"allocs_ratio"`
	// SchedulingDelta compares one full frontier expansion against the same
	// expansion with incremental (dirty-cone) evaluation: old = every child
	// re-runs the full per-world DP, new = children reuse the parent's
	// finish-time snapshot. Same states, same worlds, bit-identical results.
	SchedulingDelta *useCaseRow `json:"scheduling_delta"`
	// SchedulingAdaptive compares full solver searches — fixed-precision
	// against adaptive-precision — over the same space; see adaptiveRow.
	SchedulingAdaptive *adaptiveRow `json:"scheduling_adaptive"`
	// SchedulingTail compares the adaptive path with and without
	// decisive-world-first ordering on a tail-regime deadline (states violate
	// in a small fraction of worlds); see orderedRow.
	SchedulingTail *orderedRow `json:"scheduling_tail"`
	// SchedulingGroups runs the same comparison on the per-executable
	// grouping, where promotions dirty Montage-scale cones: the ordered row
	// compounds world ordering with group-cone delta evaluation, the baseline
	// is the plain adaptive path with delta disabled.
	SchedulingGroups *orderedRow `json:"scheduling_groups"`
	// SchedulingSpot compares market-aware search (spot columns, sampled
	// clearing prices, revocation rework) against the on-demand-only search
	// on the same instance; see spotRow.
	SchedulingSpot *spotRow    `json:"scheduling_spot"`
	Ensemble       *useCaseRow `json:"ensemble"`
	FTC            *useCaseRow `json:"ftc"`
}

func measure(f func(base int64) error) (row, error) {
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
		return row{}, inner
	}
	return row{
		NsPerOp:     res.NsPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}, nil
}

func main() {
	tasks := flag.Int("tasks", 100, "Montage workflow size")
	worlds := flag.Int("worlds", 100, "Monte-Carlo worlds per state evaluation")
	out := flag.String("out", "BENCH_solver.json", "output path")
	flag.Parse()

	p, err := buildProblem(*tasks, *worlds)
	if err != nil {
		log.Fatal(err)
	}
	cons := []wlog.Constraint{{Kind: "deadline", Percentile: 0.96, Bound: p.deadline}}
	native, err := probir.NewNative(p.w, p.tbl, p.prices, probir.GoalCost, cons, p.worlds)
	if err != nil {
		log.Fatal(err)
	}
	legacy, err := newLegacyEval(p)
	if err != nil {
		log.Fatal(err)
	}

	oldRow, err := measure(func(base int64) error { return batchLegacy(legacy, base) })
	if err != nil {
		log.Fatal(err)
	}
	newRow, err := measure(func(base int64) error { return batchFlat(native, p, base) })
	if err != nil {
		log.Fatal(err)
	}

	rep := report{
		Benchmark: "batch state evaluation (one frontier expansion), Montage scheduling space",
		Tasks:     *tasks,
		States:    len(p.configs),
		Worlds:    *worlds,
		Old:       oldRow,
		New:       newRow,
	}
	if newRow.NsPerOp > 0 {
		rep.SpeedupNs = float64(oldRow.NsPerOp) / float64(newRow.NsPerOp)
	}
	if newRow.AllocsPerOp > 0 {
		rep.AllocsRatio = float64(oldRow.AllocsPerOp) / float64(newRow.AllocsPerOp)
	}

	// Delta evaluation: one frontier expansion — a parent plus its full Δ=1
	// neighbor set at per-task granularity — through the compiled problem
	// pipeline, with and without snapshot-reusing delta evaluation. Both
	// rows run warm (rows filled, parent snapshot captured), the steady
	// state of a running search; results are bit-identical by construction,
	// so this row measures pure wall clock.
	schedSpace := opt.NewScheduleSpace(p.w, native)
	schedSpace.Groups = opt.GroupPerTask(p.w)
	expansionProb := func(budget int64) (*opt.Problem, opt.State, error) {
		prob, err := opt.Compile(schedSpace, opt.Options{
			Device: device.Sequential{}, Seed: 9, SnapshotBudget: budget,
		})
		if err != nil {
			return nil, nil, err
		}
		parent := prob.Starts()[0]
		if _, _, _, err := prob.EvaluateExpansion(parent); err != nil { // warm
			return nil, nil, err
		}
		return prob, parent, nil
	}
	fullProb, fullParent, err := expansionProb(-1)
	if err != nil {
		log.Fatal(err)
	}
	deltaProb, deltaParent, err := expansionProb(0)
	if err != nil {
		log.Fatal(err)
	}
	delta := &useCaseRow{
		Benchmark: "frontier expansion (parent + Δ=1 children, per-task groups), scheduling space; old = full per-world DP per child, new = dirty-cone delta from the parent snapshot",
	}
	if _, kids, _, err := deltaProb.EvaluateExpansion(deltaParent); err != nil {
		log.Fatal(err)
	} else {
		delta.States = 1 + len(kids)
	}
	if delta.Old, err = measure(func(int64) error {
		_, _, _, err := fullProb.EvaluateExpansion(fullParent)
		return err
	}); err != nil {
		log.Fatal(err)
	}
	if delta.New, err = measure(func(int64) error {
		_, _, _, err := deltaProb.EvaluateExpansion(deltaParent)
		return err
	}); err != nil {
		log.Fatal(err)
	}
	delta.ratios()
	rep.SchedulingDelta = delta

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
	// that start evaluates first, and the regime sequential stopping
	// accelerates: sharply infeasible children are decided within the first
	// world chunks by the exact worst-case rule, while boundary and feasible
	// states still run their full budget (a feasible verdict at the 0.96
	// percentile needs at least 96 of 100 worlds by construction).
	tightMeans, err := p.tbl.MeanDurations(uniformConfig(p.w, p.tbl, 1))
	if err != nil {
		log.Fatal(err)
	}
	tightDeadline, _, err := p.w.Makespan(tightMeans)
	if err != nil {
		log.Fatal(err)
	}
	tightCons := []wlog.Constraint{{Kind: "deadline", Percentile: 0.96, Bound: tightDeadline}}
	tightNative, err := probir.NewNative(p.w, p.tbl, p.prices, probir.GoalCost, tightCons, p.worlds)
	if err != nil {
		log.Fatal(err)
	}
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
	runSearch := func(o opt.Options) (*opt.Result, opt.SampleStats, error) {
		prob, err := opt.Compile(adSpace, o)
		if err != nil {
			return nil, opt.SampleStats{}, err
		}
		res, err := prob.Search()
		return res, prob.SampleStats(), err
	}
	fixedRes, _, err := runSearch(searchOpts)
	if err != nil {
		log.Fatal(err)
	}
	adaptRes, adaptStats, err := runSearch(adaptOpts)
	if err != nil {
		log.Fatal(err)
	}
	if !adaptStats.Adaptive || adaptStats.StatesAdaptive == 0 {
		log.Fatalf("adaptive search never engaged the adaptive path: %+v", adaptStats)
	}
	if fixedRes.BestEval.Value != adaptRes.BestEval.Value || fixedRes.Feasible != adaptRes.Feasible {
		log.Fatalf("adaptive plan quality diverged: fixed %v (feasible %v) vs adaptive %v (feasible %v)",
			fixedRes.BestEval.Value, fixedRes.Feasible, adaptRes.BestEval.Value, adaptRes.Feasible)
	}
	adapt := &adaptiveRow{
		Benchmark:         "frontier expansion at the all-cheapest start (deadline-probing batch), Montage scheduling space; fixed worlds per state vs adaptive sequential stopping, equal full-search objective asserted",
		FixedObjective:    fixedRes.BestEval.Value,
		AdaptiveObjective: adaptRes.BestEval.Value,
		Feasible:          adaptRes.Feasible,
		SearchStates:      adaptRes.Evaluated,
		SearchWorldsRun:   adaptStats.WorldsRun,
		SearchWorldsSaved: adaptStats.WorldsSaved(),
	}
	fixedProb, err := opt.Compile(adSpace, searchOpts)
	if err != nil {
		log.Fatal(err)
	}
	adaptProb, err := opt.Compile(adSpace, adaptOpts)
	if err != nil {
		log.Fatal(err)
	}
	adParent := fixedProb.Starts()[0]
	if _, _, _, err := fixedProb.EvaluateExpansion(adParent); err != nil { // warm
		log.Fatal(err)
	}
	if _, kids, _, err := adaptProb.EvaluateExpansion(adParent); err != nil { // warm
		log.Fatal(err)
	} else {
		adapt.BatchStates = 1 + len(kids)
	}
	if adapt.Fixed, err = measure(func(int64) error {
		_, _, _, err := fixedProb.EvaluateExpansion(adParent)
		return err
	}); err != nil {
		log.Fatal(err)
	}
	if adapt.Adaptive, err = measure(func(int64) error {
		_, _, _, err := adaptProb.EvaluateExpansion(adParent)
		return err
	}); err != nil {
		log.Fatal(err)
	}
	if adapt.Fixed.NsPerOp > 0 {
		adapt.FixedStatesPerSec = float64(adapt.BatchStates) / (float64(adapt.Fixed.NsPerOp) / 1e9)
	}
	if adapt.Adaptive.NsPerOp > 0 {
		adapt.AdaptiveStatesPerSec = float64(adapt.BatchStates) / (float64(adapt.Adaptive.NsPerOp) / 1e9)
	}
	if adapt.FixedStatesPerSec > 0 {
		adapt.SpeedupStatesPerSec = adapt.AdaptiveStatesPerSec / adapt.FixedStatesPerSec
	}
	rep.SchedulingAdaptive = adapt

	// Tail-regime ordering. The deadline is calibrated so the all-cheapest
	// start meets it in ~90% of worlds: every early state is infeasible at the
	// 0.96 percentile, but its violating worlds are rare, so the plain
	// adaptive path must scan a long uniformly-ordered prefix to collect the
	// failures the exact worst-case rule needs. Severity ordering front-loads
	// exactly those worlds, deciding the same verdicts within the first
	// chunks. The baseline is this PR's predecessor path: adaptive sequential
	// stopping with ordering disabled.
	// Both ordered rows run 256 worlds per state: rare tail violations need a
	// deeper sample, and the larger budget keeps the per-world savings from
	// dominating rather than the per-state kernel-build cost that both paths
	// pay identically.
	const tailWorlds = 256
	tailBound, err := boundaryDeadline(p, tailWorlds, 0.96, 0.88, 0.92)
	if err != nil {
		log.Fatal(err)
	}
	tailCons := []wlog.Constraint{{Kind: "deadline", Percentile: 0.96, Bound: tailBound}}
	tailNative, err := probir.NewNative(p.w, p.tbl, p.prices, probir.GoalCost, tailCons, tailWorlds)
	if err != nil {
		log.Fatal(err)
	}
	searchOn := func(sp opt.Space, o opt.Options) (*opt.Result, *opt.Problem, error) {
		prob, err := opt.Compile(sp, o)
		if err != nil {
			return nil, nil, err
		}
		res, err := prob.Search()
		return res, prob, err
	}
	tailSpace := opt.NewScheduleSpace(p.w, tailNative)
	tailSpace.Groups = opt.GroupPerTask(p.w)
	tailSpace.Init = make(opt.State, p.w.Len())
	tailFixedOpts := opt.Options{
		Device: device.Sequential{}, Seed: 13,
		MaxStates: 500, BeamWidth: 6, Patience: 20,
		Worlds: tailWorlds, MinWorlds: 8,
	}
	tailBaseOpts := tailFixedOpts
	tailBaseOpts.Adaptive = true
	tailBaseOpts.DisableWorldOrder = true
	tailOrdOpts := tailFixedOpts
	tailOrdOpts.Adaptive = true
	tailFixedRes, _, err := searchOn(tailSpace, tailFixedOpts)
	if err != nil {
		log.Fatal(err)
	}
	tailOrdRes, tailOrdProb, err := searchOn(tailSpace, tailOrdOpts)
	if err != nil {
		log.Fatal(err)
	}
	tailStats := tailOrdProb.SampleStats()
	if !tailStats.Adaptive || !tailStats.Ordered || tailStats.WorldsReordered == 0 {
		log.Fatalf("ordered search never engaged world ordering: %+v", tailStats)
	}
	if tailFixedRes.BestEval.Value != tailOrdRes.BestEval.Value || tailFixedRes.Feasible != tailOrdRes.Feasible {
		log.Fatalf("ordered plan quality diverged: fixed %v (feasible %v) vs ordered %v (feasible %v)",
			tailFixedRes.BestEval.Value, tailFixedRes.Feasible, tailOrdRes.BestEval.Value, tailOrdRes.Feasible)
	}
	tail := &orderedRow{
		Benchmark:             "frontier expansion at the all-cheapest start, tail-regime deadline (all-cheapest meets it in ~90% of worlds, 0.96 percentile required); adaptive sequential stopping with fixed world order vs decisive-world-first ordering, equal full-search objective asserted",
		FixedObjective:        tailFixedRes.BestEval.Value,
		OrderedObjective:      tailOrdRes.BestEval.Value,
		Feasible:              tailOrdRes.Feasible,
		SearchStates:          tailOrdRes.Evaluated,
		SearchWorldsRun:       tailStats.WorldsRun,
		SearchWorldsReordered: tailStats.WorldsReordered,
	}
	tailBaseProb, err := opt.Compile(tailSpace, tailBaseOpts)
	if err != nil {
		log.Fatal(err)
	}
	tailOrdMeasProb, err := opt.Compile(tailSpace, tailOrdOpts)
	if err != nil {
		log.Fatal(err)
	}
	tailParent := tailBaseProb.Starts()[0]
	if _, _, _, err := tailBaseProb.EvaluateExpansion(tailParent); err != nil { // warm
		log.Fatal(err)
	}
	if _, kids, _, err := tailOrdMeasProb.EvaluateExpansion(tailParent); err != nil { // warm
		log.Fatal(err)
	} else {
		tail.BatchStates = 1 + len(kids)
	}
	if tail.Baseline, err = measure(func(int64) error {
		_, _, _, err := tailBaseProb.EvaluateExpansion(tailParent)
		return err
	}); err != nil {
		log.Fatal(err)
	}
	if tail.Ordered, err = measure(func(int64) error {
		_, _, _, err := tailOrdMeasProb.EvaluateExpansion(tailParent)
		return err
	}); err != nil {
		log.Fatal(err)
	}
	tail.finish()
	rep.SchedulingTail = tail

	// Executable groups: the same tail-regime instance on the per-executable
	// grouping NewScheduleSpace picks for Montage at scale, where one
	// promotion dirties a cone covering half the DAG. The ordered row
	// compounds decisive-world-first ordering with group-cone delta
	// evaluation (the work-estimate model keeps these cones on the delta
	// path); the baseline is the plain adaptive predecessor with delta
	// disabled. The measured expansion grows from the all-cheapest start: its
	// own evaluation stops early, so the compound path pays one on-demand
	// parent completion and then evaluates the sibling batch incrementally
	// with early stops, while the baseline runs every child in full.
	// The group deadline is calibrated lower ([0.78, 0.85] at all-cheapest) so
	// that promoting a single executable group is not enough to reach the 0.96
	// percentile: every child of the start stays infeasible, ordering decides
	// each one within the first chunks, and the delta path makes the surviving
	// worlds cheap.
	grpBound, err := boundaryDeadline(p, tailWorlds, 0.96, 0.78, 0.85)
	if err != nil {
		log.Fatal(err)
	}
	grpCons := []wlog.Constraint{{Kind: "deadline", Percentile: 0.96, Bound: grpBound}}
	grpNative, err := probir.NewNative(p.w, p.tbl, p.prices, probir.GoalCost, grpCons, tailWorlds)
	if err != nil {
		log.Fatal(err)
	}
	grpSpace := opt.NewScheduleSpace(p.w, grpNative)
	grpSpace.Groups = opt.GroupByExecutable(p.w)
	grpSpace.Init = make(opt.State, p.w.Len())
	grpFixedOpts := tailFixedOpts
	grpFixedOpts.Seed = 17
	grpBaseOpts := grpFixedOpts
	grpBaseOpts.Adaptive = true
	grpBaseOpts.DisableWorldOrder = true
	grpBaseOpts.SnapshotBudget = -1
	grpOrdOpts := grpFixedOpts
	grpOrdOpts.Adaptive = true
	grpFixedRes, _, err := searchOn(grpSpace, grpFixedOpts)
	if err != nil {
		log.Fatal(err)
	}
	grpOrdRes, grpOrdProb, err := searchOn(grpSpace, grpOrdOpts)
	if err != nil {
		log.Fatal(err)
	}
	grpStats := grpOrdProb.SampleStats()
	grpDelta := grpOrdProb.DeltaStats()
	if !grpStats.Adaptive || !grpStats.Ordered || grpStats.WorldsReordered == 0 {
		log.Fatalf("group search never engaged world ordering: %+v", grpStats)
	}
	if grpDelta.DeltaEvals == 0 {
		log.Fatalf("group search never engaged group-cone delta evaluation: %+v", grpDelta)
	}
	if grpFixedRes.BestEval.Value != grpOrdRes.BestEval.Value || grpFixedRes.Feasible != grpOrdRes.Feasible {
		log.Fatalf("group plan quality diverged: fixed %v (feasible %v) vs ordered %v (feasible %v)",
			grpFixedRes.BestEval.Value, grpFixedRes.Feasible, grpOrdRes.BestEval.Value, grpOrdRes.Feasible)
	}
	groups := &orderedRow{
		Benchmark:             "frontier expansion at the all-cheapest start, per-executable groups, tail-regime deadline; plain adaptive with delta disabled vs world ordering compounded with group-cone delta evaluation, equal full-search objective asserted",
		FixedObjective:        grpFixedRes.BestEval.Value,
		OrderedObjective:      grpOrdRes.BestEval.Value,
		Feasible:              grpOrdRes.Feasible,
		SearchStates:          grpOrdRes.Evaluated,
		SearchWorldsRun:       grpStats.WorldsRun,
		SearchWorldsReordered: grpStats.WorldsReordered,
		DeltaEvals:            grpDelta.DeltaEvals,
		DeltaFallbacks:        grpDelta.Fallbacks,
		ConePlanHits:          grpDelta.ConePlanHits,
	}
	grpBaseProb, err := opt.Compile(grpSpace, grpBaseOpts)
	if err != nil {
		log.Fatal(err)
	}
	grpOrdMeasProb, err := opt.Compile(grpSpace, grpOrdOpts)
	if err != nil {
		log.Fatal(err)
	}
	grpParent := grpBaseProb.Starts()[0]
	if _, _, _, err := grpBaseProb.EvaluateExpansion(grpParent); err != nil { // warm
		log.Fatal(err)
	}
	if _, kids, _, err := grpOrdMeasProb.EvaluateExpansion(grpParent); err != nil { // warm
		log.Fatal(err)
	} else {
		groups.BatchStates = 1 + len(kids)
	}
	if groups.Baseline, err = measure(func(int64) error {
		_, _, _, err := grpBaseProb.EvaluateExpansion(grpParent)
		return err
	}); err != nil {
		log.Fatal(err)
	}
	if groups.Ordered, err = measure(func(int64) error {
		_, _, _, err := grpOrdMeasProb.EvaluateExpansion(grpParent)
		return err
	}); err != nil {
		log.Fatal(err)
	}
	groups.finish()
	rep.SchedulingGroups = groups

	// Spot markets: the same instance with one preemptible column per
	// on-demand type, priced from the default catalog's us-east market
	// models, under a deadline loose enough (2x the all-cheapest mean
	// makespan at the 0.9 percentile) that cost, not feasibility, decides
	// the plan. The on-demand search can only pick fixed-price columns; the
	// market search may also bid on spot, paying the clearing-price process
	// and the expected revocation rework in every world. Multi-start is left
	// on — the homogeneous all-spot starts are how the production engine
	// reaches the market shelf — and the market search runs twice, on the
	// sequential and parallel devices, to pin the CRN bit-equality contract
	// over the spot columns.
	spotCat := cloud.DefaultCatalog()
	spotTbl, err := p.tbl.ExpandSpot(p.tbl.Types)
	if err != nil {
		log.Fatal(err)
	}
	usReg, err := spotCat.Region(cloud.USEast)
	if err != nil {
		log.Fatal(err)
	}
	marketPrices := make([]float64, len(spotTbl.Types))
	copy(marketPrices, p.prices)
	markets := make([]probir.MarketSpec, len(spotTbl.Types))
	for j := len(p.prices); j < len(spotTbl.Types); j++ {
		sm, err := spotCat.Spot(cloud.USEast, spotTbl.Types[j])
		if err != nil {
			log.Fatal(err)
		}
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
	odNative, err := probir.NewNative(p.w, p.tbl, p.prices, probir.GoalCost, spotCons, p.worlds)
	if err != nil {
		log.Fatal(err)
	}
	mkNative, err := probir.NewNativeMarkets(p.w, spotTbl, marketPrices, markets, probir.GoalCost, spotCons, p.worlds)
	if err != nil {
		log.Fatal(err)
	}
	odSpace := opt.NewScheduleSpace(p.w, odNative)
	mkSpace := opt.NewScheduleSpace(p.w, mkNative)
	spotOpts := opt.Options{
		Device: device.Sequential{}, Seed: 23,
		MaxStates: 500, BeamWidth: 6, Patience: 20,
		Worlds: p.worlds, MinWorlds: 8,
	}
	spotParOpts := spotOpts
	spotParOpts.Device = device.Parallel{}
	odRes, _, err := searchOn(odSpace, spotOpts)
	if err != nil {
		log.Fatal(err)
	}
	mkRes, _, err := searchOn(mkSpace, spotOpts)
	if err != nil {
		log.Fatal(err)
	}
	mkResPar, _, err := searchOn(mkSpace, spotParOpts)
	if err != nil {
		log.Fatal(err)
	}
	if !odRes.Feasible || !mkRes.Feasible {
		log.Fatalf("spot searches infeasible: ondemand %v, market %v", odRes.Feasible, mkRes.Feasible)
	}
	if mkRes.BestEval.Value != mkResPar.BestEval.Value || mkRes.Feasible != mkResPar.Feasible {
		log.Fatalf("market objective device-dependent: sequential %v (feasible %v) vs parallel %v (feasible %v)",
			mkRes.BestEval.Value, mkRes.Feasible, mkResPar.BestEval.Value, mkResPar.Feasible)
	}
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
		Benchmark:             "complete cost search, loose deadline; on-demand-only columns vs spot markets (clearing-price process + revocation rework), feasibility and spot < on-demand asserted, market objective bit-equal across sequential and parallel devices; expansion halves measured at the all-cheapest and all-cheapest-spot states",
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
	odProb, err := opt.Compile(odSpace, spotOpts)
	if err != nil {
		log.Fatal(err)
	}
	mkProb, err := opt.Compile(mkSpace, spotOpts)
	if err != nil {
		log.Fatal(err)
	}
	if _, kids, _, err := odProb.EvaluateExpansion(odParent); err != nil { // warm
		log.Fatal(err)
	} else {
		spot.OnDemandBatchStates = 1 + len(kids)
	}
	if _, kids, _, err := mkProb.EvaluateExpansion(mkParent); err != nil { // warm
		log.Fatal(err)
	} else {
		spot.MarketBatchStates = 1 + len(kids)
	}
	if spot.OnDemand, err = measure(func(int64) error {
		_, _, _, err := odProb.EvaluateExpansion(odParent)
		return err
	}); err != nil {
		log.Fatal(err)
	}
	if spot.Market, err = measure(func(int64) error {
		_, _, _, err := mkProb.EvaluateExpansion(mkParent)
		return err
	}); err != nil {
		log.Fatal(err)
	}
	spot.finish()
	rep.SchedulingSpot = spot

	// Ensemble admission: the fallback re-evaluates every expansion; the
	// compiled problem binds the eval cache once, so the steady state of
	// repeated expansions over one planned space is answered from it.
	ensSpace, ensBatch := buildEnsembleBench(32)
	ensProb, err := opt.Compile(ensSpace, opt.Options{
		Maximize: true, Seed: 1, Device: device.Sequential{}, Cache: opt.NewEvalCache(0),
	})
	if err != nil {
		log.Fatal(err)
	}
	ens := &useCaseRow{
		Benchmark: "admission batch (beam expansions, 32 workflows), ensemble space; compiled row includes the bound eval cache",
		States:    len(ensBatch),
	}
	if ens.Old, err = measure(func(base int64) error { return legacyAdmissionBatch(ensSpace, ensBatch, base) }); err != nil {
		log.Fatal(err)
	}
	if ens.New, err = measure(func(base int64) error { _, err := ensProb.EvaluateStates(ensBatch); return err }); err != nil {
		log.Fatal(err)
	}
	ens.ratios()
	rep.Ensemble = ens

	// Follow-the-cost decision point: the compiled row pays the runtime
	// snapshot and Compile per iteration (decision points are
	// content-distinct in production, so no cache) and still wins on the
	// dense per-state arithmetic.
	ftcRT, ftcBatch, err := buildFTCBench(12, 30)
	if err != nil {
		log.Fatal(err)
	}
	ftcRow := &useCaseRow{
		Benchmark: "placement batch (one decision point, 12 jobs), follow-the-cost space; compiled row includes the per-decision snapshot",
		States:    len(ftcBatch),
	}
	if ftcRow.Old, err = measure(func(base int64) error { return legacyPlacementBatch(ftcRT, ftcBatch, base) }); err != nil {
		log.Fatal(err)
	}
	if ftcRow.New, err = measure(func(base int64) error {
		prob, err := opt.Compile(ftc.NewSpace(ftcRT), opt.Options{Seed: 1, Device: device.Sequential{}})
		if err != nil {
			return err
		}
		_, err = prob.EvaluateStates(ftcBatch)
		return err
	}); err != nil {
		log.Fatal(err)
	}
	ftcRow.ratios()
	rep.FTC = ftcRow

	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	doc = append(doc, '\n')
	if err := os.WriteFile(*out, doc, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scheduling: old %d ns/op %d allocs/op | new %d ns/op %d allocs/op | speedup %.1fx, allocs ratio %.1fx\n",
		oldRow.NsPerOp, oldRow.AllocsPerOp, newRow.NsPerOp, newRow.AllocsPerOp,
		rep.SpeedupNs, rep.AllocsRatio)
	fmt.Printf("sched-delta: full %d ns/op %d allocs/op | delta %d ns/op %d allocs/op | speedup %.1fx\n",
		delta.Old.NsPerOp, delta.Old.AllocsPerOp, delta.New.NsPerOp, delta.New.AllocsPerOp,
		delta.SpeedupNs)
	fmt.Printf("sched-adapt: fixed %d ns/op | adaptive %d ns/op (%d-state batch) | states/sec speedup %.1fx | search %d states, %d/%d worlds, objective %.4f on both\n",
		adapt.Fixed.NsPerOp, adapt.Adaptive.NsPerOp, adapt.BatchStates, adapt.SpeedupStatesPerSec,
		adapt.SearchStates, adapt.SearchWorldsRun, adapt.SearchWorldsRun+adapt.SearchWorldsSaved,
		adapt.AdaptiveObjective)
	fmt.Printf("sched-tail:  unordered %d ns/op | ordered %d ns/op (%d-state batch) | states/sec speedup %.1fx | search %d states, %d worlds run (%d reordered), objective %.4f on both\n",
		tail.Baseline.NsPerOp, tail.Ordered.NsPerOp, tail.BatchStates, tail.SpeedupStatesPerSec,
		tail.SearchStates, tail.SearchWorldsRun, tail.SearchWorldsReordered, tail.OrderedObjective)
	fmt.Printf("sched-group: plain %d ns/op | compound %d ns/op (%d-state batch) | states/sec speedup %.1fx | %d delta evals, %d fallbacks, %d plan hits, objective %.4f on both\n",
		groups.Baseline.NsPerOp, groups.Ordered.NsPerOp, groups.BatchStates, groups.SpeedupStatesPerSec,
		groups.DeltaEvals, groups.DeltaFallbacks, groups.ConePlanHits, groups.OrderedObjective)
	fmt.Printf("sched-spot:  ondemand $%.4f | market $%.4f (savings %.0f%%, %d/%d tasks on spot, bit-equal across devices) | expansion od %d ns/op (%d states) vs market %d ns/op (%d states), overhead %.2fx\n",
		spot.OnDemandObjective, spot.SpotObjective, 100*spot.SavingsFrac,
		spot.SpotAssignments, p.w.Len(),
		spot.OnDemand.NsPerOp, spot.OnDemandBatchStates,
		spot.Market.NsPerOp, spot.MarketBatchStates, spot.MarketOverheadRatio)
	fmt.Printf("ensemble:   old %d ns/op %d allocs/op | new %d ns/op %d allocs/op | speedup %.1fx, allocs ratio %.1fx\n",
		ens.Old.NsPerOp, ens.Old.AllocsPerOp, ens.New.NsPerOp, ens.New.AllocsPerOp,
		ens.SpeedupNs, ens.AllocsRatio)
	fmt.Printf("ftc:        old %d ns/op %d allocs/op | new %d ns/op %d allocs/op | speedup %.1fx, allocs ratio %.1fx\n",
		ftcRow.Old.NsPerOp, ftcRow.Old.AllocsPerOp, ftcRow.New.NsPerOp, ftcRow.New.AllocsPerOp,
		ftcRow.SpeedupNs, ftcRow.AllocsRatio)
	fmt.Printf("wrote %s\n", *out)
}
