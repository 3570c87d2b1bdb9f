package runtime

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	goruntime "runtime"
	"testing"

	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/device"
	"deco/internal/estimate"
	"deco/internal/opt"
	"deco/internal/probir"
	"deco/internal/sim"
	"deco/internal/wfgen"
	"deco/internal/wlog"
)

// scenario is the drift test-bed: a chain workflow planned on the cheapest
// type against calibrated forecasts, with a deadline the calibrated plan
// meets comfortably and a perturbable ground-truth catalog for execution.
type scenario struct {
	w        *dag.Workflow
	cat      *cloud.Catalog // calibration ground truth
	tbl      *estimate.Table
	prices   []float64
	plan     *sim.Plan
	deadline float64
	cons     []wlog.Constraint
}

func newScenario(t testing.TB) *scenario {
	t.Helper()
	cat := cloud.DefaultCatalog()
	meta, err := cloud.MetadataFromTruth(cat, 20, 400, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	est := estimate.New(cat, meta)
	w, err := wfgen.Pipeline(6, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := est.BuildTable(w)
	if err != nil {
		t.Fatal(err)
	}
	names := cat.TypeNames()
	prices := make([]float64, len(names))
	for j, n := range names {
		if prices[j], err = cat.Price(cloud.USEast, n); err != nil {
			t.Fatal(err)
		}
	}
	// Cheapest-type chain: the cost-minimal plan when the deadline leaves
	// this much slack.
	small := 0
	for j, n := range names {
		if n == "m1.small" {
			small = j
		}
	}
	mean := 0.0
	for _, tk := range w.Tasks {
		td, err := tbl.Dist(tk.ID, small)
		if err != nil {
			t.Fatal(err)
		}
		mean += td.Mean()
	}
	s := &scenario{
		w: w, cat: cat, tbl: tbl, prices: prices,
		plan:     sim.UniformPlan(w, "m1.small", cloud.USEast),
		deadline: 1.25 * mean,
	}
	s.cons = []wlog.Constraint{{Kind: "deadline", Percentile: 0.95, Bound: s.deadline}}
	return s
}

func (s *scenario) execCat(t *testing.T, factor float64) *cloud.Catalog {
	t.Helper()
	if factor == 1 {
		return s.cat
	}
	c, err := cloud.ScalePerf(s.cat, factor)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runOnce executes the scenario once. A nil monitor is an open-loop run.
func (s *scenario) runOnce(t *testing.T, factor float64, seed int64, o *Options) (*sim.Result, *Report) {
	t.Helper()
	sm, err := sim.New(sim.DefaultOptions(s.execCat(t, factor), rand.New(rand.NewSource(seed))))
	if err != nil {
		t.Fatal(err)
	}
	if o == nil {
		res, err := sm.Run(context.Background(), s.w, s.plan)
		if err != nil {
			t.Fatal(err)
		}
		return res, nil
	}
	mon, err := NewMonitor(s.w, s.plan, s.tbl, s.prices, cloud.USEast, s.cons, *o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sm.RunControlled(context.Background(), s.w, s.plan, mon)
	if err != nil {
		t.Fatal(err)
	}
	if mon.Err() != nil {
		t.Fatalf("monitor error: %v", mon.Err())
	}
	mon.Finish(res)
	return res, mon.Report()
}

// TestAdaptiveRecoversDeadlineUnderDrift is the acceptance scenario: the
// simulator's ground truth degrades to half the calibrated performance;
// open-loop execution of the calibrated plan misses the deadline, the
// monitored execution detects the drift, replans, and meets it — measured
// over 20 seeded runs.
func TestAdaptiveRecoversDeadlineUnderDrift(t *testing.T) {
	s := newScenario(t)
	const runs = 20
	const factor = 0.5
	openMiss, adaptMiss, replans := 0, 0, 0
	for i := 0; i < runs; i++ {
		seed := int64(100 + i)
		open, _ := s.runOnce(t, factor, seed, nil)
		if open.Makespan > s.deadline {
			openMiss++
		}
		o := &Options{Seed: seed, Iters: 150, ReplanBudget: 200}
		adapt, rep := s.runOnce(t, factor, seed, o)
		if adapt.Makespan > s.deadline {
			adaptMiss++
		}
		replans += rep.Replans
		if rep.Drift < 1.3 {
			t.Errorf("seed %d: learned drift %.2f, want > 1.3 under half-speed truth", seed, rep.Drift)
		}
	}
	if openMiss < runs*3/4 {
		t.Fatalf("scenario too weak: open-loop missed the deadline only %d/%d times", openMiss, runs)
	}
	if replans == 0 {
		t.Fatalf("no replans fired over %d drifted runs", runs)
	}
	if adaptMiss*2 >= openMiss {
		t.Fatalf("adaptation did not measurably reduce violations: open-loop %d/%d misses, adaptive %d/%d",
			openMiss, runs, adaptMiss, runs)
	}
	t.Logf("deadline %.0fs: open-loop missed %d/%d, adaptive missed %d/%d (%d replans)",
		s.deadline, openMiss, runs, adaptMiss, runs, replans)
}

// TestNoDriftNoSpuriousReplans: when execution matches calibration, the
// monitor must stay quiet — zero replans across seeds.
func TestNoDriftNoSpuriousReplans(t *testing.T) {
	s := newScenario(t)
	for i := 0; i < 10; i++ {
		seed := int64(500 + i)
		o := &Options{Seed: seed, Iters: 150, ReplanBudget: 200}
		res, rep := s.runOnce(t, 1, seed, o)
		if rep.Replans != 0 {
			t.Fatalf("seed %d: %d spurious replans without drift (risk max %.3f)", seed, rep.Replans, rep.RiskMax)
		}
		if res.Makespan > s.deadline {
			t.Errorf("seed %d: calibrated run missed its own deadline (%.1f > %.1f)", seed, res.Makespan, s.deadline)
		}
	}
}

// TestAdaptiveRunsAreDeterministic: the same seed must reproduce the exact
// event log and the exact final plan — monitoring decisions, replan
// searches, and the simulator all derive from explicit substreams.
func TestAdaptiveRunsAreDeterministic(t *testing.T) {
	s := newScenario(t)
	type outcome struct {
		events []byte
		cfg    map[string]string
		place  map[string]sim.Placement
		ms     float64
	}
	run := func(dev device.Device) outcome {
		o := &Options{Seed: 42, Iters: 150, ReplanBudget: 200, Device: dev}
		res, rep := s.runOnce(t, 0.5, 42, o)
		ev, err := json.Marshal(rep.Events)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{events: ev, cfg: rep.FinalConfig, place: res.Plan.Place, ms: res.Makespan}
	}
	// The residual kernels seed every world themselves, so risk estimates
	// and replan searches are identical on every device, run after run.
	a := run(device.Sequential{})
	for _, dev := range []device.Device{device.Sequential{}, device.TwoLevel{}, device.TwoLevel{NumWorkers: 3}} {
		b := run(dev)
		if string(a.events) != string(b.events) {
			t.Fatalf("%s: event logs differ between identical seeded runs:\n%s\n---\n%s", dev.Name(), a.events, b.events)
		}
		if !reflect.DeepEqual(a.cfg, b.cfg) {
			t.Fatalf("%s: final configs differ: %v vs %v", dev.Name(), a.cfg, b.cfg)
		}
		if !reflect.DeepEqual(a.place, b.place) {
			t.Fatalf("%s: final plans differ: %v vs %v", dev.Name(), a.place, b.place)
		}
		if a.ms != b.ms {
			t.Fatalf("%s: makespans differ: %v vs %v", dev.Name(), a.ms, b.ms)
		}
	}
	// The run must actually have adapted, or the test proves nothing.
	var evs []StreamEvent
	if err := json.Unmarshal(a.events, &evs); err != nil {
		t.Fatal(err)
	}
	sawReplan := false
	for _, e := range evs {
		if e.Kind == "replan" {
			sawReplan = true
		}
	}
	if !sawReplan {
		t.Fatal("determinism scenario produced no replan; tighten it")
	}
}

// TestResidualReduceMatchesNative pins the residual kernel's claim to share
// the solver's constraint semantics: a fresh residual (nothing started,
// drift 1, nothing accrued) values a configuration at the native mean cost,
// and from identical figure sums both kernels must reduce to identical
// Evaluations — for deadlines and budgets under the mean and percentile
// notions, with zero and positive bounds, feasible and infeasible.
func TestResidualReduceMatchesNative(t *testing.T) {
	s := newScenario(t)
	const iters = 40
	config := make([]int, s.w.Len())
	for i := range config {
		config[i] = i % len(s.tbl.Types)
	}
	type shape struct {
		kind     string
		mean     bool
		zero     bool
		feasible bool
	}
	seen := map[shape]bool{}
	// Zero prices make a zero-bound mean-notion budget satisfiable.
	for _, prices := range [][]float64{s.prices, make([]float64, len(s.prices))} {
		native, err := probir.NewNative(s.w, s.tbl, prices, probir.GoalCost, nil, iters)
		if err != nil {
			t.Fatal(err)
		}
		meanCost, err := native.MeanCost(config)
		if err != nil {
			t.Fatal(err)
		}
		var cases [][]wlog.Constraint
		for _, kind := range []string{"deadline", "budget"} {
			for _, pct := range []float64{-1, 0.9} {
				for _, bound := range []float64{0, meanCost / 2, 2 * meanCost, s.deadline} {
					cases = append(cases, []wlog.Constraint{{Kind: kind, Percentile: pct, Bound: bound}})
				}
			}
		}
		var all []wlog.Constraint
		for _, cons := range cases {
			all = append(all, cons...)
		}
		cases = append(cases, all)
		// Per figure: the sampled mean (makespan or cost) and the indicator
		// probability the synthetic sums encode.
		fills := [][2]float64{{0, 1}, {0.4 * s.deadline, 0.95}, {0.4 * meanCost, 0.5}, {3 * s.deadline, 0}}
		for ci, cons := range cases {
			native, err := probir.NewNative(s.w, s.tbl, prices, probir.GoalCost, cons, iters)
			if err != nil {
				t.Fatal(err)
			}
			kernels, err := native.Bind(context.Background(), 5)
			if err != nil {
				t.Fatal(err)
			}
			nk, err := kernels(config)
			if err != nil {
				t.Fatal(err)
			}
			mon, err := NewMonitor(s.w, s.plan, s.tbl, prices, cloud.USEast, cons, Options{Iters: iters})
			if err != nil {
				t.Fatal(err)
			}
			rk, err := mon.res.buildKernel(config, 5)
			if err != nil {
				t.Fatal(err)
			}
			if rk.mean != meanCost {
				t.Fatalf("fresh residual mean cost %v, native %v", rk.mean, meanCost)
			}
			if rk.Width() != nk.Width() || rk.Worlds() != nk.Worlds() {
				t.Fatalf("case %d: residual layout %dx%d, native %dx%d",
					ci, rk.Worlds(), rk.Width(), nk.Worlds(), nk.Width())
			}
			ind, _, _ := rk.Indicators()
			for _, fill := range fills {
				sums := make([]float64, rk.Width())
				for w := range sums {
					sums[w] = fill[0] * iters
				}
				for _, fi := range ind {
					sums[fi] = fill[1] * iters
				}
				want, err := nk.Reduce(sums)
				if err != nil {
					t.Fatal(err)
				}
				got, err := rk.Reduce(sums)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("case %d %+v, sums %v: residual %+v, native %+v", ci, cons, sums, got, want)
				}
				if len(cons) == 1 {
					c := cons[0]
					seen[shape{c.Kind, c.Percentile < 0, c.Bound == 0, got.Feasible}] = true
				}
			}
		}
	}
	for _, kind := range []string{"deadline", "budget"} {
		for _, mean := range []bool{true, false} {
			for _, zero := range []bool{true, false} {
				for _, feasible := range []bool{true, false} {
					if sh := (shape{kind, mean, zero, feasible}); !seen[sh] {
						t.Errorf("constraint shape %+v never exercised", sh)
					}
				}
			}
		}
	}
}

// midRunKernel builds the residual kernel of a mixed configuration over
// the scenario part-way through execution: the first task finished at 1.5
// times its forecast, the second has run for its drifted mean (so about
// half of condSample's rejection draws fail and the draw count varies by
// world) and the rest are unstarted.
func midRunKernel(t testing.TB, s *scenario, iters int, base int64) *residualKernel {
	t.Helper()
	cons := []wlog.Constraint{{Kind: "deadline", Percentile: 0.9, Bound: s.deadline}, {Kind: "budget", Percentile: 0.8, Bound: 1}}
	mon, err := NewMonitor(s.w, s.plan, s.tbl, s.prices, cloud.USEast, cons, Options{Iters: iters, MaxReplans: -1})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := s.w.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	config := make([]int, s.w.Len())
	for i := range config {
		config[i] = i % len(s.tbl.Types)
	}
	first, err := s.tbl.Dist(ids[0], mon.types["m1.small"])
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.tbl.Dist(ids[1], config[mon.index[ids[1]]])
	if err != nil {
		t.Fatal(err)
	}
	d := 1.5 * first.Mean()
	mon.OnEvent(sim.Event{Kind: sim.EvTaskStart, Task: ids[0], Type: "m1.small"})
	mon.OnEvent(sim.Event{Kind: sim.EvTaskFinish, Time: d, Task: ids[0], Type: "m1.small", Duration: d, AccruedCost: 0.02})
	mon.OnEvent(sim.Event{Kind: sim.EvTaskStart, Time: d, Task: ids[1], Type: "m1.small"})
	// In a chain no finish follows the second start, so advance the clock
	// by hand.
	elapsed := mon.res.drift * second.Mean()
	mon.res.now = d + elapsed
	mon.res.elapsed[mon.index[ids[1]]] = elapsed
	k, err := mon.res.buildKernel(config, base)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestResidualWorldsFollowMixSeed pins the residual kernel's worlds to
// their substreams: a chunk sampled with one restarted stream gives every
// figure bit for bit as a world drawn from a fresh probir.Stream seeded at
// probir.MixSeed(base, it).
func TestResidualWorldsFollowMixSeed(t *testing.T) {
	const iters, base = 24, 7
	k := midRunKernel(t, newScenario(t), iters, base)
	width := k.Width()
	got := make([]float64, iters*width)
	if err := k.Sample(0, iters, got); err != nil {
		t.Fatal(err)
	}
	finish := make([]float64, len(k.r.ids))
	want := make([]float64, width)
	for it := 0; it < iters; it++ {
		clear(want)
		src := new(probir.Stream)
		src.Seed(probir.MixSeed(base, it))
		k.world(rand.New(src), finish, want)
		for f := range want {
			if math.Float64bits(got[it*width+f]) != math.Float64bits(want[f]) {
				t.Fatalf("world %d figure %d: chunk %v, fresh stream %v", it, f, got[it*width+f], want[f])
			}
		}
	}
}

// TestResidualChunkSplit: a world's figures do not depend on the chunk it
// is sampled in. Sample(0, n) equals Sample(0, m) followed by Sample(m, n)
// bit for bit, for splits at every width down to one-world chunks, and
// equals n one-world chunks.
func TestResidualChunkSplit(t *testing.T) {
	const iters = 40
	k := midRunKernel(t, newScenario(t), iters, 11)
	width := k.Width()
	whole := make([]float64, iters*width)
	if err := k.Sample(0, iters, whole); err != nil {
		t.Fatal(err)
	}
	check := func(name string, got []float64) {
		t.Helper()
		for i := range whole {
			if math.Float64bits(got[i]) != math.Float64bits(whole[i]) {
				t.Fatalf("%s: world %d figure %d: %v, whole chunk %v", name, i/width, i%width, got[i], whole[i])
			}
		}
	}
	for _, m := range []int{1, 2, 7, iters / 2, iters - 1} {
		got := make([]float64, iters*width)
		if err := k.Sample(0, m, got[:m*width]); err != nil {
			t.Fatal(err)
		}
		if err := k.Sample(m, iters, got[m*width:]); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("split at %d", m), got)
	}
	got := make([]float64, iters*width)
	for it := 0; it < iters; it++ {
		if err := k.Sample(it, it+1, got[it*width:(it+1)*width]); err != nil {
			t.Fatal(err)
		}
	}
	check("one-world chunks", got)
}

// TestResidualSampleAllocs caps what one chunk allocates, whatever its
// width: two allocations (the finish-time scratch and the chunk's stream)
// of no more than the scratch plus 128 bytes. Per-world allocations break
// the count; a per-chunk math/rand source, a ~5 KB state, breaks the bytes.
func TestResidualSampleAllocs(t *testing.T) {
	const iters, runs = 64, 20
	k := midRunKernel(t, newScenario(t), iters, 3)
	width := k.Width()
	out := make([]float64, iters*width)
	maxBytes := uint64(8*len(k.r.ids) + 128)
	for _, n := range []int{1, 8, iters} {
		sample := func() {
			clear(out)
			if err := k.Sample(0, n, out[:n*width]); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(runs, sample); allocs > 2 {
			t.Errorf("%d-world chunk: %v allocations, cap 2", n, allocs)
		}
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			sample()
		}
		goruntime.ReadMemStats(&after)
		if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > maxBytes {
			t.Errorf("%d-world chunk: %d bytes allocated, cap %d", n, b, maxBytes)
		}
	}
}

// BenchmarkResidualRisk times the monitor's risk evaluation on the
// scenario part-way through execution, run sequentially, and reports the
// cost of one residual world.
func BenchmarkResidualRisk(b *testing.B) {
	const iters = 200
	k := midRunKernel(b, newScenario(b), iters, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := probir.RunKernel(k); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*iters), "ns/world")
}

// TestReplanSearchStartsOnRiskWorlds: a replan search evaluates every
// candidate over the worlds of the risk evaluation that triggered it, so
// its evaluation of its start state — the current plan — is that risk
// evaluation, bit for bit, on every device. The replan then compares its
// candidates with the current plan on the same worlds.
func TestReplanSearchStartsOnRiskWorlds(t *testing.T) {
	s := newScenario(t)
	ids, err := s.w.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	small := 0
	for j, name := range s.tbl.Types {
		if name == "m1.small" {
			small = j
		}
	}
	td, err := s.tbl.Dist(ids[0], small)
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range []device.Device{device.Sequential{}, device.TwoLevel{}, device.TwoLevel{NumWorkers: 3}} {
		m, err := NewMonitor(s.w, s.plan, s.tbl, s.prices, cloud.USEast, s.cons,
			Options{Seed: 42, Iters: 150, ReplanBudget: 1, Device: dev})
		if err != nil {
			t.Fatal(err)
		}
		// The first task overran its forecast; the second is running.
		d := 1.25 * td.Mean()
		m.OnEvent(sim.Event{Kind: sim.EvTaskStart, Task: ids[0], Type: "m1.small"})
		m.OnEvent(sim.Event{Kind: sim.EvTaskFinish, Time: d, Task: ids[0], Type: "m1.small", Duration: d, AccruedCost: 0.06})
		m.OnEvent(sim.Event{Kind: sim.EvTaskStart, Time: d, Task: ids[1], Type: "m1.small"})
		base := probir.MixSeed(m.opt.Seed, m.decisions)
		cur, err := m.assess(base)
		if err != nil {
			t.Fatal(err)
		}
		if p := cur.ConsProb[0]; p <= 0 || p >= 1 {
			t.Fatalf("%s: P(deadline) = %v: every world agrees, so the pairing is untested", dev.Name(), p)
		}
		res, err := m.replanSearch(base)
		if err != nil {
			t.Fatal(err)
		}
		if res.Evaluated != 1 || !reflect.DeepEqual([]int(res.Best), m.config) {
			t.Fatalf("%s: search evaluated %d states, best %v; want only the start %v", dev.Name(), res.Evaluated, res.Best, m.config)
		}
		if !reflect.DeepEqual(res.BestEval, cur) {
			t.Errorf("%s: replan start evaluates to %+v, the risk evaluation to %+v", dev.Name(), res.BestEval, cur)
		}
	}
}

// TestResidualMovesMatchReference holds the replan moves to the clone-based
// generator they replaced: ±1 per unstarted task, then ±1 over every
// unstarted task that can move. The children match in order and content,
// every move lists exactly the components it changes, and started tasks
// never move.
func TestResidualMovesMatchReference(t *testing.T) {
	const numTypes = 4
	sp := &residualSpace{unstarted: []int32{1, 2, 4, 5}, numTypes: numTypes}
	for _, st := range []opt.State{{0, 0, 0, 0, 0, 0}, {3, 3, 3, 3, 3, 3}, {2, 0, 3, 1, 1, 2}} {
		var want []opt.State
		for _, i := range sp.unstarted {
			for _, d := range []int{1, -1} {
				j := st[i] + d
				if j < 0 || j >= numTypes {
					continue
				}
				c := append(opt.State(nil), st...)
				c[i] = j
				want = append(want, c)
			}
		}
		for _, d := range []int{1, -1} {
			c := append(opt.State(nil), st...)
			moved := false
			for _, i := range sp.unstarted {
				if j := st[i] + d; j >= 0 && j < numTypes {
					c[i] = j
					moved = true
				}
			}
			if moved {
				want = append(want, c)
			}
		}
		moves := sp.Neighbors(st)
		if len(moves) != len(want) {
			t.Fatalf("%v: %d moves, reference %d", st, len(moves), len(want))
		}
		for i, mv := range moves {
			child := mv.Apply(nil, st)
			if !reflect.DeepEqual(child, want[i]) {
				t.Fatalf("%v: move %d gives %v, reference %v", st, i, child, want[i])
			}
			var changed []int32
			for j := range st {
				if child[j] != st[j] {
					changed = append(changed, int32(j))
				}
			}
			if !reflect.DeepEqual(mv.Tasks, changed) {
				t.Fatalf("%v: move %d lists %v, changes %v", st, i, mv.Tasks, changed)
			}
		}
	}
}
