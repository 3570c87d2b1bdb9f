package ftc

import (
	"math/rand"
	"slices"
	"testing"

	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/device"
	"deco/internal/estimate"
	"deco/internal/opt"
	"deco/internal/wfgen"
)

func env(t *testing.T) (*cloud.Catalog, *estimate.Estimator) {
	t.Helper()
	cat := cloud.DefaultCatalog()
	md, err := cloud.MetadataFromTruth(cat, 12, 3000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return cat, estimate.New(cat, md)
}

// mkJobs builds n pipeline jobs initially placed in the given region.
func mkJobs(t *testing.T, est *estimate.Estimator, n, region int, deadline float64) []*Job {
	t.Helper()
	return mkJobsLen(t, est, n, region, deadline, 6)
}

// mkJobsLen builds n pipeline jobs of the given length. Short pipelines
// carry too little remaining work for migration to pay off (the 20MB
// transfer outweighs the price difference); migration tests use long ones.
func mkJobsLen(t *testing.T, est *estimate.Estimator, n, region int, deadline float64, length int) []*Job {
	t.Helper()
	jobs := make([]*Job, n)
	for i := range jobs {
		w, err := wfgen.Pipeline(length, rand.New(rand.NewSource(int64(10+i))))
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := est.BuildTable(w)
		if err != nil {
			t.Fatal(err)
		}
		j, err := NewJob(w, tbl, region, 1, deadline)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	return jobs
}

func TestJobLifecycle(t *testing.T) {
	_, est := env(t)
	jobs := mkJobs(t, est, 1, 0, 0)
	j := jobs[0]
	if j.Done() {
		t.Fatal("fresh job done")
	}
	rem, err := j.RemainingMeanSec()
	if err != nil {
		t.Fatal(err)
	}
	if rem <= 0 {
		t.Fatal("no remaining work")
	}
	if j.LiveDataMB() <= 0 {
		t.Error("pipeline head should have live input data")
	}
}

func TestRuntimeRunsToCompletion(t *testing.T) {
	cat, est := env(t)
	jobs := mkJobs(t, est, 3, 0, 0)
	rt := &Runtime{Cat: cat, Jobs: jobs, Rng: rand.New(rand.NewSource(2)),
		Opt: NewHeuristic(0.5, 30)}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if !j.Done() {
			t.Error("job not finished")
		}
	}
	if res.ExecCost <= 0 || res.TotalCost < res.ExecCost {
		t.Errorf("costs wrong: %+v", res)
	}
}

func TestDecoMigratesFromExpensiveRegion(t *testing.T) {
	cat, est := env(t)
	// Jobs start in Singapore (33% pricier): Deco should move them to
	// US East once migration pays for itself.
	jobs := mkJobsLen(t, est, 4, 1, 0, 40)
	rt := &Runtime{Cat: cat, Jobs: jobs, Rng: rand.New(rand.NewSource(3)),
		Opt: NewDecoOptimizer(device.Sequential{}, 7)}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 {
		t.Error("Deco never migrated out of the expensive region")
	}
	for _, j := range jobs {
		if j.Region != 0 {
			t.Errorf("job ended in region %d, want us-east", j.Region)
		}
	}
}

func TestDecoBeatsStayingPut(t *testing.T) {
	cat, est := env(t)
	run := func(o Optimizer, seed int64) *Result {
		jobs := mkJobsLen(t, est, 4, 1, 0, 40)
		rt := &Runtime{Cat: cat, Jobs: jobs, Rng: rand.New(rand.NewSource(seed)), Opt: o}
		res, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	deco := run(NewDecoOptimizer(device.Sequential{}, 7), 4)
	stay := run(stayPut{}, 4)
	if deco.TotalCost >= stay.TotalCost {
		t.Errorf("deco %v not cheaper than staying put %v", deco.TotalCost, stay.TotalCost)
	}
}

// stayPut never migrates.
type stayPut struct{}

func (stayPut) Name() string { return "stay" }
func (stayPut) Decide(rt *Runtime) ([]int, []float64, error) {
	regions := make([]int, len(rt.Jobs))
	for i, j := range rt.Jobs {
		regions[i] = j.Region
	}
	return regions, nil, nil
}

func TestHeuristicOfflinePlanMigratesOnce(t *testing.T) {
	cat, est := env(t)
	jobs := mkJobsLen(t, est, 2, 1, 0, 40)
	rt := &Runtime{Cat: cat, Jobs: jobs, Rng: rand.New(rand.NewSource(5)),
		Opt: NewHeuristic(10.0, 30)} // huge threshold: no runtime adjustments
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The offline plan should move both jobs to the cheap region exactly
	// once each (unless data outweighs savings — not the case for pipelines).
	if res.Migrations != 2 {
		t.Errorf("migrations %d, want 2 (offline only)", res.Migrations)
	}
}

func TestHeuristicLowThresholdPaysLag(t *testing.T) {
	cat, est := env(t)
	run := func(threshold float64) *Result {
		jobs := mkJobs(t, est, 3, 1, 0)
		rt := &Runtime{Cat: cat, Jobs: jobs, Rng: rand.New(rand.NewSource(6)),
			Opt: NewHeuristic(threshold, 600)}
		res, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	low := run(0.001) // re-optimizes after nearly every task
	high := run(0.9)
	if low.TotalCost <= high.TotalCost {
		t.Errorf("low threshold (%v) should cost more than high (%v) due to lag",
			low.TotalCost, high.TotalCost)
	}
}

func TestSpaceEvaluateAndNeighbors(t *testing.T) {
	cat, est := env(t)
	jobs := mkJobsLen(t, est, 2, 1, 1e9, 40)
	rt := &Runtime{Cat: cat, Jobs: jobs, Rng: rand.New(rand.NewSource(7)),
		Opt: stayPut{}}
	sp := &Space{rt: rt}
	init := sp.Initial()
	if init[0] != 1 || init[1] != 1 {
		t.Fatalf("initial %v", init)
	}
	ns := sp.Neighbors(init)
	if len(ns) != 2 { // two jobs × one other region
		t.Fatalf("neighbors %v", ns)
	}
	evStay, err := sp.Evaluate(init, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	evMove, err := sp.Evaluate(opt.State{0, 0}, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	// Migrating to the cheap region must reduce expected remaining cost for
	// these long pipelines.
	if evMove.Value >= evStay.Value {
		t.Errorf("move %v not cheaper than stay %v", evMove.Value, evStay.Value)
	}
	if !evStay.Feasible || !evMove.Feasible {
		t.Error("huge deadline should be feasible")
	}
	if _, err := sp.Evaluate(opt.State{9, 9}, rand.New(rand.NewSource(8))); err == nil {
		t.Error("bad region accepted")
	}
}

func TestDeadlineBlocksMigration(t *testing.T) {
	cat, est := env(t)
	jobs := mkJobs(t, est, 1, 1, 1)
	rt := &Runtime{Cat: cat, Jobs: jobs, Rng: rand.New(rand.NewSource(9)), Opt: stayPut{}}
	sp := &Space{rt: rt}
	// Any state is deadline-violating (1-second deadline): evaluation must
	// mark infeasibility with a violation gradient.
	ev, err := sp.Evaluate(sp.Initial(), rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Feasible || ev.Violation <= 0 {
		t.Errorf("expected infeasible with violation, got %+v", ev)
	}
}

func TestMigrationChargesNetworkCost(t *testing.T) {
	cat, est := env(t)
	jobs := mkJobs(t, est, 1, 1, 0)
	j := jobs[0]
	rt := &Runtime{Cat: cat, Jobs: jobs, Rng: rand.New(rand.NewSource(11)), Opt: stayPut{}}
	data := j.LiveDataMB()
	if err := rt.migrate(j, 0); err != nil {
		t.Fatal(err)
	}
	want := data / 1024 * 0.12 // Singapore egress
	if j.MigCost != want {
		t.Errorf("migration cost %v, want %v", j.MigCost, want)
	}
	if j.Region != 0 || j.Migrations != 1 {
		t.Errorf("job state %+v", j)
	}
	if j.Elapsed <= 0 {
		t.Error("migration should take time")
	}
}

func TestLiveDataShrinksAsTasksComplete(t *testing.T) {
	cat, est := env(t)
	jobs := mkJobs(t, est, 1, 0, 0)
	j := jobs[0]
	rt := &Runtime{Cat: cat, Jobs: jobs, Rng: rand.New(rand.NewSource(12)), Opt: stayPut{}}
	before := j.LiveDataMB()
	if _, err := rt.Step(); err != nil {
		t.Fatal(err)
	}
	after := j.LiveDataMB()
	// For a pipeline, live data stays bounded (one file between stages).
	if after > before+1e-9 {
		t.Errorf("live data grew: %v -> %v", before, after)
	}
	// Drift was recorded.
	if j.lastDrift < 0 {
		t.Error("drift not recorded")
	}
}

func TestDagImportUsed(t *testing.T) {
	// Silence any unused-import drift: ensure dag types appear in API.
	var _ *dag.Workflow = nil
}

// threeRegionCatalog extends the default catalog with a third, cheapest
// region to exercise multi-region (>2) placement decisions.
func threeRegionCatalog() *cloud.Catalog {
	cat := cloud.DefaultCatalog()
	cheap := map[string]float64{}
	for k, v := range cat.Regions[0].PricePerHour {
		cheap[k] = v * 0.8
	}
	third := cloud.Region{
		Name:          "eu-cheap-1",
		PricePerHour:  cheap,
		NetPricePerGB: map[string]float64{cat.Regions[0].Name: 0.07, cat.Regions[1].Name: 0.10},
	}
	cat.Regions[0].NetPricePerGB[third.Name] = 0.08
	cat.Regions[1].NetPricePerGB[third.Name] = 0.11
	cat.Regions = append(cat.Regions, third)
	return cat
}

func TestThreeRegionMigrationPicksCheapest(t *testing.T) {
	cat := threeRegionCatalog()
	md, err := cloud.MetadataFromTruth(cat, 12, 3000, rand.New(rand.NewSource(50)))
	if err != nil {
		t.Fatal(err)
	}
	est := estimate.New(cat, md)
	var jobs []*Job
	for i := 0; i < 3; i++ {
		w, err := wfgen.Funnel(40, 6000, 20, rand.New(rand.NewSource(int64(60+i))))
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := est.BuildTable(w)
		if err != nil {
			t.Fatal(err)
		}
		j, err := NewJob(w, tbl, 1, 1, 0) // start in Singapore (most expensive)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	rt := &Runtime{Cat: cat, Jobs: jobs, Rng: rand.New(rand.NewSource(51)),
		Opt: NewDecoOptimizer(device.Sequential{}, 52)}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.Region != 2 {
			t.Errorf("job ended in region %d, want the cheapest (2)", j.Region)
		}
	}
	// The space enumerates two alternative regions per unfinished job.
	jobs2 := jobs[:1]
	jobs2[0].next = 0 // pretend unfinished
	sp := &Space{rt: &Runtime{Cat: cat, Jobs: jobs2, Rng: rand.New(rand.NewSource(53)), Opt: stayPut{}}}
	if ns := sp.Neighbors(sp.Initial()); len(ns) != 2 {
		t.Errorf("neighbors %d, want 2 (three regions minus current)", len(ns))
	}
}

// TestSpaceMovesMatchReference holds the placement moves to the clone-based
// generator they replaced, over three regions with one finished job: the
// children match in order and content, and every move lists exactly the job
// it migrates.
func TestSpaceMovesMatchReference(t *testing.T) {
	_, est := env(t)
	jobs := mkJobs(t, est, 4, 0, 1e9)
	jobs[1].next = len(jobs[1].order) // finished: never moves
	rt := &Runtime{Cat: threeRegionCatalog(), Jobs: jobs, Rng: rand.New(rand.NewSource(7)), Opt: stayPut{}}
	sp := &Space{rt: rt}
	for _, st := range []opt.State{sp.Initial(), {2, 0, 1, 0}, {1, 2, 2, 0}} {
		var want []opt.State
		for i, j := range rt.Jobs {
			if j.Done() {
				continue
			}
			for r := range rt.Cat.Regions {
				if r == st[i] {
					continue
				}
				c := st.Clone()
				c[i] = r
				want = append(want, c)
			}
		}
		moves := sp.Neighbors(st)
		if len(moves) != len(want) {
			t.Fatalf("%v: %d moves, reference %d", st, len(moves), len(want))
		}
		for i, mv := range moves {
			child := mv.Apply(nil, st)
			if !slices.Equal(child, want[i]) {
				t.Fatalf("%v: move %d gives %v, reference %v", st, i, child, want[i])
			}
			if len(mv.Tasks) != 1 || st[mv.Tasks[0]] == child[mv.Tasks[0]] {
				t.Fatalf("%v: move %d lists %v, want the one migrated job", st, i, mv.Tasks)
			}
		}
	}
}
