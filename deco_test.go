package deco

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/device"
	"deco/internal/opt"
	"deco/internal/wfgen"
	"deco/internal/wlog"
)

func newTestEngine(t *testing.T, options ...Option) *Engine {
	t.Helper()
	base := []Option{WithSeed(1), WithIters(40), WithSearchBudget(2000)}
	eng, err := NewEngine(append(base, options...)...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// mediumDeadline computes the paper's default "medium" deadline for w:
// (Dmin + Dmax)/2 with Dmin/Dmax the mean critical-path times on m1.small
// and m1.xlarge.
func mediumDeadline(t *testing.T, eng *Engine, w *dag.Workflow) float64 {
	t.Helper()
	tbl, err := eng.Estimator().BuildTable(w)
	if err != nil {
		t.Fatal(err)
	}
	ms := func(idx int) float64 {
		cfg := map[string]int{}
		for _, task := range w.Tasks {
			cfg[task.ID] = idx
		}
		means, err := tbl.MeanDurations(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := w.Makespan(means)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	return (ms(0) + ms(3)) / 2
}

func TestScheduleMontage(t *testing.T) {
	eng := newTestEngine(t)
	w, err := wfgen.Montage(1, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	d := mediumDeadline(t, eng, w)
	plan, err := eng.Schedule(w, Deadline{Percentile: 0.96, Seconds: d})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatalf("medium deadline should be feasible: %+v", plan.ConsProb)
	}
	if plan.EstimatedCost <= 0 {
		t.Error("no cost estimate")
	}
	if len(plan.Config) != w.Len() {
		t.Errorf("config covers %d of %d tasks", len(plan.Config), w.Len())
	}
	// Assignments are consistent with TypeOf.
	asg := plan.Assignments()
	for id, typ := range asg {
		got, err := plan.TypeOf(id)
		if err != nil || got != typ {
			t.Fatalf("TypeOf(%s) = %s/%v, assignments %s", id, got, err, typ)
		}
	}
	if _, err := plan.TypeOf("nosuch"); err == nil {
		t.Error("unknown task accepted")
	}
	if plan.StatesEvaluated < 1 {
		t.Error("solver did not run")
	}
}

// TestScheduleSeedWithNegativeBandwidthDraw schedules under a seed whose
// metadata discretization draws a negative m1.small network rate; the
// bandwidth histograms must bin positive draws only, so the estimator
// accepts them.
func TestScheduleSeedWithNegativeBandwidthDraw(t *testing.T) {
	eng := newTestEngine(t, WithSeed(486206), WithIters(20), WithSearchBudget(200))
	w, err := wfgen.Pipeline(4, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := eng.Schedule(w, Deadline{Percentile: 0.9, Seconds: mediumDeadline(t, eng, w)})
	if err != nil {
		t.Fatal(err)
	}
	if plan.EstimatedCost <= 0 {
		t.Error("no cost estimate")
	}
}

func TestScheduleValidation(t *testing.T) {
	eng := newTestEngine(t)
	w, _ := wfgen.Pipeline(3, rand.New(rand.NewSource(3)))
	if _, err := eng.Schedule(w, Deadline{Percentile: 0.96, Seconds: 0}); err == nil {
		t.Error("zero deadline accepted")
	}
}

func TestPercentileAboveOneRejected(t *testing.T) {
	eng := newTestEngine(t)
	w, _ := wfgen.Pipeline(4, rand.New(rand.NewSource(3)))
	for _, pct := range []float64{95, math.NaN()} {
		d, b := Deadline{Percentile: pct, Seconds: 1e9}, Budget{Percentile: pct, Dollars: 1e9}
		calls := map[string]func() error{
			"Schedule": func() error { _, err := eng.Schedule(w, d); return err },
			"ScheduleForPerformance": func() error {
				_, err := eng.ScheduleForPerformance(w, b)
				return err
			},
			"ScheduleConstrained/deadline": func() error {
				_, err := eng.ScheduleConstrained(w, true, d, Budget{})
				return err
			},
			"ScheduleConstrained/budget": func() error {
				_, err := eng.ScheduleConstrained(w, false, Deadline{}, b)
				return err
			},
			"RunEnsemble": func() error {
				_, err := eng.RunEnsemble(EnsembleSpec{Kind: "constant", App: "ligo", N: 2, Budget: 5, DeadlinePercentile: pct})
				return err
			},
		}
		for name, call := range calls {
			if err := call(); err == nil || !strings.Contains(err.Error(), "percentile") {
				t.Errorf("%s with percentile %v: err = %v, want a percentile error", name, pct, err)
			}
		}
	}
}

func TestConstraintsKeepValidPercentiles(t *testing.T) {
	cons, err := constraints(Deadline{Percentile: 0.9, Seconds: 100}, Budget{Percentile: 0, Dollars: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := []wlog.Constraint{
		{Kind: "deadline", Percentile: 0.9, Bound: 100},
		{Kind: "budget", Percentile: -1, Bound: 5},
	}
	if !reflect.DeepEqual(cons, want) {
		t.Errorf("constraints = %+v, want %+v", cons, want)
	}
	// A zero bound drops its constraint, whatever its percentile.
	if cons, err := constraints(Deadline{Percentile: 95}, Budget{Percentile: 1, Dollars: 5}); err != nil || len(cons) != 1 {
		t.Errorf("constraints = %+v, %v, want the budget alone", cons, err)
	}
}

func TestRunProgramNativePath(t *testing.T) {
	eng := newTestEngine(t)
	// Montage-1 exceeds prologMaxTasks, so the engine must recognize the
	// standard constructs and take the native path.
	src := `
import(amazonec2).
import(montage).
minimize Ct in totalcost(Ct).
T in maxtime(Path,T) satisfies deadline(95%,10h).
configs(Tid,Vid,Con) forall task(Tid) and vm(Vid).
`
	plan, err := eng.RunProgram(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Workflow.Len() < 20 {
		t.Errorf("montage import produced %d tasks", plan.Workflow.Len())
	}
	if !plan.Feasible {
		t.Errorf("10h deadline should be feasible for Montage-1")
	}
}

// userRuleProgram defines its goal and deadline with user rules, so the
// engine interprets it with the Prolog machine rather than the native
// evaluator.
const userRuleProgram = `
import(amazonec2).
minimize Ct in totalcost(Ct).
T in maxtime(Path,T) satisfies deadline(90%,10h).
configs(Tid,Vid,Con) forall task(Tid) and vm(Vid).

path(X,Y,Y,Tp) :- edge(X,Y), exetime(X,Vid,T), configs(X,Vid,Con), Con==1, Tp is T.
path(X,Y,Z,Tp) :- edge(X,Z), Z\==Y, path(Z,Y,Z2,T1), exetime(X,Vid,T),
  configs(X,Vid,Con), Con==1, Tp is T+T1.
maxtime(Path,T) :- setof([Z,T1], path(root,tail,Z,T1), Set), max(Set, [Path,T]).
cost(Tid,Vid,C) :- price(Vid,Up), exetime(Tid,Vid,T), configs(Tid,Vid,Con), C is T*Up*Con.
totalcost(Ct) :- findall(C, cost(Tid,Vid,C), Bag), sum(Bag, Ct).
`

func TestRunProgramPrologPathWithUserRules(t *testing.T) {
	eng := newTestEngine(t, WithIters(30))
	w, err := wfgen.Pipeline(3, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := eng.RunProgram(userRuleProgram, w)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Error("loose deadline infeasible")
	}
	if plan.EstimatedCost <= 0 {
		t.Error("no cost")
	}
}

// mytimeProgram minimizes a makespan defined by a user rule the engine has
// no built-in name for, so its goal value is in seconds.
const mytimeProgram = `
import(amazonec2).
minimize T in mytime(Path,T).
configs(Tid,Vid,Con) forall task(Tid) and vm(Vid).

path(X,Y,Y,Tp) :- edge(X,Y), exetime(X,Vid,T), configs(X,Vid,Con), Con==1, Tp is T.
path(X,Y,Z,Tp) :- edge(X,Z), Z\==Y, path(Z,Y,Z2,T1), exetime(X,Vid,T),
  configs(X,Vid,Con), Con==1, Tp is T+T1.
mytime(Path,T) :- setof([Z,T1], path(root,tail,Z,T1), Set), max(Set, [Path,T]).
`

// TestRunProgramPrologPathReportsPackedCost: an interpreted plan reports
// the packed, hour-billed dollar cost as its EstimatedCost, like every
// other plan, whatever its goal computes — seconds for mytime, the Eq. 1
// fractional cost for userRuleProgram's totalcost — and keeps the goal
// value as its Objective.
func TestRunProgramPrologPathReportsPackedCost(t *testing.T) {
	eng := newTestEngine(t, WithIters(30))
	w, err := wfgen.Pipeline(3, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := eng.Estimator().BuildTable(w)
	if err != nil {
		t.Fatal(err)
	}
	prices, err := eng.Prices()
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{"mytime": mytimeProgram, "userRuleProgram": userRuleProgram} {
		plan, err := eng.RunProgram(src, w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := opt.PackedMeanCost(w, plan.Config, tbl, prices, cloud.USEast)
		if err != nil {
			t.Fatal(err)
		}
		if plan.EstimatedCost != want {
			t.Errorf("%s: EstimatedCost %v, packed cost %v (objective %v)", name, plan.EstimatedCost, want, plan.Objective)
		}
	}
}

// TestRunProgramPrologPathDeviceInvariant runs the user-rule program on the
// sequential, parallel and two-level devices: concurrent worlds prove the
// same goal and constraint queries on pooled machines, and every figure of
// the plan must come out bit-identical. Run it under -race.
func TestRunProgramPrologPathDeviceInvariant(t *testing.T) {
	w, err := wfgen.Pipeline(3, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	var want *Plan
	for _, dev := range []device.Device{device.Sequential{}, device.TwoLevel{}, device.TwoLevel{NumWorkers: 3}} {
		eng := newTestEngine(t, WithIters(30), WithSearchBudget(200), WithDevice(dev))
		plan, err := eng.RunProgram(userRuleProgram, w)
		if err != nil {
			t.Fatalf("%s: %v", dev.Name(), err)
		}
		if want == nil {
			want = plan
			continue
		}
		if !reflect.DeepEqual(plan.Config, want.Config) || plan.EstimatedCost != want.EstimatedCost ||
			plan.Objective != want.Objective || plan.Feasible != want.Feasible ||
			!reflect.DeepEqual(plan.ConsProb, want.ConsProb) || plan.StatesEvaluated != want.StatesEvaluated {
			t.Errorf("%s: plan %v cost %v objective %v probs %v states %d; sequential %v cost %v objective %v probs %v states %d",
				dev.Name(), plan.Config, plan.EstimatedCost, plan.Objective, plan.ConsProb, plan.StatesEvaluated,
				want.Config, want.EstimatedCost, want.Objective, want.ConsProb, want.StatesEvaluated)
		}
	}
}

func TestRunProgramErrors(t *testing.T) {
	eng := newTestEngine(t)
	cases := []struct{ name, src string }{
		{"parse error", "minimize"},
		{"no goal", "import(montage)."},
		{"no workflow", "minimize C in totalcost(C)."},
		{"unknown import", "import(warpdrive).\nminimize C in totalcost(C)."},
		{"unknown goal for big wf", `import(montage).
minimize C in mysterycost(C).`},
		{"maximize scheduling", `import(montage).
maximize C in totalcost(C).`},
	}
	for _, c := range cases {
		if _, err := eng.RunProgram(c.src, nil); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestRunProgramRegionalImport(t *testing.T) {
	eng := newTestEngine(t)
	w, _ := wfgen.Pipeline(3, rand.New(rand.NewSource(5)))
	base := `
minimize Ct in totalcost(Ct).
T in maxtime(Path,T) satisfies deadline(95%,10h).
configs(Tid,Vid,Con) forall task(Tid) and vm(Vid).
`
	us, err := eng.RunProgram("import(amazonec2).\n"+base, w)
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := wfgen.Pipeline(3, rand.New(rand.NewSource(5)))
	sg, err := eng.RunProgram("import(amazonec2sg).\n"+base, w2)
	if err != nil {
		t.Fatal(err)
	}
	// Same workflow, pricier region: Singapore cost must exceed US East.
	if sg.EstimatedCost <= us.EstimatedCost {
		t.Errorf("sg %v should cost more than us %v", sg.EstimatedCost, us.EstimatedCost)
	}
}

func TestMaterializeAndExecute(t *testing.T) {
	eng := newTestEngine(t)
	w, err := wfgen.Montage(1, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	d := mediumDeadline(t, eng, w)
	plan, err := eng.Schedule(w, Deadline{Percentile: 0.96, Seconds: d})
	if err != nil {
		t.Fatal(err)
	}
	splan, err := plan.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if err := splan.Validate(w, eng.Catalog()); err != nil {
		t.Fatal(err)
	}
	rs, err := plan.Execute(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 5 {
		t.Fatalf("runs %d", len(rs))
	}
	for _, r := range rs {
		if r.Makespan <= 0 || r.TotalCost <= 0 {
			t.Errorf("degenerate run %+v", r)
		}
	}
	if _, err := plan.Execute(0, 7); err == nil {
		t.Error("zero runs accepted")
	}
}

func TestCalibrateInstallsMetadata(t *testing.T) {
	eng := newTestEngine(t)
	before := eng.Metadata()
	res, err := eng.Calibrate(500, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 4 {
		t.Fatalf("reports %d", len(res.Reports))
	}
	if eng.Metadata() == before {
		t.Error("metadata not replaced")
	}
	if err := eng.Metadata().Validate(eng.Catalog()); err != nil {
		t.Fatal(err)
	}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(WithIters(0)); err == nil {
		t.Error("iters 0 accepted")
	}
	bad := cloud.DefaultCatalog()
	bad.Regions = nil
	if _, err := NewEngine(WithCatalog(bad)); err == nil {
		t.Error("invalid catalog accepted")
	}
	if _, err := NewEngine(WithMetadata(cloud.NewMetadata())); err == nil {
		t.Error("incomplete metadata accepted")
	}
}

func TestPricesRegion(t *testing.T) {
	eng := newTestEngine(t, WithRegion(cloud.APSoutheast))
	prices, err := eng.Prices()
	if err != nil {
		t.Fatal(err)
	}
	if prices[0] != 0.044*1.33 {
		t.Errorf("sg m1.small price %v", prices[0])
	}
	if _, err := NewEngine(WithRegion("mars"), WithSeed(1)); err == nil {
		// Region errors surface on Prices/Schedule, not construction;
		// exercise that path.
		eng2, err2 := NewEngine(WithRegion("mars"))
		if err2 != nil {
			return
		}
		if _, err3 := eng2.Prices(); err3 == nil {
			t.Error("unknown region priced")
		}
	}
}

func TestScheduleForPerformance(t *testing.T) {
	eng := newTestEngine(t)
	w, err := wfgen.Montage(1, rand.New(rand.NewSource(30)))
	if err != nil {
		t.Fatal(err)
	}
	// Generous budget: the optimizer should buy speed.
	rich, err := eng.ScheduleForPerformance(w, Budget{Percentile: 0.96, Dollars: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !rich.Feasible {
		t.Fatalf("generous budget infeasible: %+v", rich.ConsProb)
	}
	// Tiny budget: slower plan.
	poor, err := eng.ScheduleForPerformance(w, Budget{Percentile: 0.96, Dollars: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if rich.Objective > poor.Objective {
		t.Errorf("rich makespan %v should not exceed poor %v", rich.Objective, poor.Objective)
	}
	// Objective is a makespan (seconds), EstimatedCost is dollars.
	if rich.Objective < 60 {
		t.Errorf("makespan objective %v implausibly small", rich.Objective)
	}
	if _, err := eng.ScheduleForPerformance(w, Budget{Dollars: 0}); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestScheduleConstrainedBothBounds(t *testing.T) {
	eng := newTestEngine(t)
	w, err := wfgen.Montage(1, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	d := mediumDeadline(t, eng, w)
	plan, err := eng.ScheduleConstrained(w, true,
		Deadline{Percentile: 0.9, Seconds: d},
		Budget{Percentile: -1, Dollars: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Errorf("loose bounds infeasible: %+v", plan.ConsProb)
	}
	if len(plan.ConsProb) != 2 {
		t.Errorf("expected 2 constraints, got %d", len(plan.ConsProb))
	}
	// Impossible budget: least-violating plan reported as infeasible.
	plan, err = eng.ScheduleConstrained(w, true,
		Deadline{Percentile: 0.9, Seconds: d},
		Budget{Percentile: -1, Dollars: 0.000001})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Feasible {
		t.Error("impossible budget reported feasible")
	}
	if _, err := eng.ScheduleConstrained(w, true, Deadline{}, Budget{}); err == nil {
		t.Error("no constraints accepted")
	}
}

func TestRunProgramBudgetConstraint(t *testing.T) {
	eng := newTestEngine(t)
	w, _ := wfgen.Pipeline(4, rand.New(rand.NewSource(32)))
	src := `
import(amazonec2).
minimize T in maxtime(Path,T).
C in totalcost(C) satisfies budget(mean, 50).
configs(Tid,Vid,Con) forall task(Tid) and vm(Vid).
`
	plan, err := eng.RunProgram(src, w)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Errorf("huge budget infeasible: %+v", plan.ConsProb)
	}
	// The performance goal should push every task to the fastest type.
	for _, typ := range plan.Assignments() {
		if typ != "m1.xlarge" {
			t.Errorf("budgetless perf optimum should be all-xlarge, got %s", typ)
		}
	}
}

func TestShippedPrograms(t *testing.T) {
	eng := newTestEngine(t)
	for _, name := range []string{"scheduling.wlog", "scheduling_astar.wlog", "perf_budget.wlog"} {
		src, err := os.ReadFile(filepath.Join("programs", name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plan, err := eng.RunProgram(string(src), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !plan.Feasible {
			t.Errorf("%s: infeasible plan (%v)", name, plan.ConsProb)
		}
		if len(plan.Config) == 0 {
			t.Errorf("%s: empty plan", name)
		}
	}
}

func TestPlanWriteDOT(t *testing.T) {
	eng := newTestEngine(t)
	w, _ := wfgen.Pipeline(3, rand.New(rand.NewSource(33)))
	plan, err := eng.Schedule(w, Deadline{Percentile: 0.9, Seconds: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := plan.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph") || !strings.Contains(buf.String(), "ID01") {
		t.Errorf("DOT output incomplete:\n%s", buf.String())
	}
}

// TestRunProgramCustomCloudKeepsSolverOptions is the regression test for a
// custom-cloud import that rebuilt the engine from a handful of options:
// import('x.json') must keep the engine's adaptive precision, eval cache
// and cache scope. On the default catalog written to JSON the
// solve must match import(amazonec2) world for world, and its evaluations
// must go through the shared cache under the engine's scope.
func TestRunProgramCustomCloudKeepsSolverOptions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "default.json")
	if err := cloud.DefaultCatalog().SaveCatalog(path); err != nil {
		t.Fatal(err)
	}
	w, _ := wfgen.Pipeline(3, rand.New(rand.NewSource(34)))
	body := `
minimize Ct in totalcost(Ct).
T in maxtime(Path,T) satisfies deadline(90%,2000).
configs(Tid,Vid,Con) forall task(Tid) and vm(Vid).
`
	run := func(imp string) (*Plan, *EvalCache) {
		t.Helper()
		cache := NewEvalCache(0)
		eng, err := NewEngine(WithAdaptive(true), WithSearchBudget(300),
			WithEvalCache(cache), WithEvalCacheScope("custom"))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := eng.RunProgram("import("+imp+").\n"+body, w)
		if err != nil {
			t.Fatal(err)
		}
		return plan, cache
	}
	ref, _ := run("amazonec2")
	got, cache := run("'" + path + "'")
	if ref.WorldsEvaluated == 0 {
		t.Fatal("fixture solved without adaptive sampling; the check is vacuous")
	}
	if got.WorldsEvaluated != ref.WorldsEvaluated {
		t.Fatalf("custom-cloud solve sampled %d worlds, import(amazonec2) %d",
			got.WorldsEvaluated, ref.WorldsEvaluated)
	}
	if got.Objective != ref.Objective || got.Feasible != ref.Feasible {
		t.Fatalf("custom-cloud plan %v (feasible %v), import(amazonec2) %v (%v)",
			got.Objective, got.Feasible, ref.Objective, ref.Feasible)
	}
	if hits, misses := cache.ScopeStats("custom"); hits+misses == 0 || cache.Len() == 0 {
		t.Fatalf("custom-cloud solve bypassed the engine's eval cache (scope hits %d misses %d, %d entries)",
			hits, misses, cache.Len())
	}
}

func TestRunProgramCustomCloudJSON(t *testing.T) {
	// A custom single-type, single-region cloud loaded from JSON via
	// import('file.json').
	cat := cloud.DefaultCatalog()
	cat.Regions = cat.Regions[:1]
	cat.Regions[0].Name = "onprem-1"
	// The surviving region's network prices referenced the dropped region;
	// Validate rejects prices to unknown regions.
	cat.Regions[0].NetPricePerGB = nil
	dir := t.TempDir()
	path := filepath.Join(dir, "mycloud.json")
	if err := cat.SaveCatalog(path); err != nil {
		t.Fatal(err)
	}
	eng := newTestEngine(t)
	w, _ := wfgen.Pipeline(3, rand.New(rand.NewSource(34)))
	src := "import('" + path + "').\n" + `
minimize Ct in totalcost(Ct).
T in maxtime(Path,T) satisfies deadline(95%,10h).
configs(Tid,Vid,Con) forall task(Tid) and vm(Vid).
`
	plan, err := eng.RunProgram(src, w)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Errorf("custom cloud plan infeasible: %+v", plan.ConsProb)
	}
	// Bad path errors.
	if _, err := eng.RunProgram("import('/nosuch/cloud.json').\nminimize C in totalcost(C).", w); err == nil {
		t.Error("missing catalog file accepted")
	}
}
