package deco

// Cross-device determinism: the search must return the identical Result on
// every device — the contract that lets decod cache plans regardless of
// the machine a worker runs on (jobKey names no device). The scheduling
// space exercises the common-random-number kernel path (shared world
// realizations across states, two-level block/thread execution); the
// ensemble and follow-the-cost spaces exercise their deterministic
// Worlds()=1 kernels. evalpaths_test.go proves the per-state equivalence
// of the individual evaluation paths.

import (
	"context"
	"math/rand"
	"testing"

	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/device"
	"deco/internal/ensemble"
	"deco/internal/estimate"
	"deco/internal/exp"
	"deco/internal/ftc"
	"deco/internal/opt"
	"deco/internal/probir"
	"deco/internal/wfgen"
	"deco/internal/wlog"
)

// crossDevices is the device matrix every space must agree across: the
// sequential baseline, the two-level default, and a three-worker pool that
// oversubscribes a machine with fewer cores.
var crossDevices = []device.Device{
	device.Sequential{},
	device.TwoLevel{},
	device.TwoLevel{NumWorkers: 3},
}

// searchAllDevices runs the same search on every device (crossDevices when
// devs is empty) and fails unless all Results are identical: best state,
// exact evaluation figures, and the number of states evaluated. It returns
// the first device's Result.
func searchAllDevices(t *testing.T, sp opt.Space, base opt.Options, devs ...device.Device) *opt.Result {
	t.Helper()
	if len(devs) == 0 {
		devs = crossDevices
	}
	var want *opt.Result
	var wantName string
	for _, dev := range devs {
		o := base
		o.Device = dev
		res, err := opt.Search(sp, o)
		if err != nil {
			t.Fatalf("%s: %v", dev.Name(), err)
		}
		if want == nil {
			want, wantName = res, dev.Name()
			continue
		}
		if res.Best.Key() != want.Best.Key() {
			t.Errorf("%s: best %v != %s's %v", dev.Name(), res.Best, wantName, want.Best)
		}
		if res.Evaluated != want.Evaluated {
			t.Errorf("%s: evaluated %d != %s's %d", dev.Name(), res.Evaluated, wantName, want.Evaluated)
		}
		if res.Levels != want.Levels {
			t.Errorf("%s: levels %d != %s's %d", dev.Name(), res.Levels, wantName, want.Levels)
		}
		if res.Feasible != want.Feasible {
			t.Errorf("%s: feasible %v != %s's %v", dev.Name(), res.Feasible, wantName, want.Feasible)
		}
		got, ref := res.BestEval, want.BestEval
		if got.Value != ref.Value || got.Violation != ref.Violation || got.Feasible != ref.Feasible {
			t.Errorf("%s: eval {%v %v %v} != %s's {%v %v %v}", dev.Name(),
				got.Value, got.Feasible, got.Violation, wantName, ref.Value, ref.Feasible, ref.Violation)
		}
		if len(got.ConsProb) != len(ref.ConsProb) {
			t.Fatalf("%s: ConsProb len %d != %d", dev.Name(), len(got.ConsProb), len(ref.ConsProb))
		}
		for i := range got.ConsProb {
			if got.ConsProb[i] != ref.ConsProb[i] {
				t.Errorf("%s: ConsProb[%d] %v != %v", dev.Name(), i, got.ConsProb[i], ref.ConsProb[i])
			}
		}
	}
	return want
}

// TestCrossDeviceDeterminismScheduling covers the Monte-Carlo scheduling
// space (§3.1), where evaluations decompose into per-world kernels and the
// two-level devices run the block/thread path.
func TestCrossDeviceDeterminismScheduling(t *testing.T) {
	env, err := exp.NewEnv(exp.QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := wfgen.BySize(wfgen.AppMontage, 30, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := env.Est.BuildTable(w)
	if err != nil {
		t.Fatal(err)
	}
	deadline, err := env.Deadline(w, "medium")
	if err != nil {
		t.Fatal(err)
	}
	cons := []wlog.Constraint{{Kind: "deadline", Percentile: 0.96, Bound: deadline}}
	eval, err := probir.NewNative(w, tbl, env.Prices, probir.GoalCost, cons, 24)
	if err != nil {
		t.Fatal(err)
	}
	sp := opt.NewScheduleSpace(w, eval)
	o := opt.DefaultOptions(nil)
	o.MaxStates = 150
	o.Seed = 11
	searchAllDevices(t, sp, o)
}

// TestCrossDeviceDeterminismProlog covers the interpreted scheduling space:
// Prolog kernels read their worlds from the CRN rows of the search seed and
// run the same block/thread path as the native kernels. The result must be
// identical on every device and equal one sequential pass of the
// interpreter's kernel at the seed.
func TestCrossDeviceDeterminismProlog(t *testing.T) {
	env, err := exp.NewEnv(exp.QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := wfgen.Pipeline(3, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := env.Est.BuildTable(w)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := wlog.Parse(userRuleProgram)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := probir.NewProlog(w, tbl, env.Prices, prog, 12)
	if err != nil {
		t.Fatal(err)
	}
	sp := opt.NewScheduleSpace(w, eval)
	o := opt.DefaultOptions(nil)
	o.MaxStates = 30
	o.Seed = 11
	res := searchAllDevices(t, sp, o)
	want, err := probir.Evaluate(context.Background(), eval, res.Best, o.Seed)
	if err != nil {
		t.Fatal(err)
	}
	assertSameEval(t, "prolog: sequential kernel", res.BestEval, want)
}

// TestCrossDeviceDeterminismSpotMarkets covers the market-aware scheduling
// space: spot columns turn cost into a sampled figure (the objective reduces
// from the realized-cost column instead of the world-free mean), which must
// stay bit-identical across devices under every combination of the eval
// cache and adaptive-precision evaluation. Within one (cache, adaptive)
// setting all devices must agree exactly; the cache is shared across the
// device sweep so warm hits are compared against cold evaluations too.
func TestCrossDeviceDeterminismSpotMarkets(t *testing.T) {
	env, err := exp.NewEnv(exp.QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := wfgen.BySize(wfgen.AppMontage, 24, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := env.Est.BuildTable(w)
	if err != nil {
		t.Fatal(err)
	}
	xtbl, err := tbl.ExpandSpot([]string{"m1.small", "m1.xlarge"})
	if err != nil {
		t.Fatal(err)
	}
	us, err := cloud.DefaultCatalog().Region(cloud.USEast)
	if err != nil {
		t.Fatal(err)
	}
	prices := make([]float64, len(xtbl.Types))
	markets := make([]probir.MarketSpec, len(xtbl.Types))
	for j, name := range xtbl.Types {
		if cloud.IsSpotName(name) {
			m := us.Spot[cloud.BaseType(name)]
			prices[j] = m.PricePerHourMean
			markets[j] = probir.MarketSpec{
				Spot:               true,
				PriceMean:          m.PricePerHourMean,
				PriceSigma:         m.PriceSigma,
				RevocationsPerHour: m.RevocationsPerHour,
				OnDemandUSD:        us.PricePerHour[cloud.BaseType(name)],
			}
		} else {
			prices[j] = us.PricePerHour[name]
		}
	}
	deadline, err := env.Deadline(w, "medium")
	if err != nil {
		t.Fatal(err)
	}
	cons := []wlog.Constraint{{Kind: "deadline", Percentile: 0.9, Bound: deadline * 1.5}}
	eval, err := probir.NewNativeMarkets(w, xtbl, prices, markets, probir.GoalCost, cons, 24)
	if err != nil {
		t.Fatal(err)
	}
	for _, adaptive := range []bool{false, true} {
		for _, cached := range []bool{false, true} {
			name := "fixed"
			if adaptive {
				name = "adaptive"
			}
			if cached {
				name += "+cache"
			}
			t.Run(name, func(t *testing.T) {
				sp := opt.NewScheduleSpace(w, eval)
				o := opt.DefaultOptions(nil)
				o.MaxStates = 120
				o.Seed = 11
				o.Adaptive = adaptive
				if cached {
					o.Cache = opt.NewEvalCache(1 << 22)
				}
				searchAllDevices(t, sp, o)
			})
		}
	}
}

// TestCrossDeviceDeterminismEnsemble covers the admission space (§3.2):
// deterministic per-state evaluations on the compiled kernel path, with the
// objective maximized.
func TestCrossDeviceDeterminismEnsemble(t *testing.T) {
	e := &ensemble.Ensemble{Kind: ensemble.Constant}
	costs := []float64{3, 2, 4, 1, 5}
	sp := &ensemble.Space{E: e, Budget: 6}
	for i, c := range costs {
		e.Workflows = append(e.Workflows, &dag.Workflow{Priority: i})
		sp.Plans = append(sp.Plans, &ensemble.PlannedWorkflow{Cost: c, Feasible: true})
	}
	e.Workflows = append(e.Workflows, &dag.Workflow{Priority: len(costs)})
	sp.Plans = append(sp.Plans, nil) // unplannable: never admitted

	o := opt.DefaultOptions(nil)
	o.Maximize = true
	o.MaxStates = 100
	o.Seed = 11
	searchAllDevices(t, sp, o)
}

// TestCrossDeviceDeterminismFTC covers the region-assignment space (§3.3),
// also kerneled deterministically but with a different feasibility
// structure (deterministic deadlines, migration charges).
func TestCrossDeviceDeterminismFTC(t *testing.T) {
	cat := cloud.DefaultCatalog()
	md, err := cloud.MetadataFromTruth(cat, 12, 3000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	est := estimate.New(cat, md)
	var jobs []*ftc.Job
	for i := 0; i < 3; i++ {
		w, err := wfgen.Pipeline(6, rand.New(rand.NewSource(int64(10+i))))
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := est.BuildTable(w)
		if err != nil {
			t.Fatal(err)
		}
		j, err := ftc.NewJob(w, tbl, 0, 1, 4000)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	sp := ftc.NewSpace(&ftc.Runtime{Cat: cat, Jobs: jobs})
	o := opt.DefaultOptions(nil)
	o.MaxStates = 120
	o.Seed = 11
	searchAllDevices(t, sp, o)
}
