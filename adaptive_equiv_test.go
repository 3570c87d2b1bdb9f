package deco

// Adaptive-precision equivalence: the property behind the Options.Adaptive
// contract. Over randomized workflows (different applications, sizes and
// generator seeds), the adaptive search — sequential stopping plus racing —
// must return a plan with the identical objective value and feasibility as
// the fixed-worlds search, on every device, with the evaluation cache on
// and off. The search trajectory is allowed to differ (partial verdicts
// carry pessimistic violation estimates), but the plan the caller gets must
// not. internal/opt's unit tests pin this on a hand-built chain; this test
// is the repository-level sweep over generated workflows.

import (
	"math/rand"
	"testing"

	"deco/internal/exp"
	"deco/internal/opt"
	"deco/internal/probir"
	"deco/internal/wfgen"
	"deco/internal/wlog"
)

func TestAdaptiveFixedEquivalence(t *testing.T) {
	env, err := exp.NewEnv(exp.QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Each case randomizes the workflow shape: application template, size,
	// and the generator seed that jitters task weights and file sizes.
	cases := []struct {
		app  wfgen.App
		n    int
		seed int64
	}{
		{wfgen.AppMontage, 18, 3},
		{wfgen.AppLigo, 16, 5},
		{wfgen.AppCyberShake, 14, 7},
		{wfgen.AppPipeline, 10, 11},
	}
	const worlds = 48

	for _, tc := range cases {
		w, err := wfgen.BySize(tc.app, tc.n, rand.New(rand.NewSource(tc.seed)))
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
		eval, err := probir.NewNative(w, tbl, env.Prices, probir.GoalCost, cons, worlds)
		if err != nil {
			t.Fatal(err)
		}
		sp := opt.NewScheduleSpace(w, eval)

		for _, dev := range crossDevices {
			for _, cached := range []bool{false, true} {
				run := func(adaptive bool) (*opt.Result, opt.SampleStats) {
					o := opt.Options{
						Device: dev, Seed: 11,
						MaxStates: 400, BeamWidth: 6, Patience: 12,
						Worlds: worlds, MinWorlds: 8,
						Adaptive: adaptive,
					}
					if cached {
						// A fresh cache per search: a cache warmed by the
						// fixed search would serve the adaptive one complete
						// evaluations and bypass the path under test.
						o.Cache = opt.NewEvalCache(0)
					}
					prob, err := opt.Compile(sp, o)
					if err != nil {
						t.Fatalf("%s/%d dev=%T cached=%v: compile: %v", tc.app, tc.n, dev, cached, err)
					}
					res, err := prob.Search()
					if err != nil {
						t.Fatalf("%s/%d dev=%T cached=%v: search: %v", tc.app, tc.n, dev, cached, err)
					}
					return res, prob.SampleStats()
				}
				rf, _ := run(false)
				ra, st := run(true)

				if rf.BestEval.Value != ra.BestEval.Value || rf.Feasible != ra.Feasible {
					t.Errorf("%s/%d dev=%T cached=%v: adaptive plan diverged: fixed value %v feasible=%v, adaptive value %v feasible=%v",
						tc.app, tc.n, dev, cached,
						rf.BestEval.Value, rf.Feasible, ra.BestEval.Value, ra.Feasible)
				}
				if !st.Adaptive || st.StatesAdaptive == 0 {
					t.Errorf("%s/%d dev=%T cached=%v: adaptive search never engaged the adaptive path: %+v",
						tc.app, tc.n, dev, cached, st)
				}
				if st.WorldsRun > st.WorldsBudget {
					t.Errorf("%s/%d dev=%T cached=%v: ran %d worlds over budget %d",
						tc.app, tc.n, dev, cached, st.WorldsRun, st.WorldsBudget)
				}
			}
		}
	}
}
