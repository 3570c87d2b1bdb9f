package deco

// Evaluation-path equivalence: under the common-random-number contract a
// state's evaluation is a pure function of (program, config, base seed), so
// every way the solver can compute it must agree bit-for-bit:
//
//   - full evaluation     probir.Native.EvaluateCRN (one sequential pass)
//   - kernel path         the space descriptor's Kernel + probir.RunKernel
//                         (world-decomposed, folded canonically)
//   - device path         opt.Search's batch evaluator, which shares the
//                         CRN duration rows across sibling states and runs
//                         them on whatever device is configured
//
// The deterministic ensemble and follow-the-cost spaces carry Worlds()=1
// kernels (their evaluations ignore the seed), so the same three-way
// property holds for them: direct Evaluate == kernel == the solver's
// evaluation on every device.

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

// frozenSpace pins a search to exactly one state: Starts is the state,
// Neighbors is empty, and the descriptor is the inner space's. Searching it
// runs the solver's batch evaluator on precisely that state, so
// Result.BestEval is the solver's evaluation.
type frozenSpace struct {
	inner opt.Space
	st    opt.State
}

func (f *frozenSpace) Starts() []opt.State                 { return []opt.State{f.st.Clone()} }
func (f *frozenSpace) Neighbors(opt.State) []opt.Transform { return nil }
func (f *frozenSpace) Describe(ctx context.Context, seed int64) opt.Descriptor {
	return f.inner.Describe(ctx, seed)
}

// children returns the child states of parent's moves.
func children(sp opt.Space, parent opt.State) []opt.State {
	trs := sp.Neighbors(parent)
	out := make([]opt.State, len(trs))
	for i, tr := range trs {
		out[i] = tr.Apply(nil, parent)
	}
	return out
}

// assertSameEval fails unless the two evaluations are bit-identical.
func assertSameEval(t *testing.T, label string, got, want *probir.Evaluation) {
	t.Helper()
	if got.Value != want.Value || got.Feasible != want.Feasible || got.Violation != want.Violation {
		t.Errorf("%s: {%v %v %v} != {%v %v %v}", label,
			got.Value, got.Feasible, got.Violation, want.Value, want.Feasible, want.Violation)
	}
	if len(got.ConsProb) != len(want.ConsProb) {
		t.Fatalf("%s: ConsProb len %d != %d", label, len(got.ConsProb), len(want.ConsProb))
	}
	for i := range got.ConsProb {
		if got.ConsProb[i] != want.ConsProb[i] {
			t.Errorf("%s: ConsProb[%d] %v != %v", label, i, got.ConsProb[i], want.ConsProb[i])
		}
	}
}

// searchOneState runs the solver over a space frozen at st on the given
// device and returns the solver's evaluation of that state.
func searchOneState(t *testing.T, sp opt.Space, st opt.State, dev device.Device, base int64, maximize bool) *probir.Evaluation {
	t.Helper()
	res, err := opt.Search(&frozenSpace{sp, st}, opt.Options{Device: dev, MaxStates: 1, Seed: base, Maximize: maximize})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 1 {
		t.Fatalf("frozen search evaluated %d states, want 1", res.Evaluated)
	}
	return res.BestEval
}

func TestEvalPathEquivalenceScheduling(t *testing.T) {
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
	deadline, err := env.Deadline(w, "medium")
	if err != nil {
		t.Fatal(err)
	}
	cons := []wlog.Constraint{
		{Kind: "deadline", Percentile: 0.9, Bound: deadline},
		{Kind: "budget", Percentile: 0.9, Bound: 50},
	}
	eval, err := probir.NewNative(w, tbl, env.Prices, probir.GoalCost, cons, 32)
	if err != nil {
		t.Fatal(err)
	}
	for name, sp := range map[string]*opt.ScheduleSpace{
		"plain":  opt.NewScheduleSpace(w, eval),
		"packed": opt.NewPackedScheduleSpace(w, eval, tbl, env.Prices, cloud.USEast),
	} {
		const base = 27
		states := []opt.State{sp.Initial()}
		states = append(states, children(sp, states[0])...) // Δ=1 siblings: the row-reuse case
		if len(states) > 12 {
			states = states[:12]
		}
		for _, st := range states {
			// Full evaluation: one sequential pass at the shared base, plus
			// the plan-level objective exactly as ScheduleSpace.Evaluate
			// applies it.
			want, err := eval.EvaluateCRN(st, base)
			if err != nil {
				t.Fatal(err)
			}
			if sp.CostFn != nil {
				v, err := sp.CostFn(st)
				if err != nil {
					t.Fatal(err)
				}
				want.Value = v
			}
			// Kernel path, folded sequentially, then the descriptor's
			// objective as the solver applies it.
			d := sp.Describe(context.Background(), base)
			k, err := d.Kernel(st)
			if err != nil {
				t.Fatal(err)
			}
			kev, err := probir.RunKernel(k)
			if err != nil {
				t.Fatal(err)
			}
			if d.Objective != nil {
				if kev.Value, err = d.Objective(st); err != nil {
					t.Fatal(err)
				}
			}
			assertSameEval(t, name+": kernel path", kev, want)
			// Device path through the solver's evaluator, every device.
			for _, dev := range crossDevices {
				got := searchOneState(t, sp, st, dev, base, false)
				assertSameEval(t, name+": "+dev.Name(), got, want)
			}
		}
	}
}

// TestExpansionChainEquivalence walks randomized Promote/Demote chains
// through the scheduling space with EvaluateExpansion and asserts that the
// solver's evaluation of every parent and child is bit-identical to the
// one-pass sequential reference EvaluateCRN — on every device, and with the
// evaluation cache on, where each step's parent is a hit from the step
// before.
func TestExpansionChainEquivalence(t *testing.T) {
	env, err := exp.NewEnv(exp.QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := wfgen.BySize(wfgen.AppMontage, 24, rand.New(rand.NewSource(7)))
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
	cons := []wlog.Constraint{
		{Kind: "deadline", Percentile: 0.9, Bound: deadline},
		{Kind: "budget", Percentile: 0.9, Bound: 50},
	}
	eval, err := probir.NewNative(w, tbl, env.Prices, probir.GoalCost, cons, 24)
	if err != nil {
		t.Fatal(err)
	}
	sp := opt.NewScheduleSpace(w, eval)
	const base = 31
	for _, dev := range crossDevices {
		for _, cached := range []bool{false, true} {
			name := dev.Name()
			if cached {
				name += "/cache"
			}
			o := opt.Options{Device: dev, Seed: base}
			if cached {
				o.Cache = opt.NewEvalCache(4096)
			}
			p, err := opt.Compile(sp, o)
			if err != nil {
				t.Fatal(err)
			}
			reference := func(what string, st opt.State, got *probir.Evaluation) {
				t.Helper()
				want, err := eval.EvaluateCRN(st, base)
				if err != nil {
					t.Fatal(err)
				}
				assertSameEval(t, name+": "+what, got, want)
			}
			rng := rand.New(rand.NewSource(int64(len(name))))
			st := sp.Initial()
			for step := 0; step < 6; step++ {
				pe, kids, evs, err := p.EvaluateExpansion(st)
				if err != nil {
					t.Fatal(err)
				}
				reference("parent", st, pe)
				for i := range kids {
					reference("child", kids[i], evs[i])
				}
				if len(kids) == 0 {
					break
				}
				st = kids[rng.Intn(len(kids))]
			}
		}
	}
}

func TestEvalPathEquivalenceEnsemble(t *testing.T) {
	e := &ensemble.Ensemble{Kind: ensemble.Constant}
	sp := &ensemble.Space{E: e, Budget: 7}
	for i, c := range []float64{3, 2, 4, 1, 5} {
		e.Workflows = append(e.Workflows, &dag.Workflow{Priority: i})
		sp.Plans = append(sp.Plans, &ensemble.PlannedWorkflow{Cost: c, Feasible: true})
	}
	states := []opt.State{sp.Initial()}
	states = append(states, children(sp, states[0])...)
	const base = 13
	for _, st := range states {
		want, err := sp.Evaluate(st, rand.New(rand.NewSource(base)))
		if err != nil {
			t.Fatal(err)
		}
		// Kernel path, folded sequentially.
		k, err := sp.Kernel(st)
		if err != nil {
			t.Fatal(err)
		}
		kev, err := probir.RunKernel(k)
		if err != nil {
			t.Fatal(err)
		}
		assertSameEval(t, "ensemble: kernel path", kev, want)
		for _, dev := range crossDevices {
			got := searchOneState(t, sp, st, dev, base, true)
			assertSameEval(t, "ensemble kernel: "+dev.Name(), got, want)
		}
	}
}

func TestEvalPathEquivalenceFTC(t *testing.T) {
	cat := cloud.DefaultCatalog()
	md, err := cloud.MetadataFromTruth(cat, 12, 3000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	est := estimate.New(cat, md)
	var jobs []*ftc.Job
	for i := 0; i < 3; i++ {
		w, err := wfgen.Pipeline(5, rand.New(rand.NewSource(int64(20+i))))
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
	states := []opt.State{sp.Initial()}
	states = append(states, children(sp, states[0])...)
	const base = 19
	for _, st := range states {
		want, err := sp.Evaluate(st, rand.New(rand.NewSource(base)))
		if err != nil {
			t.Fatal(err)
		}
		// Kernel path, folded sequentially.
		k, err := sp.Kernel(st)
		if err != nil {
			t.Fatal(err)
		}
		kev, err := probir.RunKernel(k)
		if err != nil {
			t.Fatal(err)
		}
		assertSameEval(t, "ftc: kernel path", kev, want)
		for _, dev := range crossDevices {
			got := searchOneState(t, sp, st, dev, base, false)
			assertSameEval(t, "ftc kernel: "+dev.Name(), got, want)
		}
	}
}

// TestEvalPathZeroWorldPrograms covers Native programs whose kernels have
// nothing to thread over: a cost goal under a mean-notion budget samples no
// worlds (every figure is world-free), and a program without constraints has
// no figures at all. They run the solver's one evaluation path like every
// other program — zero-thread blocks, reduced as device blocks — and must
// equal the Evaluate oracle on every device, packed objective included.
func TestEvalPathZeroWorldPrograms(t *testing.T) {
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
	for name, cons := range map[string][]wlog.Constraint{
		"mean-budget":    {{Kind: "budget", Percentile: -1, Bound: 2}},
		"no-constraints": nil,
	} {
		eval, err := probir.NewNative(w, tbl, env.Prices, probir.GoalCost, cons, 32)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range []*opt.ScheduleSpace{
			opt.NewScheduleSpace(w, eval),
			opt.NewPackedScheduleSpace(w, eval, tbl, env.Prices, cloud.USEast),
		} {
			const base = 23
			states := sp.Starts()
			states = append(states, children(sp, states[0])...)
			for _, st := range states {
				k, err := sp.Describe(context.Background(), base).Kernel(st)
				if err != nil {
					t.Fatal(err)
				}
				if k.Worlds() != 0 || k.Width() != 0 {
					t.Fatalf("%s: kernel shape (%d worlds, %d figures), want (0, 0)", name, k.Worlds(), k.Width())
				}
				want, err := sp.Evaluate(st, rand.New(rand.NewSource(base)))
				if err != nil {
					t.Fatal(err)
				}
				for _, dev := range crossDevices {
					got := searchOneState(t, sp, st, dev, base, false)
					assertSameEval(t, name+": "+dev.Name(), got, want)
				}
			}
		}
	}
}
