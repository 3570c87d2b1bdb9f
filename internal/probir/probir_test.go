package probir

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/dist"
	"deco/internal/estimate"
	"deco/internal/wfgen"
	"deco/internal/wlog"
)

// schedProgram is Example 1 with parameterized deadline, minus imports
// (facts are installed by the evaluator).
func schedProgram(t *testing.T, deadline string) *wlog.Program {
	t.Helper()
	src := `
minimize Ct in totalcost(Ct).
T in maxtime(Path,T) satisfies ` + deadline + `.
configs(Tid,Vid,Con) forall task(Tid) and vm(Vid).

path(X,Y,Y,Tp) :- edge(X,Y), exetime(X,Vid,T), configs(X,Vid,Con), Con==1, Tp is T.
path(X,Y,Z,Tp) :- edge(X,Z), Z\==Y, path(Z,Y,Z2,T1), exetime(X,Vid,T),
  configs(X,Vid,Con), Con==1, Tp is T+T1.
maxtime(Path,T) :- setof([Z,T1], path(root,tail,Z,T1), Set), max(Set, [Path,T]).
cost(Tid,Vid,C) :- price(Vid,Up), exetime(Tid,Vid,T), configs(Tid,Vid,Con), C is T*Up*Con.
totalcost(Ct) :- findall(C, cost(Tid,Vid,C), Bag), sum(Bag, Ct).
`
	prog, err := wlog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// fixture builds a diamond workflow, catalog prices, and an estimate table.
func fixture(t testing.TB, cpuOnly bool) (*dag.Workflow, *estimate.Table, []float64) {
	t.Helper()
	w := dag.New("diamond")
	mb := 200.0
	if cpuOnly {
		mb = 0
	}
	mk := func(id string, cpu float64) *dag.Task {
		task := &dag.Task{ID: id, CPUSeconds: cpu}
		if mb > 0 {
			task.Inputs = []dag.File{{Name: "in_" + id, SizeMB: mb}}
			task.Outputs = []dag.File{{Name: "out_" + id, SizeMB: mb / 2}}
		}
		return task
	}
	_ = w.AddTask(mk("a", 100))
	_ = w.AddTask(mk("b", 300))
	_ = w.AddTask(mk("c", 500))
	_ = w.AddTask(mk("d", 200))
	_ = w.AddEdge("a", "b")
	_ = w.AddEdge("a", "c")
	_ = w.AddEdge("b", "d")
	_ = w.AddEdge("c", "d")

	tbl, prices := fixtureTable(t, w)
	return w, tbl, prices
}

// fixtureTable builds the estimate table and us-east prices of w over the
// default catalog's calibrated metadata.
func fixtureTable(t testing.TB, w *dag.Workflow) (*estimate.Table, []float64) {
	t.Helper()
	cat := cloud.DefaultCatalog()
	md, err := cloud.MetadataFromTruth(cat, 15, 5000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := estimate.New(cat, md).BuildTable(w)
	if err != nil {
		t.Fatal(err)
	}
	us, _ := cat.Region(cloud.USEast)
	prices := make([]float64, len(tbl.Types))
	for j, name := range tbl.Types {
		prices[j] = us.PricePerHour[name]
	}
	return tbl, prices
}

func TestNativeMeanCostMonotoneInTypes(t *testing.T) {
	w, tbl, prices := fixture(t, true)
	n, err := NewNative(w, tbl, prices, GoalCost, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	// With m1 pricing the $/ECU ratio is nearly constant, so CPU-bound cost
	// is almost type-independent — the economics of the paper's tradeoff live
	// in I/O, which larger types barely speed up while costing 8x.
	costSmall, err := n.MeanCost([]int{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	costXL, err := n.MeanCost([]int{3, 3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(costSmall, costXL) > 0.02 {
		t.Errorf("CPU-bound cost should be near-flat: small %v vs xlarge %v", costSmall, costXL)
	}
	// Exact check: 1100 CPU-s on small at 0.044/h.
	want := 1100.0 / 3600 * 0.044
	if math.Abs(costSmall-want) > 1e-12 {
		t.Errorf("cost %v, want %v", costSmall, want)
	}

	// I/O-heavy workloads make larger types clearly more expensive (Fig 1).
	wIO, tblIO, pricesIO := fixture(t, false)
	nio, err := NewNative(wIO, tblIO, pricesIO, GoalCost, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	ioSmall, _ := nio.MeanCost([]int{0, 0, 0, 0})
	ioXL, _ := nio.MeanCost([]int{3, 3, 3, 3})
	if ioXL <= ioSmall {
		t.Errorf("I/O-heavy cost on xlarge %v should exceed small %v", ioXL, ioSmall)
	}
}

func TestNativeDeadlineFeasibility(t *testing.T) {
	w, tbl, prices := fixture(t, true)
	// CPU-only diamond on m1.small: makespan = 100+500+200 = 800 exactly.
	mk := func(bound float64, pct float64) *Evaluation {
		cons := []wlog.Constraint{{Kind: "deadline", Percentile: pct, Bound: bound}}
		n, err := NewNative(w, tbl, prices, GoalCost, cons, 50)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := evalAt(n, []int{0, 0, 0, 0}, seedBase(2))
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	if ev := mk(800, 0.95); !ev.Feasible || ev.ConsProb[0] != 1 {
		t.Errorf("deadline exactly at makespan should hold: %+v", ev)
	}
	if ev := mk(799, 0.95); ev.Feasible {
		t.Errorf("deadline below makespan should fail: %+v", ev)
	}
	// Deterministic (mean) notion.
	if ev := mk(800, -1); !ev.Feasible {
		t.Errorf("mean notion at bound should hold: %+v", ev)
	}
}

func TestNativeProbabilisticDeadline(t *testing.T) {
	w, tbl, prices := fixture(t, false) // stochastic I/O
	// Pin the deadline at the empirical 60th percentile of the makespan
	// distribution (sampled through the map-based adapter APIs, independent
	// of the CRN core): a 40% requirement must pass, a 95% must fail.
	r := rand.New(rand.NewSource(3))
	samples := make([]float64, 2000)
	config := []int{0, 0, 0, 0}
	cfgMap := map[string]int{"a": 0, "b": 0, "c": 0, "d": 0}
	for i := range samples {
		durs, err := tbl.SampleDurations(cfgMap, r)
		if err != nil {
			t.Fatal(err)
		}
		if samples[i], _, err = w.Makespan(durs); err != nil {
			t.Fatal(err)
		}
	}
	e := dist.NewEmpirical(samples)
	deadline := e.Quantile(0.60)

	mk := func(pct float64) *Evaluation {
		cons := []wlog.Constraint{{Kind: "deadline", Percentile: pct, Bound: deadline}}
		n, err := NewNative(w, tbl, prices, GoalCost, cons, 1000)
		if err != nil {
			t.Fatal(err)
		}
		out, err := evalAt(n, config, seedBase(4))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	loose := mk(0.40)
	tight := mk(0.95)
	if !loose.Feasible {
		t.Errorf("40%% requirement should hold at the 60th percentile: %+v", loose)
	}
	if tight.Feasible {
		t.Errorf("95%% requirement should fail at the 60th percentile: %+v", tight)
	}
	if loose.ConsProb[0] <= 0.45 || loose.ConsProb[0] >= 0.75 {
		t.Errorf("satisfaction probability %v should be near 0.6", loose.ConsProb[0])
	}
}

func TestNativeBudgetConstraint(t *testing.T) {
	w, tbl, prices := fixture(t, true)
	cost := 1100.0 / 3600 * 0.044
	mk := func(bound, pct float64) bool {
		cons := []wlog.Constraint{{Kind: "budget", Percentile: pct, Bound: bound}}
		n, err := NewNative(w, tbl, prices, GoalCost, cons, 50)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := evalAt(n, []int{0, 0, 0, 0}, seedBase(5))
		if err != nil {
			t.Fatal(err)
		}
		return ev.Feasible
	}
	if !mk(cost+1e-9, 0.95) {
		t.Error("budget above cost should hold")
	}
	if mk(cost*0.9, 0.95) {
		t.Error("budget below cost should fail")
	}
	if !mk(cost+1e-9, -1) || mk(cost*0.9, -1) {
		t.Error("mean-notion budget wrong")
	}
}

func TestNativeValidation(t *testing.T) {
	w, tbl, prices := fixture(t, true)
	if _, err := NewNative(w, tbl, prices, GoalCost, nil, 0); err == nil {
		t.Error("iters 0 accepted")
	}
	if _, err := NewNative(w, tbl, prices[:2], GoalCost, nil, 10); err == nil {
		t.Error("price length mismatch accepted")
	}
	badCons := []wlog.Constraint{{Kind: "speed", Percentile: 0.9, Bound: 1}}
	if _, err := NewNative(w, tbl, prices, GoalCost, badCons, 10); err == nil {
		t.Error("bad constraint kind accepted")
	}
	n, _ := NewNative(w, tbl, prices, GoalCost, nil, 10)
	if _, err := evalAt(n, []int{0}, seedBase(1)); err == nil {
		t.Error("short config accepted")
	}
	if _, err := evalAt(n, []int{9, 9, 9, 9}, seedBase(1)); err == nil {
		t.Error("out-of-range type accepted")
	}
}

func TestPrologEvaluatorDeterministicAgreesExactly(t *testing.T) {
	w, tbl, prices := fixture(t, true) // CPU-only: no randomness
	prog := schedProgram(t, "deadline(95%,10h)")
	pe, err := NewProlog(w, tbl, prices, prog, 3)
	if err != nil {
		t.Fatal(err)
	}
	ne, err := NewNative(w, tbl, prices, GoalCost,
		[]wlog.Constraint{{Kind: "deadline", Percentile: 0.95, Bound: 36000}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	config := []int{0, 1, 2, 3}
	pv, err := evalAt(pe, config, seedBase(7))
	if err != nil {
		t.Fatal(err)
	}
	nv, err := evalAt(ne, config, seedBase(8))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pv.Value-nv.Value) > 1e-9 {
		t.Errorf("prolog cost %v vs native %v", pv.Value, nv.Value)
	}
	if pv.Feasible != nv.Feasible {
		t.Errorf("feasibility disagrees: %v vs %v", pv.Feasible, nv.Feasible)
	}
}

// TestPrologNativeAgreePerWorld is the differential check of the two
// evaluators: the interpreter reads world p's exetime facts from position p
// of the CRN rows the native kernel reads, so in every world the
// interpreted maxtime and totalcost of Example 1's rules equal the native
// kernel's sampled makespan and cost. The native evaluator carries a
// percentile budget (never binding) so that it samples the cost figure.
// The figures agree to a relative perWorldTol, not bit for bit: the
// interpreter adds a path's times from its last task backwards where the
// native DP adds them from the first task forward, and it prices per second
// (T × price/3600) where the native kernel prices per hour (T/3600 × price).
// Each of the at most 12 terms rounds once either way, a few ulps in all.
// The deadline indicators, checked against the same bound, are equal in
// every world, and so are the deadline's probability and the verdict of
// both kernels' Reduce over the first world, the first 16 and all of them:
// a prefix divides probabilities by every world in both.
func TestPrologNativeAgreePerWorld(t *testing.T) {
	const iters = 24
	const perWorldTol = 1e-12
	src, err := os.ReadFile("../../programs/adaptive.wlog")
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := wlog.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	programs := map[string]*wlog.Program{
		"schedProgram":  schedProgram(t, "deadline(90%,1h)"),
		"adaptive.wlog": adaptive,
	}
	rng := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	type workflow struct {
		name string
		w    *dag.Workflow
		tbl  *estimate.Table
		pr   []float64
	}
	var wfs []workflow
	for _, cpuOnly := range []bool{false, true} {
		w, tbl, prices := fixture(t, cpuOnly)
		wfs = append(wfs, workflow{fmt.Sprintf("diamond cpuOnly=%v", cpuOnly), w, tbl, prices})
	}
	for name, gen := range map[string]func() (*dag.Workflow, error){
		"pipeline5":    func() (*dag.Workflow, error) { return wfgen.Pipeline(5, rng(1)) },
		"cybershake12": func() (*dag.Workflow, error) { return wfgen.CyberShake(2, 2, rng(2)) },
		"cybershake11": func() (*dag.Workflow, error) { return wfgen.CyberShake(1, 4, rng(3)) },
		"epigenomics9": func() (*dag.Workflow, error) { return wfgen.Epigenomics(1, 1, rng(4)) },
		"funnel6":      func() (*dag.Workflow, error) { return wfgen.Funnel(6, 300, 100, rng(5)) },
	} {
		w, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		if w.Len() > 12 {
			t.Fatalf("%s has %d tasks, more than the interpreter's 12", name, w.Len())
		}
		tbl, prices := fixtureTable(t, w)
		wfs = append(wfs, workflow{name, w, tbl, prices})
	}
	passes, fails := 0, 0
	for _, wf := range wfs {
		k := len(wf.tbl.Types)
		configs := [][]int{make([]int, wf.w.Len()), make([]int, wf.w.Len()), make([]int, wf.w.Len())}
		for i := range wf.w.Len() {
			configs[1][i] = k - 1
			configs[2][i] = i % k
		}
		// A deadline at the mean makespan of the mixed configuration, off
		// any integer sum, so worlds fall on both sides of it.
		probe, err := NewNative(wf.w, wf.tbl, wf.pr, GoalMakespan, nil, iters)
		if err != nil {
			t.Fatal(err)
		}
		pv, err := evalAt(probe, configs[2], 5)
		if err != nil {
			t.Fatal(err)
		}
		bound := math.Floor(pv.Value) + 0.5
		for pname, prog := range programs {
			interp := *prog
			interp.Constraints = []wlog.Constraint{prog.Constraints[0]}
			interp.Constraints[0].Percentile, interp.Constraints[0].Bound = 0.5, bound
			pe, err := NewProlog(wf.w, wf.tbl, wf.pr, &interp, iters)
			if err != nil {
				t.Fatal(err)
			}
			ne, err := NewNative(wf.w, wf.tbl, wf.pr, GoalCost, []wlog.Constraint{
				{Kind: "deadline", Percentile: 0.5, Bound: bound},
				{Kind: "budget", Percentile: 0.5, Bound: 1e9},
			}, iters)
			if err != nil {
				t.Fatal(err)
			}
			for _, base := range []int64{5, 1 << 40} {
				pkernels, err := pe.Bind(context.Background(), base)
				if err != nil {
					t.Fatal(err)
				}
				nkernels, err := ne.Bind(context.Background(), base)
				if err != nil {
					t.Fatal(err)
				}
				for _, config := range configs {
					label := fmt.Sprintf("%s/%s base %d config %v", wf.name, pname, base, config)
					pk, err := pkernels(config)
					if err != nil {
						t.Fatal(err)
					}
					wk, err := nkernels(config)
					if err != nil {
						t.Fatal(err)
					}
					nk := wk.(*nativeKernel)
					pw, nw := pk.Width(), nk.Width()
					pout, nout := make([]float64, iters*pw), make([]float64, iters*nw)
					if err := pk.Sample(0, iters, pout); err != nil {
						t.Fatal(err)
					}
					if err := nk.Sample(0, iters, nout); err != nil {
						t.Fatal(err)
					}
					psums, nsums := make([]float64, pw), make([]float64, nw)
					for it := range iters {
						p, n := pout[it*pw:(it+1)*pw], nout[it*nw:(it+1)*nw]
						// Interpreted figures: totalcost, maxtime, deadline
						// indicator.
						if relDiff(p[0], n[nk.costIdx]) > perWorldTol {
							t.Errorf("%s world %d: totalcost %v, native cost %v", label, it, p[0], n[nk.costIdx])
						}
						if relDiff(p[1], n[nk.msIdx]) > perWorldTol {
							t.Errorf("%s world %d: maxtime %v, native makespan %v", label, it, p[1], n[nk.msIdx])
						}
						if p[2] != n[nk.indIdx[0]] {
							t.Errorf("%s world %d: deadline indicator %v, native %v", label, it, p[2], n[nk.indIdx[0]])
						}
						if p[2] == 1 {
							passes++
						} else {
							fails++
						}
						for f := range psums {
							psums[f] += p[f]
						}
						for f := range nsums {
							nsums[f] += n[f]
						}
						if seen := it + 1; seen == 1 || seen == 16 || seen == iters {
							pev, err := pk.Reduce(psums, seen)
							if err != nil {
								t.Fatal(err)
							}
							nev, err := nk.Reduce(nsums, seen)
							if err != nil {
								t.Fatal(err)
							}
							if pev.Feasible != nev.Feasible || pev.ConsProb[0] != nev.ConsProb[0] {
								t.Errorf("%s at %d worlds: feasible %v P(deadline) %v, native %v %v",
									label, seen, pev.Feasible, pev.ConsProb[0], nev.Feasible, nev.ConsProb[0])
							}
						}
					}
				}
			}
		}
	}
	if passes == 0 || fails == 0 {
		t.Fatalf("deadline met in %d worlds and missed in %d: the bounds test one side only", passes, fails)
	}
}

func relDiff(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

func TestPrologValidation(t *testing.T) {
	w, tbl, prices := fixture(t, true)
	prog := schedProgram(t, "deadline(95%,10h)")
	if _, err := NewProlog(w, tbl, prices, prog, 0); err == nil {
		t.Error("iters 0 accepted")
	}
	if _, err := NewProlog(w, tbl, prices[:1], prog, 5); err == nil {
		t.Error("price mismatch accepted")
	}
	noGoal := &wlog.Program{}
	if _, err := NewProlog(w, tbl, prices, noGoal, 5); err == nil {
		t.Error("program without goal accepted")
	}
	pe, _ := NewProlog(w, tbl, prices, prog, 5)
	if _, err := evalAt(pe, []int{0}, seedBase(1)); err == nil {
		t.Error("short config accepted")
	}
	// A cost-only user-rule program: no rule would notice a type index
	// outside the table, so the kernel must reject it.
	costOnly, err := wlog.Parse(`
minimize Ct in totalcost(Ct).
cost(Tid,Vid,C) :- price(Vid,Up), exetime(Tid,Vid,T), configs(Tid,Vid,Con), C is T*Up*Con.
totalcost(Ct) :- findall(C, cost(Tid,Vid,C), Bag), sum(Bag, Ct).
`)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := NewProlog(w, tbl, prices, costOnly, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, config := range [][]int{{9, 9, 9, 9}, {-1, 0, 0, 0}} {
		if ev, err := evalAt(pc, config, seedBase(1)); err == nil {
			t.Errorf("out-of-range config %v accepted: %+v", config, ev)
		}
	}
}

func TestTranslateRendersProbIR(t *testing.T) {
	w, tbl, _ := fixture(t, false)
	prog := schedProgram(t, "deadline(95%,10h)")
	rules, err := Translate(w, tbl, prog, 5, 500, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	// The deterministic rules come first with probability 1.
	if rules[0].Prob != 1 || !strings.Contains(rules[0].Clause, ":-") {
		t.Errorf("first rule %+v", rules[0])
	}
	// Probabilistic exetime facts exist and their masses sum to ~1 per
	// (task,type).
	sums := map[string]float64{}
	for _, r := range rules {
		if r.Prob < 1 || strings.HasPrefix(r.Clause, "exetime") {
			if strings.HasPrefix(r.Clause, "exetime") {
				key := r.Clause[:strings.LastIndex(r.Clause, ",")]
				sums[key] += r.Prob
			}
		}
	}
	if len(sums) == 0 {
		t.Fatal("no probabilistic facts emitted")
	}
	for k, s := range sums {
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("%s: bin masses sum to %v", k, s)
		}
	}
	if _, err := Translate(w, tbl, prog, 0, 10, rand.New(rand.NewSource(1))); err == nil {
		t.Error("bins 0 accepted")
	}
}

func TestNativeMakespanGoal(t *testing.T) {
	w, tbl, prices := fixture(t, true)
	n, err := NewNative(w, tbl, prices, GoalMakespan, nil, 20)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := evalAt(n, []int{0, 0, 0, 0}, seedBase(12))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Value != 800 { // deterministic CPU-only critical path
		t.Errorf("makespan goal %v, want 800", ev.Value)
	}
	// xlarge divides by 8.
	ev, _ = evalAt(n, []int{3, 3, 3, 3}, seedBase(12))
	if ev.Value != 100 {
		t.Errorf("makespan on xlarge %v, want 100", ev.Value)
	}
}
