package baseline

import (
	"math/rand"
	"testing"

	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/ensemble"
	"deco/internal/estimate"
	"deco/internal/opt"
	"deco/internal/wfgen"
)

func env(t *testing.T) (*cloud.Catalog, *estimate.Estimator, []float64) {
	t.Helper()
	cat := cloud.DefaultCatalog()
	md, err := cloud.MetadataFromTruth(cat, 15, 4000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	est := estimate.New(cat, md)
	us, _ := cat.Region(cloud.USEast)
	prices := make([]float64, len(cat.Types))
	for j, it := range cat.Types {
		prices[j] = us.PricePerHour[it.Name]
	}
	return cat, est, prices
}

func TestAutoscalingMeetsLooseDeadline(t *testing.T) {
	_, est, prices := env(t)
	w, err := wfgen.Montage(1, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := est.BuildTable(w)
	if err != nil {
		t.Fatal(err)
	}
	// Loose deadline: mean makespan all-small × 2.
	cfgSmall := map[string]int{}
	for _, task := range w.Tasks {
		cfgSmall[task.ID] = 0
	}
	means, _ := tbl.MeanDurations(cfgSmall)
	msSmall, _, _ := w.Makespan(means)

	config, err := Autoscaling(w, tbl, prices, msSmall*2)
	if err != nil {
		t.Fatal(err)
	}
	if len(config) != w.Len() {
		t.Fatalf("config length %d", len(config))
	}
	// Resulting mean makespan must fit the deadline.
	cfg := map[string]int{}
	for i, task := range w.Tasks {
		cfg[task.ID] = config[i]
	}
	means, _ = tbl.MeanDurations(cfg)
	ms, _, _ := w.Makespan(means)
	if ms > msSmall*2 {
		t.Errorf("autoscaling makespan %v exceeds deadline %v", ms, msSmall*2)
	}
}

func TestAutoscalingTightDeadlinePromotes(t *testing.T) {
	_, est, prices := env(t)
	w, err := wfgen.Pipeline(5, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := est.BuildTable(w)
	if err != nil {
		t.Fatal(err)
	}
	cfgSmall := map[string]int{}
	for _, task := range w.Tasks {
		cfgSmall[task.ID] = 0
	}
	means, _ := tbl.MeanDurations(cfgSmall)
	msSmall, _, _ := w.Makespan(means)

	loose, err := Autoscaling(w, tbl, prices, msSmall*3)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Autoscaling(w, tbl, prices, msSmall/3)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(c []int) int {
		s := 0
		for _, v := range c {
			s += v
		}
		return s
	}
	if sum(tight) <= sum(loose) {
		t.Errorf("tight deadline config %v should promote beyond loose %v", tight, loose)
	}
}

func TestAutoscalingValidation(t *testing.T) {
	_, est, prices := env(t)
	w, _ := wfgen.Pipeline(3, rand.New(rand.NewSource(4)))
	tbl, _ := est.BuildTable(w)
	if _, err := Autoscaling(w, tbl, prices, 0); err == nil {
		t.Error("zero deadline accepted")
	}
	if _, err := Autoscaling(w, tbl, prices[:1], 100); err == nil {
		t.Error("price mismatch accepted")
	}
}

func TestAutoscalingCost(t *testing.T) {
	_, est, prices := env(t)
	w := dag.New("one")
	_ = w.AddTask(&dag.Task{ID: "t", Executable: "x", CPUSeconds: 3600})
	tbl, _ := est.BuildTable(w)
	c, err := AutoscalingCost(tbl, w, []int{0}, prices)
	if err != nil {
		t.Fatal(err)
	}
	if c != 0.044 { // one mean hour on m1.small
		t.Errorf("cost %v", c)
	}
	if _, err := AutoscalingCost(tbl, w, []int{0, 0}, prices); err == nil {
		t.Error("bad config accepted")
	}
}

func spssSpace(t *testing.T, budget float64) *ensemble.Space {
	t.Helper()
	_, est, prices := env(t)
	rng := rand.New(rand.NewSource(5))
	e, err := ensemble.Generate(ensemble.UniformUnsorted, wfgen.AppLigo, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	tblOf := func(w *dag.Workflow) (*estimate.Table, error) { return est.BuildTable(w) }
	if err := ensemble.DefaultDeadlines(e, tblOf, 2.0, 0.96); err != nil {
		t.Fatal(err)
	}
	sp, err := ensemble.NewSpace(e, budget, SPSSPlanner(tblOf, prices))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestSPSSAdmitRespectsBudget(t *testing.T) {
	sp := spssSpace(t, 5.0)
	state, err := SPSSAdmit(sp)
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.TotalCost(state); got > 5.0 {
		t.Errorf("SPSS overspent: %v > 5.0", got)
	}
	ev, err := sp.Evaluate(state)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Feasible {
		t.Error("SPSS admission infeasible")
	}
}

func TestSPSSAdmitPrefersHighPriority(t *testing.T) {
	sp := spssSpace(t, 0)
	// Find the cheapest plan cost and set the budget to exactly the cost of
	// the highest-priority plannable workflow: SPSS must admit it and only
	// it if nothing cheaper precedes it in priority order.
	var hi int = -1
	for i, p := range sp.Plans {
		if p == nil {
			continue
		}
		if hi < 0 || sp.E.Workflows[i].Priority < sp.E.Workflows[hi].Priority {
			hi = i
		}
	}
	if hi < 0 {
		t.Skip("no plannable workflows in fixture")
	}
	sp.Budget = sp.Plans[hi].Cost
	state, err := SPSSAdmit(sp)
	if err != nil {
		t.Fatal(err)
	}
	if state[hi] != 1 {
		t.Errorf("highest-priority workflow not admitted: %v", state)
	}
}

func TestSPSSAdmitZeroBudget(t *testing.T) {
	sp := spssSpace(t, 0)
	state, err := SPSSAdmit(sp)
	if err != nil {
		t.Fatal(err)
	}
	for i, bit := range state {
		if bit == 1 && sp.Plans[i].Cost > 0 {
			t.Errorf("admitted with zero budget: %v", state)
		}
	}
}

func TestSPSSWholeHourCostExceedsFractional(t *testing.T) {
	_, est, prices := env(t)
	w, _ := wfgen.Pipeline(4, rand.New(rand.NewSource(7)))
	tblOf := func(w *dag.Workflow) (*estimate.Table, error) { return est.BuildTable(w) }
	tbl, _ := tblOf(w)
	planner := SPSSPlanner(tblOf, prices)
	p, err := planner(w, 1e9, 0.96)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible {
		t.Fatal("huge deadline infeasible?")
	}
	frac, err := AutoscalingCost(tbl, w, p.Config, prices)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost <= frac {
		t.Errorf("SPSS whole-hour cost %v should exceed fractional %v", p.Cost, frac)
	}
}

func TestAutoscalingProbabilisticDeflates(t *testing.T) {
	_, est, prices := env(t)
	w, err := wfgen.Montage(1, rand.New(rand.NewSource(20)))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := est.BuildTable(w)
	if err != nil {
		t.Fatal(err)
	}
	// Deadline near the all-medium mean makespan: the deterministic
	// heuristic hits it on the mean but misses the 99th percentile; the
	// probabilistic variant must deflate until the percentile fits.
	cfgMed := map[string]int{}
	for _, task := range w.Tasks {
		cfgMed[task.ID] = 1
	}
	means, _ := tbl.MeanDurations(cfgMed)
	ms, _, _ := w.Makespan(means)
	deadline := ms * 1.02

	rng := rand.New(rand.NewSource(21))
	det, err := Autoscaling(w, tbl, prices, deadline)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := AutoscalingProbabilistic(w, tbl, prices, deadline, 0.99, 300, rng)
	if err != nil {
		t.Fatal(err)
	}
	// The probabilistic plan's 99th percentile fits the deadline.
	q, err := makespanPercentile(w, tbl, prob, 0.99, 500, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	// Allow slight sampling slack beyond the deadline.
	if q > deadline*1.05 {
		t.Errorf("probabilistic plan's p99 %v exceeds deadline %v", q, deadline)
	}
	// The probabilistic variant promotes at least as much as the
	// deterministic one.
	sum := func(c opt.State) int {
		s := 0
		for _, v := range c {
			s += v
		}
		return s
	}
	if sum(prob) < sum(det) {
		t.Errorf("probabilistic config %d demoted below deterministic %d", sum(prob), sum(det))
	}
	// Percentile <= 0 falls back to the deterministic algorithm.
	fb, err := AutoscalingProbabilistic(w, tbl, prices, deadline, 0, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if sum(fb) != sum(det) {
		t.Errorf("fallback differs from deterministic: %d vs %d", sum(fb), sum(det))
	}
}

func TestMakespanPercentileMonotone(t *testing.T) {
	_, est, _ := env(t)
	w, _ := wfgen.Pipeline(4, rand.New(rand.NewSource(23)))
	tbl, _ := est.BuildTable(w)
	cfg := make(opt.State, w.Len())
	rng := rand.New(rand.NewSource(24))
	q50, err := makespanPercentile(w, tbl, cfg, 0.5, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	q95, err := makespanPercentile(w, tbl, cfg, 0.95, 400, rand.New(rand.NewSource(24)))
	if err != nil {
		t.Fatal(err)
	}
	if q95 < q50 {
		t.Errorf("p95 %v below p50 %v", q95, q50)
	}
	if q50 <= 0 {
		t.Error("non-positive percentile")
	}
}
