package wms

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/device"
	"deco/internal/estimate"
	"deco/internal/opt"
	"deco/internal/runtime"
	"deco/internal/sim"
	"deco/internal/wfgen"
)

func env(t *testing.T) (*cloud.Catalog, *estimate.Estimator, []float64) {
	t.Helper()
	cat := cloud.DefaultCatalog()
	md, err := cloud.MetadataFromTruth(cat, 12, 3000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	us, _ := cat.Region(cloud.USEast)
	prices := make([]float64, len(cat.Types))
	for j, it := range cat.Types {
		prices[j] = us.PricePerHour[it.Name]
	}
	return cat, estimate.New(cat, md), prices
}

// montageDeadline returns a medium deadline for the workflow: the midpoint
// of all-small and all-xlarge mean makespans (the paper's default setting).
func montageDeadline(t *testing.T, est *estimate.Estimator, w *dag.Workflow) float64 {
	t.Helper()
	tbl, err := est.BuildTable(w)
	if err != nil {
		t.Fatal(err)
	}
	ms := func(typeIdx int) float64 {
		cfg := map[string]int{}
		for _, task := range w.Tasks {
			cfg[task.ID] = typeIdx
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

const pipelineDAX = `<adag name="pipe">
  <job id="a" name="p1" runtime="600">
    <uses file="in" link="input" size="104857600"/>
    <uses file="mid" link="output" size="104857600"/>
  </job>
  <job id="b" name="p2" runtime="900">
    <uses file="mid" link="input" size="104857600"/>
    <uses file="out" link="output" size="10485760"/>
  </job>
</adag>`

func TestSubmitWithRandomScheduler(t *testing.T) {
	cat, _, _ := env(t)
	m := New(cat, rand.New(rand.NewSource(2)))
	run, err := m.Submit(context.Background(), strings.NewReader(pipelineDAX),
		&Random{Cat: cat, Region: cloud.USEast, Rng: rand.New(rand.NewSource(3))}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if run.Scheduler != "random" || run.Exec.Makespan <= 0 || run.Exec.TotalCost <= 0 {
		t.Fatalf("run %+v", run)
	}
}

func TestFixedScheduler(t *testing.T) {
	cat, _, _ := env(t)
	m := New(cat, rand.New(rand.NewSource(4)))
	run, err := m.Submit(context.Background(), strings.NewReader(pipelineDAX),
		&Fixed{Type: "m1.large", Region: cloud.USEast}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range run.Plan.Place {
		if pl.Type != "m1.large" {
			t.Errorf("placement %+v", pl)
		}
	}
}

func TestAutoscalingSchedulerRequiresDeadline(t *testing.T) {
	cat, est, prices := env(t)
	m := New(cat, rand.New(rand.NewSource(5)))
	sched := &Autoscaling{Est: est, Prices: prices, Region: cloud.USEast}
	if _, err := m.Submit(context.Background(), strings.NewReader(pipelineDAX), sched, 0, 0); err == nil {
		t.Error("missing deadline accepted")
	}
	run, err := m.Submit(context.Background(), strings.NewReader(pipelineDAX), sched, 7200, 0.96)
	if err != nil {
		t.Fatal(err)
	}
	if run.Exec.Makespan <= 0 {
		t.Error("no execution")
	}
}

func TestDecoSchedulerEndToEnd(t *testing.T) {
	cat, est, prices := env(t)
	w, err := wfgen.Montage(1, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	w.DeadlineSeconds = montageDeadline(t, est, w)
	w.DeadlinePercentile = 0.96

	m := New(cat, rand.New(rand.NewSource(7)))
	deco := &Deco{Est: est, Prices: prices, Region: cloud.USEast, Iters: 40,
		Search: opt.Options{Device: device.TwoLevel{}, MaxStates: 300, BeamWidth: 4, Patience: 6, Seed: 8}}
	run, err := m.Execute(context.Background(), w, deco)
	if err != nil {
		t.Fatal(err)
	}
	if run.Exec.TotalCost <= 0 {
		t.Fatal("no cost")
	}

	// Deco should not cost more than the most expensive fixed configuration
	// (Figure 1: Deco ~40% of m1.xlarge).
	m2 := New(cat, rand.New(rand.NewSource(7)))
	xl, err := m2.Execute(context.Background(), w, &Fixed{Type: "m1.xlarge", Region: cloud.USEast})
	if err != nil {
		t.Fatal(err)
	}
	if run.Exec.TotalCost > xl.Exec.TotalCost {
		t.Errorf("deco cost %v exceeds m1.xlarge %v", run.Exec.TotalCost, xl.Exec.TotalCost)
	}
}

func TestDecoSchedulerRequiresDeadline(t *testing.T) {
	cat, est, prices := env(t)
	m := New(cat, rand.New(rand.NewSource(9)))
	deco := &Deco{Est: est, Prices: prices, Region: cloud.USEast}
	if _, err := m.Submit(context.Background(), strings.NewReader(pipelineDAX), deco, 0, 0); err == nil {
		t.Error("missing deadline accepted")
	}
}

func TestExecuteManyProducesDistribution(t *testing.T) {
	cat, _, _ := env(t)
	w, err := wfgen.Pipeline(4, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	m := New(cat, rand.New(rand.NewSource(11)))
	rs, err := m.ExecuteMany(context.Background(), w, &Fixed{Type: "m1.medium", Region: cloud.USEast}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 20 {
		t.Fatalf("runs %d", len(rs))
	}
	distinct := map[float64]bool{}
	for _, r := range rs {
		distinct[r.Makespan] = true
	}
	if len(distinct) < 2 {
		t.Error("no makespan variation across runs")
	}
}

func TestSubmitBadDAX(t *testing.T) {
	cat, _, _ := env(t)
	m := New(cat, rand.New(rand.NewSource(12)))
	if _, err := m.Submit(context.Background(), strings.NewReader("not xml"),
		&Fixed{Type: "m1.small", Region: cloud.USEast}, 0, 0); err == nil {
		t.Error("garbage DAX accepted")
	}
}

func TestSchedulerNames(t *testing.T) {
	cat, est, prices := env(t)
	scheds := []Scheduler{
		&Random{Cat: cat, Region: cloud.USEast, Rng: rand.New(rand.NewSource(1))},
		&Fixed{Type: "m1.small", Region: cloud.USEast},
		&Autoscaling{Est: est, Prices: prices, Region: cloud.USEast},
		&Deco{Est: est, Prices: prices, Region: cloud.USEast},
	}
	want := []string{"random", "m1.small", "autoscaling", "deco"}
	for i, s := range scheds {
		if s.Name() != want[i] {
			t.Errorf("name %q, want %q", s.Name(), want[i])
		}
	}
}

func TestWriteExecutable(t *testing.T) {
	cat, _, _ := env(t)
	w := dag.New("exec")
	_ = w.AddTask(&dag.Task{ID: "a", Executable: "proc1", CPUSeconds: 30})
	_ = w.AddTask(&dag.Task{ID: "b", Executable: "proc2", CPUSeconds: 40})
	_ = w.AddEdge("a", "b")
	plan := &sim.Plan{Place: map[string]sim.Placement{
		"a": {Slot: 0, Type: "m1.small", Region: cloud.USEast},
		"b": {Slot: 0, Type: "m1.small", Region: cloud.USEast},
	}}
	if err := plan.Validate(w, cat); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WriteExecutable(&buf, w, plan); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`<executable-workflow name="exec">`,
		`instance-type="m1.small"`,
		`executable="proc1"`,
		`site="0"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Missing placement errors.
	bad := &sim.Plan{Place: map[string]sim.Placement{"a": plan.Place["a"]}}
	if err := WriteExecutable(&buf, w, bad); err == nil {
		t.Error("missing placement accepted")
	}
}

func TestAdaptiveSchedulerClosesTheLoop(t *testing.T) {
	cat, est, prices := env(t)
	// The WMS executes against a half-speed cloud while the scheduler and
	// monitor forecast from the unperturbed calibration: the initial cheap
	// plan misses its deadline open-loop, and the adaptive wrapper has to
	// notice and recover.
	drifted, err := cloud.ScalePerf(cat, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	w, err := wfgen.Pipeline(5, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := est.BuildTable(w)
	if err != nil {
		t.Fatal(err)
	}
	mean := 0.0
	for _, task := range w.Tasks {
		td, err := tbl.Dist(task.ID, 0) // type index 0 = m1.small
		if err != nil {
			t.Fatal(err)
		}
		mean += td.Mean()
	}
	w.DeadlineSeconds = 1.25 * mean
	w.DeadlinePercentile = 0.95

	sched := &Adaptive{
		Inner: &Fixed{Type: "m1.small", Region: cloud.USEast},
		Est:   est, Prices: prices, Region: cloud.USEast,
		Opts: runtime.Options{Seed: 22, Iters: 100, ReplanBudget: 150},
	}
	if got := sched.Name(); got != "m1.small+adaptive" {
		t.Errorf("name %q", got)
	}
	m := New(drifted, rand.New(rand.NewSource(23)))
	run, err := m.Execute(context.Background(), w, sched)
	if err != nil {
		t.Fatal(err)
	}
	if run.Adapt == nil {
		t.Fatal("adaptive run reported no monitor view")
	}
	if run.Adapt.Replans < 1 {
		t.Errorf("no replans under half-speed drift (risk max %.3f)", run.Adapt.RiskMax)
	}
	if run.Exec.Makespan > w.DeadlineSeconds {
		t.Errorf("adaptive run missed the deadline: %.1f > %.1f", run.Exec.Makespan, w.DeadlineSeconds)
	}
	if run.Adapt.DeadlineMet == nil || !*run.Adapt.DeadlineMet {
		t.Error("report does not confirm the deadline was met")
	}

	// Without a workflow deadline the wrapper must refuse, not run open-loop.
	bare, err := wfgen.Pipeline(3, rand.New(rand.NewSource(24)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Execute(context.Background(), bare, sched); err == nil {
		t.Error("adaptive execution without a deadline accepted")
	}
}
