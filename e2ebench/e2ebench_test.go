package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"slices"
	"strings"
	"testing"

	"deco"
	"deco/internal/cloud"
	"deco/internal/runtime"
	"deco/internal/service"
)

// smoke runs a workload at smoke size with every check on.
func smoke(t *testing.T, workload string, seed int64, requests int, trace bool) (*result, *report) {
	t.Helper()
	cfg := config{workload: workload, seed: seed, seconds: 1, trace: trace, requests: requests, setups: 1}
	if err := cfg.resolve(); err != nil {
		t.Fatal(err)
	}
	res, rep, err := run(context.Background(), cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || rep.failed != 0 || rep.attempted != requests {
		t.Fatalf("%s trace=%v: %d of %d requests failed: %v", workload, trace, rep.failed, rep.attempted, rep.failures)
	}
	return res, rep
}

func TestWorkloadsPassChecks(t *testing.T) {
	for _, tc := range []struct {
		workload string
		requests int
	}{{wlPlanCold, 3}, {wlWlogSpot, 3}, {wlManaged, 3}} {
		for _, trace := range []bool{false, true} {
			smoke(t, tc.workload, 5, tc.requests, trace)
		}
	}
}

func TestSameSeedSameDigests(t *testing.T) {
	for _, wl := range []string{wlPlanCold, wlManaged} {
		_, a := smoke(t, wl, 7, 3, false)
		_, b := smoke(t, wl, 7, 3, false)
		if requestDigest(a.requests) != requestDigest(b.requests) || a.planDigest != b.planDigest {
			t.Errorf("%s: digests differ between runs of one seed: %s/%s vs %s/%s", wl,
				requestDigest(a.requests), a.planDigest, requestDigest(b.requests), b.planDigest)
		}
		if a.quality != b.quality {
			t.Errorf("%s: quality differs between runs of one seed: %+v vs %+v", wl, a.quality, b.quality)
		}
	}
}

func TestSeedChangesRequests(t *testing.T) {
	eng, _, err := newLibEngine(false)
	if err != nil {
		t.Fatal(err)
	}
	a, err := genPlanCold(eng, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genPlanCold(eng, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if requestDigest(a) == requestDigest(b) {
		t.Fatal("seeds 1 and 2 generated the same plan-cold requests")
	}
	for i := range a {
		if a[i].App != b[i].App || a[i].Pct != b[i].Pct {
			t.Errorf("request %d: composition depends on the seed: %s@%v vs %s@%v", i, a[i].App, a[i].Pct, b[i].App, b[i].Pct)
		}
	}
	m1, err := genManaged(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := genManaged(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if requestDigest(m1) == requestDigest(m2) {
		t.Fatal("seeds 1 and 2 generated the same managed requests")
	}
}

// TestWlogComposition checks the generated programs parse into the intended
// mix without solving them.
func TestWlogComposition(t *testing.T) {
	eng, _, err := newLibEngine(true)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := genWlogSpot(eng, 3, 60)
	if err != nil {
		t.Fatal(err)
	}
	var budgets, transfers int
	for _, r := range reqs {
		if r.Budget > 0 {
			budgets++
		}
		if strings.Contains(r.Program, "transfer(") {
			transfers++
		}
		if len(r.Spots) == 0 || !strings.Contains(r.Program, "spot('m1.") {
			t.Errorf("request %d offers no spot type:\n%s", r.Index, r.Program)
		}
	}
	if budgets != 12 || transfers != 20 {
		t.Errorf("budget programs %d (want 12), transfer programs %d (want 20)", budgets, transfers)
	}
}

func TestChecksCatchCorruptedPlan(t *testing.T) {
	eng, _, err := newLibEngine(false)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := genPlanCold(eng, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := libCall(context.Background(), eng, &reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	cat := eng.Catalog()
	if err := checkPlan(plan, &reqs[0], cat); err != nil {
		t.Fatalf("intact plan rejected: %v", err)
	}
	for name, corrupt := range map[string]func(p *deco.Plan){
		"type index out of range": func(p *deco.Plan) { p.Config[0] = len(p.Types) },
		"missing assignment":      func(p *deco.Plan) { p.Config = p.Config[1:] },
		"feasible flipped":        func(p *deco.Plan) { p.Feasible = !p.Feasible },
		"probability below p":     func(p *deco.Plan) { p.ConsProb = []float64{p.Constraints[0].Percentile / 2} },
		"non-finite objective":    func(p *deco.Plan) { p.Objective = p.Objective / 0 },
	} {
		bad := *plan
		bad.Config = slices.Clone(plan.Config)
		corrupt(&bad)
		if err := checkPlan(&bad, &reqs[0], cat); err == nil {
			t.Errorf("%s: corrupted plan passed the checks", name)
		}
		if err := samePlan(plan, &bad); err == nil {
			t.Errorf("%s: corrupted plan compared equal to the original", name)
		}
	}
}

func TestChecksCatchBrokenRun(t *testing.T) {
	reqs, err := genManaged(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := &reqs[0]
	met := true
	good := func() *runOutcome {
		o := &runOutcome{events: []runtime.StreamEvent{{Kind: "task_start"}, {Kind: "done", Makespan: 10, TotalCost: 1, DeadlineMet: &met}}}
		o.view.Events = 2
		o.result.Events = 2
		o.result.Makespan, o.result.TotalCost, o.result.DeadlineMet = 10, 1, &met
		o.result.Plan.Tasks, o.result.Plan.Feasible = 1, true
		o.result.Plan.Objective, o.result.Plan.EstimatedCost = 1, 1
		o.result.Plan.ConstraintProbs = []float64{1}
		o.result.Plan.Assignments = []service.Assignment{{Task: "a", Type: "m1.small"}}
		o.result.FinalAssignments = []service.Assignment{{Task: "a", Type: "m1.small:spot"}}
		return o
	}
	cat := cloud.DefaultCatalog()
	if err := checkRun(good(), r, cat); err != nil {
		t.Fatalf("intact run rejected: %v", err)
	}
	for name, corrupt := range map[string]func(o *runOutcome){
		"event lost":         func(o *runOutcome) { o.events = o.events[1:] },
		"stream not done":    func(o *runOutcome) { o.events[1].Kind = "risk" },
		"makespan disagrees": func(o *runOutcome) { o.events[1].Makespan = 11 },
		"unknown type":       func(o *runOutcome) { o.result.FinalAssignments[0].Type = "c9.huge" },
		"infeasible verdict": func(o *runOutcome) { o.result.Plan.ConstraintProbs = []float64{0.5} },
		"deadline_met wrong": func(o *runOutcome) { o.result.Makespan, o.events[1].Makespan = r.Deadline+1, r.Deadline+1 },
	} {
		o := good()
		corrupt(o)
		if err := checkRun(o, r, cat); err == nil {
			t.Errorf("%s: broken run passed the checks", name)
		}
	}
}

// TestBenchmarkJSONMatchesOutput keeps BENCHMARK.json and the printed metric
// names and units in step.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if i < len(perLayer) && (m.Name != perLayer[i].name || m.Unit != perLayer[i].unit) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s), printed %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	res, _ := smoke(t, wlPlanCold, 1, 1, false)
	if len(res.Metrics) != len(spec.EndToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the benchmark prints %d", len(spec.EndToEnd), len(res.Metrics))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s): printed %+v", m.Name, m.Unit, got)
		}
	}
}
