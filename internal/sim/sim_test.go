package sim

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/dist"
	"deco/internal/wfgen"
)

func newSim(t *testing.T, seed int64) (*Sim, *cloud.Catalog) {
	t.Helper()
	cat := cloud.DefaultCatalog()
	s, err := New(DefaultOptions(cat, rand.New(rand.NewSource(seed))))
	if err != nil {
		t.Fatal(err)
	}
	return s, cat
}

func chain(t *testing.T) *dag.Workflow {
	t.Helper()
	w := dag.New("chain")
	_ = w.AddTask(&dag.Task{ID: "a", CPUSeconds: 100,
		Outputs: []dag.File{{Name: "f", SizeMB: 10}}})
	_ = w.AddTask(&dag.Task{ID: "b", CPUSeconds: 200,
		Inputs: []dag.File{{Name: "f", SizeMB: 10}}})
	if err := w.AddEdge("a", "b"); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunChainBasics(t *testing.T) {
	s, _ := newSim(t, 1)
	w := chain(t)
	plan := UniformPlan(w, "m1.small", cloud.USEast)
	res, err := s.Run(context.Background(), w, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Task b starts after a finishes.
	if res.Tasks["b"].Start < res.Tasks["a"].Finish {
		t.Errorf("b started %v before a finished %v", res.Tasks["b"].Start, res.Tasks["a"].Finish)
	}
	// Makespan covers both CPU times plus some I/O.
	if res.Makespan < 300 {
		t.Errorf("makespan %v < 300 (CPU floor)", res.Makespan)
	}
	// Two instances, each under an hour: 2 * 0.044.
	if math.Abs(res.InstanceCost-0.088) > 1e-9 {
		t.Errorf("instance cost %v, want 0.088", res.InstanceCost)
	}
	if res.NetworkCost != 0 {
		t.Errorf("same-region run should have no network cost, got %v", res.NetworkCost)
	}
	if res.TotalCost != res.InstanceCost+res.NetworkCost {
		t.Error("total cost mismatch")
	}
	if len(res.Instances) != 2 {
		t.Errorf("instances %d", len(res.Instances))
	}
}

func TestSharedSlotSerializesAndSavesMoney(t *testing.T) {
	s, _ := newSim(t, 2)
	w := dag.New("par")
	_ = w.AddTask(&dag.Task{ID: "a", CPUSeconds: 50})
	_ = w.AddTask(&dag.Task{ID: "b", CPUSeconds: 50})
	// Merge both tasks onto one m1.small instance.
	plan := &Plan{Place: map[string]Placement{
		"a": {Slot: 0, Type: "m1.small", Region: cloud.USEast},
		"b": {Slot: 0, Type: "m1.small", Region: cloud.USEast},
	}}
	res, err := s.Run(context.Background(), w, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Serialized: one must start after the other finishes.
	ra, rb := res.Tasks["a"], res.Tasks["b"]
	if !(ra.Finish <= rb.Start || rb.Finish <= ra.Start) {
		t.Errorf("shared-slot tasks overlap: %+v %+v", ra, rb)
	}
	// Single instance hour: 0.044 (vs 0.088 unmerged).
	if math.Abs(res.InstanceCost-0.044) > 1e-9 {
		t.Errorf("merged cost %v, want 0.044", res.InstanceCost)
	}
}

func TestFasterTypeShortensMakespan(t *testing.T) {
	w, err := wfgen.Montage(1, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := newSim(t, 4)
	small, err := s1.Run(context.Background(), w, UniformPlan(w, "m1.small", cloud.USEast))
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := newSim(t, 4)
	xl, err := s2.Run(context.Background(), w, UniformPlan(w, "m1.xlarge", cloud.USEast))
	if err != nil {
		t.Fatal(err)
	}
	if xl.Makespan >= small.Makespan {
		t.Errorf("xlarge %v not faster than small %v", xl.Makespan, small.Makespan)
	}
	// But more expensive (price ratio 8x, speedup < 8x on I/O-bound parts).
	if xl.TotalCost <= small.TotalCost {
		t.Errorf("xlarge cost %v should exceed small %v", xl.TotalCost, small.TotalCost)
	}
}

func TestCrossRegionCostsAndTime(t *testing.T) {
	w := chain(t)
	// Parent in US East, child in Singapore: f (10MB) crosses regions.
	plan := &Plan{Place: map[string]Placement{
		"a": {Slot: 0, Type: "m1.small", Region: cloud.USEast},
		"b": {Slot: 1, Type: "m1.small", Region: cloud.APSoutheast},
	}}
	s, _ := newSim(t, 5)
	res, err := s.Run(context.Background(), w, plan)
	if err != nil {
		t.Fatal(err)
	}
	wantNet := 10.0 / 1024 * 0.09 // US East egress price
	if math.Abs(res.NetworkCost-wantNet) > 1e-9 {
		t.Errorf("network cost %v, want %v", res.NetworkCost, wantNet)
	}
	// Mixed-region pricing: a at US (0.044), b at SG (0.044*1.33).
	wantInst := 0.044 + 0.044*1.33
	if math.Abs(res.InstanceCost-wantInst) > 1e-9 {
		t.Errorf("instance cost %v, want %v", res.InstanceCost, wantInst)
	}
}

func TestBillingRoundsUpHours(t *testing.T) {
	// One task slightly over an hour on the CPU.
	w := dag.New("long")
	_ = w.AddTask(&dag.Task{ID: "t", CPUSeconds: 3700})
	s, _ := newSim(t, 6)
	res, err := s.Run(context.Background(), w, UniformPlan(w, "m1.small", cloud.USEast))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.InstanceCost-2*0.044) > 1e-9 {
		t.Errorf("cost %v, want 2 hours * 0.044", res.InstanceCost)
	}
	if res.InstanceHours != 2 {
		t.Errorf("instance hours %v, want 2", res.InstanceHours)
	}
}

func TestProvisionDelayShiftsStart(t *testing.T) {
	cat := cloud.DefaultCatalog()
	opt := DefaultOptions(cat, rand.New(rand.NewSource(7)))
	opt.ProvisionDelaySec = 60
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	w := dag.New("one")
	_ = w.AddTask(&dag.Task{ID: "t", CPUSeconds: 10})
	res, err := s.Run(context.Background(), w, UniformPlan(w, "m1.small", cloud.USEast))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks["t"].Start != 60 {
		t.Errorf("start %v, want 60", res.Tasks["t"].Start)
	}
}

func TestPlanValidation(t *testing.T) {
	s, cat := newSim(t, 8)
	w := chain(t)
	// Missing task.
	bad := &Plan{Place: map[string]Placement{"a": {Slot: 0, Type: "m1.small", Region: cloud.USEast}}}
	if _, err := s.Run(context.Background(), w, bad); err == nil {
		t.Error("missing task accepted")
	}
	// Unknown type.
	bad = UniformPlan(w, "m9.z", cloud.USEast)
	if _, err := s.Run(context.Background(), w, bad); err == nil {
		t.Error("unknown type accepted")
	}
	// Unknown region.
	bad = UniformPlan(w, "m1.small", "mars")
	if _, err := s.Run(context.Background(), w, bad); err == nil {
		t.Error("unknown region accepted")
	}
	// Conflicting slot typing.
	bad = &Plan{Place: map[string]Placement{
		"a": {Slot: 0, Type: "m1.small", Region: cloud.USEast},
		"b": {Slot: 0, Type: "m1.large", Region: cloud.USEast},
	}}
	if err := bad.Validate(w, cat); err == nil {
		t.Error("conflicting slot accepted")
	}
}

func TestRandomPlanUsesCatalogTypes(t *testing.T) {
	w, _ := wfgen.Pipeline(20, rand.New(rand.NewSource(9)))
	cat := cloud.DefaultCatalog()
	plan := RandomPlan(w, cat, cloud.USEast, rand.New(rand.NewSource(10)))
	if err := plan.Validate(w, cat); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, pl := range plan.Place {
		seen[pl.Type] = true
	}
	if len(seen) < 2 {
		t.Errorf("random plan used only %v", seen)
	}
}

func TestRunManyVariance(t *testing.T) {
	// Fig 2: repeated executions of the same plan vary in time.
	w, err := wfgen.Montage(1, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newSim(t, 12)
	rs, err := s.RunMany(context.Background(), w, UniformPlan(w, "m1.medium", cloud.USEast), 30)
	if err != nil {
		t.Fatal(err)
	}
	ms := Makespans(rs)
	if len(ms) != 30 {
		t.Fatalf("results %d", len(ms))
	}
	if dist.StddevOf(ms) == 0 {
		t.Error("no variance across runs — dynamics not simulated")
	}
	cs := Costs(rs)
	if len(cs) != 30 || cs[0] <= 0 {
		t.Error("costs missing")
	}
}

func TestIntegrateExactness(t *testing.T) {
	// Constant rate: moving 100MB at 10MB/s takes exactly 10s.
	got := integrate(100, dist.Constant{V: 10}, rand.New(rand.NewSource(13)), 60)
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("integrate %v, want 10", got)
	}
	if integrate(0, dist.Constant{V: 10}, rand.New(rand.NewSource(13)), 60) != 0 {
		t.Error("zero bytes should take zero time")
	}
	// Sub-second transfer.
	got = integrate(5, dist.Constant{V: 10}, rand.New(rand.NewSource(13)), 60)
	if math.Abs(got-0.5) > 1e-9 {
		t.Errorf("integrate %v, want 0.5", got)
	}
	// Multi-period transfer at a constant rate is exact regardless of period.
	got = integrate(1000, dist.Constant{V: 10}, rand.New(rand.NewSource(13)), 7)
	if math.Abs(got-100) > 1e-9 {
		t.Errorf("integrate %v, want 100", got)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("nil catalog accepted")
	}
	if _, err := New(Options{Cat: cloud.DefaultCatalog()}); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestMontageRunsAtAllDegrees(t *testing.T) {
	for _, d := range []int{1, 2} {
		w, err := wfgen.Montage(d, rand.New(rand.NewSource(14)))
		if err != nil {
			t.Fatal(err)
		}
		s, _ := newSim(t, 15)
		res, err := s.Run(context.Background(), w, UniformPlan(w, "m1.large", cloud.USEast))
		if err != nil {
			t.Fatalf("degree %d: %v", d, err)
		}
		if res.Makespan <= 0 || res.TotalCost <= 0 {
			t.Errorf("degree %d: degenerate result %+v", d, res)
		}
		// Every task recorded with start <= finish.
		for id, tr := range res.Tasks {
			if tr.Start > tr.Finish {
				t.Errorf("task %s start %v > finish %v", id, tr.Start, tr.Finish)
			}
		}
	}
}
