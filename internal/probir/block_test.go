package probir

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/estimate"
	"deco/internal/wfgen"
	"deco/internal/wlog"
)

// blockWorkflows returns the workflows the block-kernel test sweeps: one of
// each wfgen family the paper evaluates plus random small DAGs.
func blockWorkflows(t *testing.T) []*dag.Workflow {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	var out []*dag.Workflow
	for _, app := range []wfgen.App{wfgen.AppMontage, wfgen.AppCyberShake, wfgen.AppLigo, wfgen.AppEpigenomics} {
		w, err := wfgen.BySize(app, 40, rng)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w)
	}
	for k := 0; k < 2; k++ {
		w := dag.New(fmt.Sprintf("rand%d", k))
		nt := 6 + rng.Intn(10)
		id := func(i int) string { return fmt.Sprintf("t%02d", i) }
		for i := 0; i < nt; i++ {
			task := &dag.Task{ID: id(i), CPUSeconds: 50 + rng.Float64()*400,
				Inputs:  []dag.File{{Name: "in_" + id(i), SizeMB: 50 + rng.Float64()*300}},
				Outputs: []dag.File{{Name: "out_" + id(i), SizeMB: 25 + rng.Float64()*150}}}
			if err := w.AddTask(task); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i < nt; i++ {
			for p := rng.Intn(3); p > 0; p-- {
				if err := w.AddEdge(id(rng.Intn(i)), id(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		out = append(out, w)
	}
	return out
}

// blockTable builds a workflow's time table from the default catalog, with
// spot columns for two types and their market specs when spot is set.
func blockTable(t *testing.T, w *dag.Workflow, md *cloud.Metadata, spot bool) (*estimate.Table, []float64, []MarketSpec) {
	t.Helper()
	cat := cloud.DefaultCatalog()
	tbl, err := estimate.New(cat, md).BuildTable(w)
	if err != nil {
		t.Fatal(err)
	}
	us, err := cat.Region(cloud.USEast)
	if err != nil {
		t.Fatal(err)
	}
	if spot {
		if tbl, err = tbl.ExpandSpot([]string{"m1.small", "m1.xlarge"}); err != nil {
			t.Fatal(err)
		}
	}
	prices := make([]float64, len(tbl.Types))
	var markets []MarketSpec
	if spot {
		markets = make([]MarketSpec, len(tbl.Types))
	}
	for j, name := range tbl.Types {
		if !cloud.IsSpotName(name) {
			prices[j] = us.PricePerHour[name]
			continue
		}
		m := us.Spot[cloud.BaseType(name)]
		prices[j] = m.PricePerHourMean
		markets[j] = MarketSpec{Spot: true, PriceMean: m.PricePerHourMean, PriceSigma: m.PriceSigma,
			RevocationsPerHour: m.RevocationsPerHour, OnDemandUSD: us.PricePerHour[cloud.BaseType(name)]}
	}
	return tbl, prices, markets
}

// perWorld runs a kernel one world per call over worlds 0..Worlds()-1 —
// the sequential reference every chunked run must reproduce — and returns
// the figure rows in world order.
func perWorld(t *testing.T, k WorldKernel) []float64 {
	t.Helper()
	width := k.Width()
	rows := make([]float64, k.Worlds()*width)
	for it := 0; it < k.Worlds(); it++ {
		if err := k.Sample(it, it+1, rows[it*width:(it+1)*width]); err != nil {
			t.Fatal(err)
		}
	}
	return rows
}

// chunked runs a kernel over its worlds in ranges of size, calling the
// ranges in a shuffled order as a device might, and returns the figure rows
// in world order.
func chunked(t *testing.T, k WorldKernel, size int, rng *rand.Rand) []float64 {
	t.Helper()
	width, n := k.Width(), k.Worlds()
	rows := make([]float64, n*width)
	var los []int
	for lo := 0; lo < n; lo += size {
		los = append(los, lo)
	}
	rng.Shuffle(len(los), func(i, j int) { los[i], los[j] = los[j], los[i] })
	for _, lo := range los {
		hi := min(lo+size, n)
		if err := k.Sample(lo, hi, rows[lo*width:hi*width]); err != nil {
			t.Fatal(err)
		}
	}
	return rows
}

// sameSnapshot fails unless two snapshots hold bitwise-equal finish times
// and makespans, and argmax tasks that are equal too or, with exactAmax
// unset (on a tie a delta keeps the parent's argmax where the full DP takes
// the first sink in index order), that attain the makespan.
func sameSnapshot(t *testing.T, what string, got, want *Snapshot, exactAmax bool) {
	t.Helper()
	for i := range want.finish {
		if math.Float64bits(got.finish[i]) != math.Float64bits(want.finish[i]) {
			t.Fatalf("%s: finish[%d] %v != %v", what, i, got.finish[i], want.finish[i])
		}
	}
	for w := range want.ms {
		if math.Float64bits(got.ms[w]) != math.Float64bits(want.ms[w]) {
			t.Fatalf("%s: world %d makespan %v != %v", what, w, got.ms[w], want.ms[w])
		}
		if a := got.amax[w]; a != want.amax[w] && (exactAmax || got.finish[int(a)*got.worlds+w] != got.ms[w]) {
			t.Fatalf("%s: world %d argmax task %d, want %d", what, w, a, want.amax[w])
		}
	}
}

// TestBlockKernelMatchesPerWorld pins the ranged kernel contract: the native
// CRN kernel's full, capturing and dirty-cone delta passes, run over random
// chunkings of the worlds (chunk sizes 1, 7, 13, 50 and all worlds, called
// in shuffled order), produce figure rows, folded sums and snapshot contents
// (finish, ms, amax) bitwise equal to the one-world-per-call reference.
// The reference itself is checked against dag.Flat.Makespan per world.
// The sweep covers the wfgen Montage, CyberShake, LIGO and Epigenomics
// families plus random small DAGs, with and without spot markets, under
// every deadline/budget × mean/percentile constraint shape.
func TestBlockKernelMatchesPerWorld(t *testing.T) {
	const worlds = 100
	md, err := cloud.MetadataFromTruth(cloud.DefaultCatalog(), 15, 2000, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct {
		name string
		cons func(dl, bud float64) []wlog.Constraint
	}{
		{"deadline-pct", func(dl, bud float64) []wlog.Constraint {
			return []wlog.Constraint{{Kind: "deadline", Percentile: 0.9, Bound: dl}}
		}},
		{"deadline-mean", func(dl, bud float64) []wlog.Constraint {
			return []wlog.Constraint{{Kind: "deadline", Percentile: -1, Bound: dl}}
		}},
		{"budget-pct", func(dl, bud float64) []wlog.Constraint {
			return []wlog.Constraint{{Kind: "budget", Percentile: 0.8, Bound: bud}}
		}},
		{"budget-mean", func(dl, bud float64) []wlog.Constraint {
			return []wlog.Constraint{{Kind: "budget", Percentile: -1, Bound: bud}}
		}},
		{"all", func(dl, bud float64) []wlog.Constraint {
			return []wlog.Constraint{
				{Kind: "deadline", Percentile: 0.9, Bound: dl},
				{Kind: "budget", Percentile: 0.8, Bound: bud},
				{Kind: "deadline", Percentile: -1, Bound: dl},
				{Kind: "budget", Percentile: -1, Bound: bud},
			}
		}},
	}
	rng := rand.New(rand.NewSource(99))
	for wi, w := range blockWorkflows(t) {
		for _, spot := range []bool{false, true} {
			tbl, prices, markets := blockTable(t, w, md, spot)
			// Bounds at the typical makespan and cost of a mid-range plan,
			// so indicators split the worlds.
			probe, err := NewNativeMarkets(w, tbl, prices, markets, GoalMakespan, nil, worlds)
			if err != nil {
				t.Fatal(err)
			}
			mid := make([]int, w.Len())
			for i := range mid {
				mid[i] = probe.NumTypes() / 2
			}
			pev, err := probe.EvaluateCRN(mid, 1)
			if err != nil {
				t.Fatal(err)
			}
			cost, err := probe.MeanCost(mid)
			if err != nil {
				t.Fatal(err)
			}
			for _, sh := range shapes {
				for _, goal := range []GoalKind{GoalCost, GoalMakespan} {
					name := fmt.Sprintf("wf%d-%s/spot=%v/%s/goal=%d", wi, w.Name, spot, sh.name, goal)
					t.Run(name, func(t *testing.T) {
						n, err := NewNativeMarkets(w, tbl, prices, markets, goal, sh.cons(pev.Value, cost), worlds)
						if err != nil {
							t.Fatal(err)
						}
						checkBlockKernels(t, n, rng)
					})
				}
			}
		}
	}
}

// checkBlockKernels runs one evaluator's kernels through every chunking and
// compares them with the per-world reference.
func checkBlockKernels(t *testing.T, n *Native, rng *rand.Rand) {
	base := rng.Int63()
	nt := n.W.Len()
	parentCfg := make([]int, nt)
	for i := range parentCfg {
		parentCfg[i] = rng.Intn(n.NumTypes())
	}
	childCfg := append([]int(nil), parentCfg...)
	var dirty []int32
	for len(dirty) == 0 {
		for i := range childCfg {
			if rng.Intn(nt) < 3 {
				childCfg[i] = rng.Intn(n.NumTypes())
				if childCfg[i] != parentCfg[i] {
					dirty = append(dirty, int32(i))
				}
			}
		}
	}
	full, err := n.newCRNKernel(context.Background(), childCfg, base)
	if err != nil {
		t.Fatal(err)
	}
	if full.Worlds() == 0 {
		return // deterministic evaluation: no worlds to chunk
	}
	width := full.Width()
	ref := perWorld(t, full)

	// Oracle: the per-world makespan figure is the plain longest-path DP
	// over the world's CRN durations.
	dur := make([]float64, nt)
	fin := make([]float64, nt)
	for it := 0; it < full.Worlds(); it++ {
		for i := range dur {
			dur[i] = full.row(int32(i))[it]
		}
		ms := n.flat.Makespan(dur, fin)
		if full.needMS && ref[it*width+full.msIdx] != ms {
			t.Fatalf("world %d: kernel makespan %v, Flat.Makespan %v", it, ref[it*width+full.msIdx], ms)
		}
	}

	// Reference snapshots, one world per call: the parent captured in full,
	// the child captured in full, and the child by a forced dirty-cone delta.
	var refParent, refFull, refDelta *Snapshot
	capture := func(cfg []int) (*Snapshot, []float64) {
		s := n.NewSnapshot()
		k, err := n.CRNKernelSnap(context.Background(), cfg, base, s)
		if err != nil {
			t.Fatal(err)
		}
		return s, perWorld(t, k)
	}
	deltaKernel := func(parent, snap *Snapshot) WorldKernel {
		plan, err := n.PlanCone(dirty)
		if err != nil {
			t.Fatal(err)
		}
		plan.delta = true // exercise the cone pass whatever the work model says
		k, err := n.CRNDeltaKernelPlanned(context.Background(), childCfg, base, plan, parent, snap)
		if err != nil || k == nil {
			t.Fatalf("delta kernel: %v (nil=%v)", err, k == nil)
		}
		return k
	}
	if n.needsMSSampling() {
		refParent, _ = capture(parentCfg)
		var got []float64
		refFull, got = capture(childCfg)
		sameRows(t, "capture reference", got, ref)
		refDelta = n.NewSnapshot()
		sameRows(t, "delta reference", perWorld(t, deltaKernel(refParent, refDelta)), ref)
		refDelta.materialize()
		sameSnapshot(t, "delta reference vs full capture", refDelta, refFull, false)
		for it := 0; it < n.Iters; it++ {
			// No argmax task means no finish exceeds 0, the makespan's floor.
			if a := refFull.amax[it]; a < 0 && refFull.ms[it] != 0 || a >= 0 && refFull.finish[int(a)*n.Iters+it] != refFull.ms[it] {
				t.Fatalf("world %d: argmax task %d does not attain the makespan", it, a)
			}
		}
		// Reduced sequentially, the full, capturing and delta kernels agree.
		want, err := RunKernel(full)
		if err != nil {
			t.Fatal(err)
		}
		for kind, k := range map[string]WorldKernel{
			"capture": must(n.CRNKernelSnap(context.Background(), childCfg, base, n.NewSnapshot())),
			"delta":   deltaKernel(refParent, n.NewSnapshot()),
		} {
			got, err := RunKernel(k)
			if err != nil {
				t.Fatal(err)
			}
			sameEvalBits(t, "RunKernel "+kind, got, want)
		}
	}

	for _, size := range []int{1, 7, 13, 50, n.Iters} {
		what := fmt.Sprintf("chunk=%d", size)
		check := func(kind string, got []float64) {
			t.Helper()
			sameRows(t, what+" "+kind, got, ref)
			// Folded in world order, the sums match the reference rows
			// folded in the same order.
			gs, rs := make([]float64, width), make([]float64, width)
			for w := 0; w < n.Iters; w++ {
				for f := 0; f < width; f++ {
					gs[f] += got[w*width+f]
					rs[f] += ref[w*width+f]
				}
			}
			sameRows(t, what+" "+kind+" sums", gs, rs)
		}
		check("full", chunked(t, full, size, rng))
		if !n.needsMSSampling() {
			continue
		}
		s, err := n.CRNKernelSnap(context.Background(), childCfg, base, n.NewSnapshot())
		if err != nil {
			t.Fatal(err)
		}
		check("capture", chunked(t, s, size, rng))
		sameSnapshot(t, what+" capture", s.(*nativeKernel).capture, refFull, true)
		snap := n.NewSnapshot()
		check("delta", chunked(t, deltaKernel(refParent, snap), size, rng))
		snap.materialize()
		sameSnapshot(t, what+" delta", snap, refDelta, true)
	}
}

// sameRows fails unless two figure slices are bitwise equal.
func sameRows(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d figures, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: figure %d %v != %v", what, i, got[i], want[i])
		}
	}
}

// must returns a kernel build's result, failing the test on its error.
func must(k WorldKernel, err error) WorldKernel {
	if err != nil {
		panic(err)
	}
	return k
}

// sameEvalBits fails unless two evaluations are bitwise identical, NaN
// figures included.
func sameEvalBits(t *testing.T, what string, got, want *Evaluation) {
	t.Helper()
	same := math.Float64bits(got.Value) == math.Float64bits(want.Value) &&
		math.Float64bits(got.Violation) == math.Float64bits(want.Violation) &&
		got.Feasible == want.Feasible && len(got.ConsProb) == len(want.ConsProb)
	for i := range want.ConsProb {
		same = same && math.Float64bits(got.ConsProb[i]) == math.Float64bits(want.ConsProb[i])
	}
	if !same {
		t.Fatalf("%s: %+v, want %+v", what, got, want)
	}
}

// foldWorkflow builds a random layered DAG of nt tasks whose CPU seconds
// are set per task once the edges are known: cpu(sink) gives each task's,
// and a task for which bare(sink) holds carries no files, so its duration
// is its CPU time alone.
func foldWorkflow(t *testing.T, name string, nt int, rng *rand.Rand, cpu func(i int, sink bool) float64, bare func(sink bool) bool) *dag.Workflow {
	t.Helper()
	w := dag.New(name)
	id := func(i int) string { return fmt.Sprintf("t%02d", i) }
	for i := 0; i < nt; i++ {
		if err := w.AddTask(&dag.Task{ID: id(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < nt; i++ {
		for p := 1 + rng.Intn(2); p > 0; p-- {
			if err := w.AddEdge(id(rng.Intn(i)), id(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, task := range w.Tasks {
		sink := len(w.Children(task.ID)) == 0
		task.CPUSeconds = cpu(i, sink)
		if !bare(sink) {
			task.Inputs = []dag.File{{Name: "in_" + task.ID, SizeMB: 50 + rng.Float64()*300}}
			task.Outputs = []dag.File{{Name: "out_" + task.ID, SizeMB: 25 + rng.Float64()*150}}
		}
	}
	return w
}

// TestBlockKernelAllTaskFold covers the makespan fold over every task, which
// remains for Programs with a negative or NaN duration: there a non-sink's
// finish can exceed every sink's, so folding the sinks alone would be
// wrong. Full, capturing and delta kernels, chunked and sequential, must
// agree bit for bit with the per-world reference and with Flat.Makespan
// (checkBlockKernels). A non-negative fixture whose zero-duration sinks tie
// their parents' finishes holds the sinks-only fold to the same figures on
// the full and delta paths.
func TestBlockKernelAllTaskFold(t *testing.T) {
	const worlds = 60
	md, err := cloud.MetadataFromTruth(cloud.DefaultCatalog(), 15, 2000, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	always := func(bool) bool { return false }
	fixtures := []struct {
		name     string
		w        *dag.Workflow
		negative bool
	}{
		{"negative-sinks", foldWorkflow(t, "negative-sinks", 24, rng, func(i int, sink bool) float64 {
			switch {
			case sink:
				return -3000
			case i%5 == 4:
				return -150
			}
			return 50 + rng.Float64()*400
		}, always), true},
		{"nan", foldWorkflow(t, "nan", 24, rng, func(i int, sink bool) float64 {
			if i%4 == 1 {
				return math.NaN()
			}
			return 50 + rng.Float64()*400
		}, always), true},
		{"zero-sinks", foldWorkflow(t, "zero-sinks", 24, rng, func(i int, sink bool) float64 {
			if sink {
				return 0
			}
			return 50 + rng.Float64()*400
		}, func(sink bool) bool { return sink }), false},
	}
	for _, fx := range fixtures {
		tbl, prices, _ := blockTable(t, fx.w, md, false)
		probe, err := NewNative(fx.w, tbl, prices, GoalMakespan, nil, worlds)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := probe.program(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if prog.negative != fx.negative {
			t.Fatalf("%s: Program.negative %v, want %v", fx.name, prog.negative, fx.negative)
		}
		mid := make([]int, fx.w.Len())
		for i := range mid {
			mid[i] = probe.NumTypes() / 2
		}
		pev, err := probe.EvaluateCRN(mid, 1)
		if err != nil {
			t.Fatal(err)
		}
		cost, err := probe.MeanCost(mid)
		if err != nil {
			t.Fatal(err)
		}
		cons := []wlog.Constraint{
			{Kind: "deadline", Percentile: 0.9, Bound: pev.Value},
			{Kind: "budget", Percentile: 0.8, Bound: cost},
			{Kind: "deadline", Percentile: -1, Bound: pev.Value},
		}
		for _, goal := range []GoalKind{GoalCost, GoalMakespan} {
			t.Run(fmt.Sprintf("%s/goal=%d", fx.name, goal), func(t *testing.T) {
				n, err := NewNative(fx.w, tbl, prices, goal, cons, worlds)
				if err != nil {
					t.Fatal(err)
				}
				for rep := 0; rep < 4; rep++ {
					checkBlockKernels(t, n, rng)
				}
			})
		}
	}
}
