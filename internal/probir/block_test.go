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

// TestBlockKernelMatchesPerWorld pins the ranged kernel contract: the native
// CRN kernel, run over random chunkings of the worlds (chunk sizes 1, 7, 13,
// 50 and all worlds, called in shuffled order), produces figure rows and
// folded sums bitwise equal to the one-world-per-call reference.
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

// checkBlockKernels runs one evaluator's kernel of a random configuration
// through every chunking and compares it with the per-world reference.
func checkBlockKernels(t *testing.T, n *Native, rng *rand.Rand) {
	base := rng.Int63()
	nt := n.W.Len()
	cfg := make([]int, nt)
	for i := range cfg {
		cfg[i] = rng.Intn(n.NumTypes())
	}
	full, err := crnKernel(n, cfg, base)
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
// wrong. The kernel, chunked and sequential, must agree bit for bit with
// the per-world reference and with Flat.Makespan (checkBlockKernels). A
// non-negative fixture whose zero-duration sinks tie their parents'
// finishes holds the sinks-only fold to the same figures.
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
