package exp

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"

	"deco/internal/device"
	"deco/internal/ensemble"
)

func quickEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestNewEnvValidation(t *testing.T) {
	if _, err := NewEnv(Config{Runs: 0, Iters: 10}); err == nil {
		t.Error("zero runs accepted")
	}
	if _, err := NewEnv(Config{Runs: 10, Iters: 0}); err == nil {
		t.Error("zero iters accepted")
	}
}

func TestDeadlineSettingsOrdered(t *testing.T) {
	env := quickEnv(t)
	w, err := env.Montage(1)
	if err != nil {
		t.Fatal(err)
	}
	tight, _ := env.Deadline(w, "tight")
	medium, _ := env.Deadline(w, "medium")
	loose, _ := env.Deadline(w, "loose")
	if !(tight < medium && medium < loose) {
		t.Errorf("deadlines not ordered: %v %v %v", tight, medium, loose)
	}
	if _, err := env.Deadline(w, "weird"); err == nil {
		t.Error("unknown setting accepted")
	}
}

func TestFig1Shape(t *testing.T) {
	env := quickEnv(t)
	var buf bytes.Buffer
	res, err := env.Fig1(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows %d, want 7 scenarios", len(res.Rows))
	}
	byName := map[string]Fig1Row{}
	for _, r := range res.Rows {
		byName[r.Config] = r
	}
	deco := byName["deco"]
	// Deco satisfies the deadline requirement.
	if !deco.Satisfies {
		t.Errorf("deco violates the deadline: %+v", deco)
	}
	// Among satisfying configurations Deco is cheapest (the Fig 1 claim).
	for name, r := range byName {
		if name == "deco" || !r.Satisfies {
			continue
		}
		if deco.AvgCost > r.AvgCost*1.02 {
			t.Errorf("deco $%.4f more expensive than satisfying %s $%.4f", deco.AvgCost, name, r.AvgCost)
		}
	}
	// Deco is dramatically cheaper than the most expensive configuration
	// (paper: 40% of m1.xlarge).
	if deco.AvgCost >= byName["m1.xlarge"].AvgCost {
		t.Errorf("deco %.4f should be below m1.xlarge %.4f", deco.AvgCost, byName["m1.xlarge"].AvgCost)
	}
	if !strings.Contains(buf.String(), "Figure 1") {
		t.Error("rendering missing")
	}
}

func TestFig2Variance(t *testing.T) {
	env := quickEnv(t)
	var b2 bytes.Buffer
	res, err := env.Fig2(&b2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(env.MontageDegrees()) {
		t.Fatalf("rows %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		// Quantiles ordered around 1.
		if !(r.Min <= r.P25 && r.P25 <= r.Med && r.Med <= r.P75 && r.P75 <= r.Max) {
			t.Errorf("%s: quantiles not ordered: %+v", r.Workflow, r)
		}
		if r.Min > 1 || r.Max < 1 {
			t.Errorf("%s: normalization broken: %+v", r.Workflow, r)
		}
		// The paper's point: variance is significant.
		if r.SpreadPct <= 0 {
			t.Errorf("%s: no spread", r.Workflow)
		}
	}
}

func TestTable2RecoversGroundTruth(t *testing.T) {
	env := quickEnv(t)
	var bt bytes.Buffer
	res, err := env.Table2(&bt)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range res.Calib.Reports {
		truth := env.Cat.Perf.SeqIO[rep.Type]
		if rel(rep.SeqGamma.Mean(), truth.Mean()) > 0.05 {
			t.Errorf("%s: seq mean %v vs %v", rep.Type, rep.SeqGamma.Mean(), truth.Mean())
		}
	}
}

func rel(a, b float64) float64 {
	if b == 0 {
		return a
	}
	d := a/b - 1
	if d < 0 {
		return -d
	}
	return d
}

func TestFig6Shape(t *testing.T) {
	env := quickEnv(t)
	var b6 bytes.Buffer
	res, err := env.Fig6(&b6)
	if err != nil {
		t.Fatal(err)
	}
	// §6.2: variance up to ~50%; Normal fit accepted.
	if res.MaxVariancePct < 30 {
		t.Errorf("max variance %v%% too small", res.MaxVariancePct)
	}
	if !res.KSPass {
		t.Error("Normal fit rejected for m1.medium network")
	}
	if rel(res.NormalFitMu, 75) > 0.05 {
		t.Errorf("fitted mu %v, truth 75", res.NormalFitMu)
	}
}

func TestFig7Shape(t *testing.T) {
	env := quickEnv(t)
	var b7 bytes.Buffer
	res, err := env.Fig7(&b7)
	if err != nil {
		t.Fatal(err)
	}
	if res.LargeLargeMean <= res.MixedMean {
		t.Errorf("large-large mean %v should beat mixed %v", res.LargeLargeMean, res.MixedMean)
	}
	if res.LargeLargeCV >= res.MixedCV {
		t.Errorf("large-large cv %v should be tighter than mixed %v", res.LargeLargeCV, res.MixedCV)
	}
}

func TestFig8Shape(t *testing.T) {
	env := quickEnv(t)
	var b8 bytes.Buffer
	res, err := env.Fig8(&b8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) == 0 {
		t.Fatal("no cells")
	}
	worse := 0
	for _, c := range res.Cells {
		// Deco never much more expensive than Autoscaling.
		if c.NormCost > 1.05 {
			worse++
		}
	}
	if worse > len(res.Cells)/3 {
		t.Errorf("deco beaten by autoscaling in %d/%d cells", worse, len(res.Cells))
	}
}

func TestFig9Shape(t *testing.T) {
	env := quickEnv(t)
	var b9 bytes.Buffer
	res, err := env.Fig9(&b9)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) == 0 {
		t.Fatal("no cells")
	}
	for _, c := range res.Cells {
		// Deco's admission search never scores below SPSS (the Fig 9 claim:
		// "better than or the same scores as SPSS").
		if c.SPSSScore > 0 && c.DecoScore < c.SPSSScore-1e-9 {
			t.Errorf("%s %s: deco %v < spss %v", c.Kind, c.BudgetLabel, c.DecoScore, c.SPSSScore)
		}
		// SPSS's per-workflow cost exceeds Deco's (paper: ~1.4x).
		if c.CostRatio <= 1 {
			t.Errorf("%s: SPSS/Deco cost ratio %v should exceed 1", c.Kind, c.CostRatio)
		}
	}
	// At some mid budget Deco should strictly beat SPSS for at least one
	// ensemble type.
	strictly := 0
	for _, c := range res.Cells {
		if c.DecoScore > c.SPSSScore+1e-9 {
			strictly++
		}
	}
	if strictly == 0 {
		t.Error("Deco never strictly beat SPSS at any budget")
	}
	_ = ensemble.Kinds
}

func TestFig10Shape(t *testing.T) {
	env := quickEnv(t)
	var b10 bytes.Buffer
	res, err := env.Fig10(&b10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.A) != len(env.MontageDegrees()) || len(res.B) == 0 {
		t.Fatalf("rows a=%d b=%d", len(res.A), len(res.B))
	}
	for _, r := range res.A {
		if r.NormCost > 1.0+1e-9 {
			t.Errorf("%s: deco/heuristic %v > 1", r.Size, r.NormCost)
		}
	}
	// 10b: the heuristic degrades as the threshold shrinks, so Deco's
	// advantage is largest at the smallest threshold.
	first, last := res.B[0], res.B[len(res.B)-1]
	if first.Threshold >= last.Threshold {
		t.Fatal("threshold sweep not ascending")
	}
	if first.NormCost > last.NormCost+1e-9 {
		t.Errorf("advantage at threshold %v (%v) should be at least that at %v (%v)",
			first.Threshold, first.NormCost, last.Threshold, last.NormCost)
	}
}

// TestSpeedupShape checks the structure of the §6.3 series and that every
// device lands on the same plan, over one round. It asserts no wall-clock
// ratio: those are gated on cmd/benchsolver's device_scaling row.
func TestSpeedupShape(t *testing.T) {
	env := quickEnv(t)
	var bs bytes.Buffer
	res, err := env.Speedup(&bs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	narrow := 0
	for _, r := range res.Rows {
		if r.TwoLevel <= 0 {
			t.Errorf("%s: no two-level measurement", r.Workload)
		}
		if r.Beam > 0 {
			narrow++
		}
		if len(r.Results) != len(SpeedupDevices) {
			t.Fatalf("%s: %d results for %d devices", r.Workload, len(r.Results), len(SpeedupDevices))
		}
		want := r.Results[0]
		for d, got := range r.Results[1:] {
			if got.Best.Key() != want.Best.Key() || got.BestEval.Value != want.BestEval.Value {
				t.Errorf("%s: %s found %v (objective %v), sequential %v (objective %v)", r.Workload,
					SpeedupDevices[d+1].Name(), got.Best, got.BestEval.Value, want.Best, want.BestEval.Value)
			}
		}
	}
	if narrow == 0 {
		t.Error("no narrow-beam rows in the series")
	}
}

// The state-parallel comparator pins each block to one worker: whatever
// the shape, each block's threads run in ascending order and never two at
// once, and every (block, thread) pair runs exactly once.
func TestStateParallelPinsBlocks(t *testing.T) {
	shapes := [][2]int{{6, 50}, {1, 2}, {1, 40}, {2, 7}, {9, 1}}
	for _, workers := range []int{1, 2, 4} {
		d := stateParallel{device.TwoLevel{NumWorkers: workers}}
		for _, sh := range shapes {
			nb, th := sh[0], sh[1]
			last := make([]int32, nb)
			busy := make([]int32, nb)
			counts := make([]int32, nb*th)
			for i := range last {
				last[i] = -1
			}
			d.MapBlocks(nb, th, func(b, tt int) {
				if n := atomic.AddInt32(&busy[b], 1); n != 1 {
					t.Errorf("%s %dx%d: block %d runs %d threads at once", d.Name(), nb, th, b, n)
				}
				if prev := atomic.LoadInt32(&last[b]); int32(tt) != prev+1 {
					t.Errorf("%s %dx%d: block %d: thread %d after %d", d.Name(), nb, th, b, tt, prev)
				}
				atomic.StoreInt32(&last[b], int32(tt))
				atomic.AddInt32(&counts[b*th+tt], 1)
				atomic.AddInt32(&busy[b], -1)
			})
			for i, c := range counts {
				if c != 1 {
					t.Errorf("%s %dx%d: pair %d ran %d times", d.Name(), nb, th, i, c)
				}
			}
		}
	}
}

func TestOverheadShape(t *testing.T) {
	env := quickEnv(t)
	var bo bytes.Buffer
	res, err := env.Overhead(&bo)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 2 {
		t.Fatal("too few rows")
	}
	for _, r := range res.Rows {
		if r.PerTaskMs <= 0 {
			t.Errorf("%d tasks: non-positive per-task overhead", r.Tasks)
		}
		// Practicality claim: well under a second per task.
		if r.PerTaskMs > 1000 {
			t.Errorf("%d tasks: %.1f ms/task is impractical", r.Tasks, r.PerTaskMs)
		}
	}
}

func TestAblationShapes(t *testing.T) {
	env := quickEnv(t)
	var ba bytes.Buffer
	res, err := env.Ablation(&ba)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Search) != 3 || len(res.MCIters) != 4 || len(res.Objective) != 2 ||
		len(res.MultiStart) != 2 || len(res.Granularity) != 2 {
		t.Fatalf("missing sections: %+v", res)
	}
	// All search strategies find a feasible plan.
	for _, r := range res.Search {
		if !r.Feasible {
			t.Errorf("%s found no feasible plan", r.Strategy)
		}
	}
	// A* evaluates far fewer states (its pruning is the point).
	if res.Search[2].Strategy != "astar" || res.Search[2].Evaluated >= res.Search[0].Evaluated {
		t.Errorf("astar states %d not below generic %d", res.Search[2].Evaluated, res.Search[0].Evaluated)
	}
	// MC: evaluation time grows with iterations; the high-budget estimate is
	// closer to the reference than the low-budget one.
	if res.MCIters[0].EvalTime >= res.MCIters[3].EvalTime {
		t.Error("eval time not increasing with iterations")
	}
	if res.MCIters[3].ProbErr > res.MCIters[0].ProbErr+0.05 {
		t.Errorf("400-iter error %v much worse than 10-iter %v", res.MCIters[3].ProbErr, res.MCIters[0].ProbErr)
	}
	// Objective fidelity: the packed objective predicts the realized cost
	// (hour billing included) while the fractional Eq. 1 objective wildly
	// underestimates it — the reason the search optimizes the packed cost.
	packed := res.Objective[1]
	frac := res.Objective[0]
	if rel(packed.PlannedCost, packed.RealizedCost) > 0.3 {
		t.Errorf("packed planned %v should track realized %v", packed.PlannedCost, packed.RealizedCost)
	}
	if frac.PlannedCost > frac.RealizedCost/2 {
		t.Errorf("fractional plan %v suspiciously close to realized %v",
			frac.PlannedCost, frac.RealizedCost)
	}
	// Multi-start never loses to single-start (shared frontier).
	if res.MultiStart[1].Cost > res.MultiStart[0].Cost*1.05 {
		t.Errorf("multi-start %v worse than single-start %v", res.MultiStart[1].Cost, res.MultiStart[0].Cost)
	}
}

func TestFig11Shape(t *testing.T) {
	env := quickEnv(t)
	var buf bytes.Buffer
	res, err := env.Fig11(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	// As the deadline loosens, Deco's cost must not increase and its time
	// must not decrease (Fig 11's monotone shape).
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].DecoCost > res.Rows[i-1].DecoCost*1.01 {
			t.Errorf("deco cost rose when deadline loosened: %v -> %v",
				res.Rows[i-1].DecoCost, res.Rows[i].DecoCost)
		}
		if res.Rows[i].DecoTime < res.Rows[i-1].DecoTime*0.95 {
			t.Errorf("deco time shrank when deadline loosened: %v -> %v",
				res.Rows[i-1].DecoTime, res.Rows[i].DecoTime)
		}
	}
	// Deco at or below Autoscaling in every setting.
	for _, r := range res.Rows {
		if r.DecoCost > r.AsCost*1.05 {
			t.Errorf("%s: deco %v above autoscaling %v", r.Setting, r.DecoCost, r.AsCost)
		}
	}
	if !strings.Contains(buf.String(), "Figure 11") {
		t.Error("rendering missing")
	}
}
