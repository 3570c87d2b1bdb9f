package deco

// Repository-level benchmarks: one per table/figure of the paper's
// evaluation (§6), driving the harness in internal/exp at quick scale, plus
// solver micro-benchmarks (per-task overhead, Monte-Carlo evaluation,
// expansion and search). Device speedup is timed only by env.Speedup
// (BenchmarkSolverSpeedup here, the device_scaling row of cmd/benchsolver).
// Run with:
//
//	go test -bench=. -benchmem
//
// cmd/decobench prints the corresponding rows; EXPERIMENTS.md records the
// paper-vs-measured comparison.

import (
	"context"
	"io"
	"math/rand"
	"testing"

	"deco/internal/device"
	"deco/internal/exp"
	"deco/internal/opt"
	"deco/internal/probir"
	"deco/internal/wfgen"
	"deco/internal/wlog"
)

func benchEnv(b *testing.B) *exp.Env {
	b.Helper()
	cfg := exp.QuickConfig()
	env, err := exp.NewEnv(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return env
}

func BenchmarkFig1(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.Fig1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.Fig2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.Table2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.Fig6(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.Fig7(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.Fig8(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.Fig9(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.Fig10(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.Fig11(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolverSpeedup(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.Speedup(io.Discard, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizationOverhead(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.Overhead(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- solver micro-benchmarks ---

// benchSpace builds a scheduling space over a Montage workflow with a
// 96% deadline for micro-benchmarks.
func benchSpace(b *testing.B, tasks, iters int) *opt.ScheduleSpace {
	b.Helper()
	env := benchEnv(b)
	w, err := wfgen.BySize(wfgen.AppMontage, tasks, rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := env.Est.BuildTable(w)
	if err != nil {
		b.Fatal(err)
	}
	deadline, err := env.Deadline(w, "medium")
	if err != nil {
		b.Fatal(err)
	}
	cons := []wlog.Constraint{{Kind: "deadline", Percentile: 0.96, Bound: deadline}}
	eval, err := probir.NewNative(w, tbl, env.Prices, probir.GoalCost, cons, iters)
	if err != nil {
		b.Fatal(err)
	}
	return opt.NewScheduleSpace(w, eval)
}

// BenchmarkMonteCarloEvaluation measures one state evaluation: the inner
// loop of Algorithm 1 (sampling worlds, longest-path DP per world).
func BenchmarkMonteCarloEvaluation(b *testing.B) {
	space := benchSpace(b, 100, 100)
	state := space.Initial()
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := space.Evaluate(state, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluationCore measures one solver frontier expansion on the flat
// common-random-number core: the initial state plus its Δ=1 neighbors, each
// evaluated through its CRN world kernel over the shared compiled program.
// A fresh base per iteration redoes the duration sampling, so the figure
// includes row fill, not just the DP. cmd/benchsolver measures this same
// batch and records it, with an allocation ceiling per state, in
// BENCH_solver.json.
func BenchmarkEvaluationCore(b *testing.B) {
	space := benchSpace(b, 100, 100)
	states := []opt.State{space.Initial()}
	for _, tr := range space.Neighbors(space.Initial()) {
		states = append(states, tr.Apply(nil, space.Initial()))
	}
	if len(states) > 17 {
		states = states[:17]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel := space.Describe(context.Background(), int64(i)+1).Kernel
		for _, st := range states {
			k, err := kernel(st)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := probir.RunKernel(k); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExpansion measures one frontier expansion — a parent and its
// full Δ=1 neighbor set — through the compiled problem pipeline at per-task
// granularity.
func BenchmarkExpansion(b *testing.B) {
	space := benchSpace(b, 100, 100)
	space.Groups = opt.GroupPerTask(space.W)
	p, err := opt.Compile(space, opt.Options{Device: device.Sequential{}, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	parent := p.Starts()[0]
	if _, _, _, err := p.EvaluateExpansion(parent); err != nil { // warm rows
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := p.EvaluateExpansion(parent); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalCacheWarmSearch measures a full search answered from a warm
// evaluation cache — the decod resubmission / replan-reuse case.
func BenchmarkEvalCacheWarmSearch(b *testing.B) {
	space := benchSpace(b, 100, 40)
	cache := opt.NewEvalCache(0)
	so := opt.DefaultOptions(device.TwoLevel{})
	so.MaxStates = 400
	so.Seed = 5
	so.Cache = cache
	if _, err := opt.Search(space, so); err != nil { // warm it
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Search(space, so); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAStarSearch measures the pruned best-first variant.
func BenchmarkAStarSearch(b *testing.B) {
	space := benchSpace(b, 100, 40)
	so := opt.DefaultOptions(device.TwoLevel{})
	so.MaxStates = 400
	so.Seed = 5
	so.AStar = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Search(space, so); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation runs the design-choice ablations (search strategy,
// Monte-Carlo budget, objective, starts, granularity).
func BenchmarkAblation(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.Ablation(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
