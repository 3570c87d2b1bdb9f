package probir

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/estimate"
	"deco/internal/wlog"
)

// foldOutOfOrder runs a kernel's worlds in reverse order (as a concurrent
// device might) but folds the per-world figures canonically — the exact
// contract device.ReduceBlocks implements — and reduces.
func foldOutOfOrder(t *testing.T, k WorldKernel) *Evaluation {
	t.Helper()
	worlds, width := k.Worlds(), k.Width()
	slots := make([]float64, worlds*width)
	for it := worlds - 1; it >= 0; it-- {
		if err := k.Sample(it, it+1, slots[it*width:(it+1)*width]); err != nil {
			t.Fatal(err)
		}
	}
	sums := make([]float64, width)
	for it := 0; it < worlds; it++ {
		for w := 0; w < width; w++ {
			sums[w] += slots[it*width+w]
		}
	}
	ev, err := k.Reduce(sums, worlds)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func assertBitIdentical(t *testing.T, got, want *Evaluation) {
	t.Helper()
	if got.Value != want.Value {
		t.Errorf("Value %v != %v", got.Value, want.Value)
	}
	if got.Feasible != want.Feasible {
		t.Errorf("Feasible %v != %v", got.Feasible, want.Feasible)
	}
	if got.Violation != want.Violation {
		t.Errorf("Violation %v != %v", got.Violation, want.Violation)
	}
	if len(got.ConsProb) != len(want.ConsProb) {
		t.Fatalf("ConsProb len %d != %d", len(got.ConsProb), len(want.ConsProb))
	}
	for i := range got.ConsProb {
		if got.ConsProb[i] != want.ConsProb[i] {
			t.Errorf("ConsProb[%d] %v != %v", i, got.ConsProb[i], want.ConsProb[i])
		}
	}
}

// The device path (kernels sampled in any order, sums folded canonically)
// must be bit-identical to the Evaluate reference, for every native
// goal/constraint mix.
func TestNativeKernelMatchesEvaluateBitExact(t *testing.T) {
	w, tbl, prices := fixture(t, false)
	cases := []struct {
		name string
		goal GoalKind
		cons []wlog.Constraint
	}{
		{"makespan-probabilistic-deadline", GoalMakespan,
			[]wlog.Constraint{{Kind: "deadline", Percentile: 0.9, Bound: 2000}}},
		{"cost-deterministic-deadline", GoalCost,
			[]wlog.Constraint{{Kind: "deadline", Percentile: -1, Bound: 2000}}},
		{"cost-probabilistic-budget-and-deadline", GoalCost,
			[]wlog.Constraint{
				{Kind: "deadline", Percentile: 0.95, Bound: 1500},
				{Kind: "budget", Percentile: 0.9, Bound: 1.0},
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := NewNative(w, tbl, prices, tc.goal, tc.cons, 64)
			if err != nil {
				t.Fatal(err)
			}
			config := []int{0, 1, 2, 0}
			base := seedBase(42)
			want, err := evalAt(n, config, base)
			if err != nil {
				t.Fatal(err)
			}
			k, err := kernelAt(n, config, base)
			if err != nil {
				t.Fatal(err)
			}
			got := foldOutOfOrder(t, k)
			assertBitIdentical(t, got, want)
		})
	}
}

// Same contract for the Prolog-path evaluator.
func TestPrologKernelMatchesEvaluateBitExact(t *testing.T) {
	w, tbl, prices := fixture(t, false)
	prog := schedProgram(t, "deadline(90%,2000s)")
	p, err := NewProlog(w, tbl, prices, prog, 8)
	if err != nil {
		t.Fatal(err)
	}
	config := []int{1, 0, 2, 1}
	base := seedBase(7)
	want, err := evalAt(p, config, base)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernelAt(p, config, base)
	if err != nil {
		t.Fatal(err)
	}
	got := foldOutOfOrder(t, k)
	assertBitIdentical(t, got, want)
}

// Substreams must differ across iterations and across bases; the same
// (base, it) pair must reproduce its stream.
func TestMixSeedSubstreams(t *testing.T) {
	seen := map[int64]bool{}
	for _, base := range []int64{0, 1, 1 << 40} {
		for it := 0; it < 100; it++ {
			s := MixSeed(base, it)
			if seen[s] {
				t.Fatalf("seed collision at base=%d it=%d", base, it)
			}
			seen[s] = true
		}
	}
	a, b := rand.New(rand.NewSource(MixSeed(9, 3))), rand.New(rand.NewSource(MixSeed(9, 3)))
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (base, it) not reproducible")
		}
	}
}

// TestStreamGolden pins Stream to the splitmix64 reference: the first
// draws of seed 1234567 are the published splitmix64 outputs, Int63 keeps
// each draw's top 63 bits, Seed restarts the sequence at draw 0, and draw
// k of a seed is MixSeed(seed, k).
func TestStreamGolden(t *testing.T) {
	want := []uint64{6457827717110365317, 3203168211198807973, 9817491932198370423, 4593380528125082431, 16408922859458223821}
	var s Stream
	s.Seed(1234567)
	for k, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("draw %d: %d, want %d", k, got, w)
		}
	}
	s.Seed(1234567)
	for k, w := range want {
		if got := s.Int63(); got != int64(w>>1) {
			t.Fatalf("Int63 draw %d: %d, want %d", k, got, int64(w>>1))
		}
	}
	s.Seed(99)
	for k := 0; k < 100; k++ {
		if got, w := s.Uint64(), uint64(MixSeed(99, k)); got != w {
			t.Fatalf("draw %d of seed 99: %d, MixSeed %d", k, got, w)
		}
	}
}

// layeredFixture builds a random layered workflow with stochastic I/O (so
// per-world durations actually vary) and a Native over it.
func layeredFixture(t testing.TB, nTasks int, seed int64, goal GoalKind, cons []wlog.Constraint, iters int) *Native {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := dag.New("rand")
	id := func(i int) string { return fmt.Sprintf("t%02d", i) }
	for i := 0; i < nTasks; i++ {
		task := &dag.Task{ID: id(i), CPUSeconds: 50 + rng.Float64()*400}
		task.Inputs = []dag.File{{Name: "in_" + id(i), SizeMB: 50 + rng.Float64()*300}}
		task.Outputs = []dag.File{{Name: "out_" + id(i), SizeMB: 25 + rng.Float64()*150}}
		if err := w.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < nTasks; i++ {
		for p := 1 + rng.Intn(3); p > 0; p-- {
			if err := w.AddEdge(id(rng.Intn(i)), id(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	cat := cloud.DefaultCatalog()
	md, err := cloud.MetadataFromTruth(cat, 15, 2000, rng)
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
	n, err := NewNative(w, tbl, prices, goal, cons, iters)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// sameEval fails the test unless two evaluations are bitwise identical.
func sameEval(t *testing.T, step int, got, want *Evaluation) {
	t.Helper()
	if got.Value != want.Value || got.Feasible != want.Feasible ||
		got.Violation != want.Violation {
		t.Fatalf("step %d: %+v != %+v", step, got, want)
	}
	if len(got.ConsProb) != len(want.ConsProb) {
		t.Fatalf("step %d: ConsProb lengths differ", step)
	}
	for ci := range got.ConsProb {
		if got.ConsProb[ci] != want.ConsProb[ci] {
			t.Fatalf("step %d: ConsProb[%d] %v != %v",
				step, ci, got.ConsProb[ci], want.ConsProb[ci])
		}
	}
}

// seedBase is the CRN base a fresh source seeded with seed draws first.
func seedBase(seed int64) int64 { return rand.New(rand.NewSource(seed)).Int63() }

// evalAt is the reference evaluation of config over the worlds of base.
func evalAt(e Evaluator, config []int, base int64) (*Evaluation, error) {
	return Evaluate(context.Background(), e, config, base)
}

// kernelAt binds e at base and builds config's kernel.
func kernelAt(e Evaluator, config []int, base int64) (WorldKernel, error) {
	kernels, err := e.Bind(context.Background(), base)
	if err != nil {
		return nil, err
	}
	return kernels(config)
}

// crnKernel builds the native CRN kernel of config as its concrete type.
func crnKernel(n *Native, config []int, base int64) (*nativeKernel, error) {
	k, err := kernelAt(n, config, base)
	if err != nil {
		return nil, err
	}
	return k.(*nativeKernel), nil
}
