package probir

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/estimate"
	"deco/internal/wlog"
)

// deltaFixture builds a random layered workflow with stochastic I/O (so
// per-world durations actually vary) and a Native with makespan-sampling
// constraints, the shape delta evaluation exists for.
func deltaFixture(t testing.TB, nTasks int, seed int64, goal GoalKind, cons []wlog.Constraint, iters int) *Native {
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
func sameEval(t *testing.T, step int, delta, full *Evaluation) {
	t.Helper()
	if delta.Value != full.Value || delta.Feasible != full.Feasible ||
		delta.Violation != full.Violation {
		t.Fatalf("step %d: delta %+v != full %+v", step, delta, full)
	}
	if len(delta.ConsProb) != len(full.ConsProb) {
		t.Fatalf("step %d: ConsProb lengths differ", step)
	}
	for ci := range delta.ConsProb {
		if delta.ConsProb[ci] != full.ConsProb[ci] {
			t.Fatalf("step %d: ConsProb[%d] delta %v != full %v",
				step, ci, delta.ConsProb[ci], full.ConsProb[ci])
		}
	}
}

// plannedDelta builds a delta kernel the way the solver does: a cone plan
// for the dirty set, then CRNDeltaKernelPlanned against it.
func plannedDelta(n *Native, config []int, base int64, dirty []int32, parent, snap *Snapshot) (WorldKernel, error) {
	plan, err := n.PlanCone(dirty)
	if err != nil {
		return nil, err
	}
	return n.CRNDeltaKernelPlanned(context.Background(), config, base, plan, parent, snap)
}

// TestDeltaChainBitIdentical walks random mutation chains — each step
// reassigns one or two tasks — evaluating every step three ways: delta from
// the previous step's snapshot (so snapshots produced by delta kernels
// themselves parent further deltas), full CRN evaluation, and a capturing
// full evaluation. The delta evaluation and the delta-written snapshot must
// both be bit-identical to the full ones, under a makespan goal with
// probabilistic deadline and budget constraints (exercising the makespan,
// cost, and indicator figures at once).
func TestDeltaChainBitIdentical(t *testing.T) {
	cons := []wlog.Constraint{
		{Kind: "deadline", Percentile: 0.9, Bound: 2500},
		{Kind: "budget", Percentile: 0.8, Bound: 0.05},
	}
	n := deltaFixture(t, 30, 11, GoalMakespan, cons, 40)
	nTasks, nTypes := n.W.Len(), n.NumTypes()
	const base = int64(99)

	rng := rand.New(rand.NewSource(7))
	config := make([]int, nTasks)
	for i := range config {
		config[i] = rng.Intn(nTypes)
	}

	// Root of the chain: full evaluation with capture.
	snap := n.NewSnapshot()
	if snap == nil {
		t.Fatal("NewSnapshot returned nil for a makespan-sampling Native")
	}
	k, err := n.CRNKernelSnap(context.Background(), config, base, snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunKernel(k); err != nil {
		t.Fatal(err)
	}

	deltas := 0
	for step := 0; step < 25; step++ {
		// Mutate 1-2 distinct tasks to new types.
		dirtyN := 1 + rng.Intn(2)
		next := append([]int(nil), config...)
		var dirty []int32
		for len(dirty) < dirtyN {
			ti := rng.Intn(nTasks)
			nt := rng.Intn(nTypes)
			if nt == next[ti] {
				continue
			}
			dup := false
			for _, d := range dirty {
				if int(d) == ti {
					dup = true
				}
			}
			if dup {
				continue
			}
			next[ti] = nt
			dirty = append(dirty, int32(ti))
		}

		childSnap := n.NewSnapshot()
		dk, err := plannedDelta(n, next, base, dirty, snap, childSnap)
		if err != nil {
			t.Fatal(err)
		}
		full, err := n.EvaluateCRN(next, base)
		if err != nil {
			t.Fatal(err)
		}
		if dk == nil {
			// Structural fallback (cone too large for this mutation); the
			// chain continues from a fresh full capture.
			fk, err := n.CRNKernelSnap(context.Background(), next, base, childSnap)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RunKernel(fk); err != nil {
				t.Fatal(err)
			}
		} else {
			deltas++
			dev, err := RunKernel(dk)
			if err != nil {
				t.Fatal(err)
			}
			sameEval(t, step, dev, full)

			// The delta-written snapshot must equal a full capture bit for
			// bit — it parents the next step. Its rows outside the cone are
			// copied when it first parents a kernel; copy them now.
			childSnap.materialize()
			ref := n.NewSnapshot()
			rk, err := n.CRNKernelSnap(context.Background(), next, base, ref)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RunKernel(rk); err != nil {
				t.Fatal(err)
			}
			for i := range ref.finish {
				if childSnap.finish[i] != ref.finish[i] {
					t.Fatalf("step %d: snapshot finish[%d] delta %v != full %v",
						step, i, childSnap.finish[i], ref.finish[i])
				}
			}
			for it := range ref.ms {
				if childSnap.ms[it] != ref.ms[it] {
					t.Fatalf("step %d: snapshot ms[%d] delta %v != full %v",
						step, it, childSnap.ms[it], ref.ms[it])
				}
			}
			n.ReleaseSnapshot(ref)
		}
		n.ReleaseSnapshot(snap)
		snap, config = childSnap, next
	}
	if deltas == 0 {
		t.Fatal("no step took the delta path; fixture exercises nothing")
	}
}

// TestDeltaConcurrentWorlds runs one delta kernel's worlds from many
// goroutines (as the TwoLevel device does) and checks the per-world
// figures match the sequential run — under -race this also proves the
// snapshot's disjoint per-world writes don't conflict.
func TestDeltaConcurrentWorlds(t *testing.T) {
	cons := []wlog.Constraint{{Kind: "deadline", Percentile: 0.9, Bound: 2500}}
	n := deltaFixture(t, 24, 3, GoalMakespan, cons, 64)
	const base = int64(5)
	config := make([]int, n.W.Len())

	snap := n.NewSnapshot()
	k, err := n.CRNKernelSnap(context.Background(), config, base, snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunKernel(k); err != nil {
		t.Fatal(err)
	}

	// Mutate two late tasks (edges run low→high index, so their cones are
	// small and the delta path engages).
	d1, d2 := int32(n.W.Len()-2), int32(n.W.Len()-1)
	next := append([]int(nil), config...)
	next[d1], next[d2] = 1, 2
	seqSnap := n.NewSnapshot()
	sk, err := plannedDelta(n, next, base, []int32{d1, d2}, snap, seqSnap)
	if err != nil || sk == nil {
		t.Fatalf("sequential delta kernel: %v (nil=%v)", err, sk == nil)
	}
	want := make([][]float64, sk.Worlds())
	for it := range want {
		want[it] = make([]float64, sk.Width())
		if err := sk.Sample(it, it+1, want[it]); err != nil {
			t.Fatal(err)
		}
	}

	parSnap := n.NewSnapshot()
	pk, err := plannedDelta(n, next, base, []int32{d1, d2}, snap, parSnap)
	if err != nil || pk == nil {
		t.Fatalf("parallel delta kernel: %v (nil=%v)", err, pk == nil)
	}
	got := make([][]float64, pk.Worlds())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := g; it < pk.Worlds(); it += 8 {
				out := make([]float64, pk.Width())
				if err := pk.Sample(it, it+1, out); err != nil {
					t.Error(err)
					return
				}
				got[it] = out
			}
		}(g)
	}
	wg.Wait()
	for it := range want {
		for wi := range want[it] {
			if got[it][wi] != want[it][wi] {
				t.Fatalf("world %d figure %d: parallel %v != sequential %v",
					it, wi, got[it][wi], want[it][wi])
			}
		}
	}
}

// TestDeltaFallbacks pins the cases where PlanCone + CRNDeltaKernelPlanned
// must decline (nil, nil) — the caller's cue to evaluate fully — versus
// hard-error.
func TestDeltaFallbacks(t *testing.T) {
	cons := []wlog.Constraint{{Kind: "deadline", Percentile: 0.9, Bound: 2500}}
	n := deltaFixture(t, 20, 2, GoalMakespan, cons, 16)
	const base = int64(1)
	config := make([]int, n.W.Len())

	snap := n.NewSnapshot()
	k, _ := n.CRNKernelSnap(context.Background(), config, base, snap)
	if _, err := RunKernel(k); err != nil {
		t.Fatal(err)
	}
	child := n.NewSnapshot()

	if dk, err := plannedDelta(n, config, base, []int32{0}, nil, child); dk != nil || err != nil {
		t.Fatalf("nil parent: want (nil, nil), got (%v, %v)", dk, err)
	}
	if dk, err := plannedDelta(n, config, base+1, []int32{0}, snap, child); dk != nil || err != nil {
		t.Fatalf("base mismatch: want (nil, nil), got (%v, %v)", dk, err)
	}
	if _, err := n.PlanCone(nil); err == nil {
		t.Fatal("empty dirty set: want error")
	}
	if dk, err := n.CRNDeltaKernelPlanned(context.Background(), config, base, nil, snap, child); dk != nil || err != nil {
		t.Fatalf("nil plan: want (nil, nil), got (%v, %v)", dk, err)
	}
	all := make([]int32, n.W.Len())
	for i := range all {
		all[i] = int32(i)
	}
	if dk, err := plannedDelta(n, config, base, all, snap, child); dk != nil || err != nil {
		t.Fatalf("full-width dirty set: want structural fallback (nil, nil), got (%v, %v)", dk, err)
	}
	if _, err := plannedDelta(n, config, base, []int32{int32(n.W.Len())}, snap, child); err == nil {
		t.Fatal("out-of-range dirty task: want error")
	}

	// A Native that never samples makespans has nothing to snapshot.
	costOnly := deltaFixture(t, 8, 4, GoalCost, nil, 16)
	if s := costOnly.NewSnapshot(); s != nil {
		t.Fatalf("cost-only Native returned a snapshot: %+v", s)
	}
}

// TestSnapshotPooling verifies released snapshots are recycled.
func TestSnapshotPooling(t *testing.T) {
	cons := []wlog.Constraint{{Kind: "deadline", Percentile: -1, Bound: 1000}}
	n := deltaFixture(t, 6, 8, GoalCost, cons, 8)
	s := n.NewSnapshot()
	if s == nil {
		t.Fatal("deterministic deadline still samples makespans; want a snapshot")
	}
	// sync.Pool drops items probabilistically under the race detector, so
	// assert reuse over repeated release/get cycles rather than one.
	reused := false
	for i := 0; i < 100 && !reused; i++ {
		n.ReleaseSnapshot(s)
		got := n.NewSnapshot()
		if got == nil || len(got.finish) != len(s.finish) {
			t.Fatalf("cycle %d: got %+v, want a snapshot shaped like %+v", i, got, s)
		}
		reused = got == s
		s = got
	}
	if !reused {
		t.Fatal("released snapshots never recycled through the pool")
	}
	n.ReleaseSnapshot(nil) // must not panic
}

// TestSnapshotPinnedUntilMaterialized pins the lazy delta snapshot's
// lifetime: a delta child keeps its parent's arena out of the freelist
// until the child materializes (here, by parenting a kernel of its own), so
// rows the child still reads from the parent are never recycled under it.
func TestSnapshotPinnedUntilMaterialized(t *testing.T) {
	cons := []wlog.Constraint{{Kind: "deadline", Percentile: 0.9, Bound: 2500}}
	n := deltaFixture(t, 24, 5, GoalMakespan, cons, 32)
	const base = int64(3)
	config := make([]int, n.W.Len())
	parent := n.NewSnapshot()
	k, err := n.CRNKernelSnap(context.Background(), config, base, parent)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunKernel(k); err != nil {
		t.Fatal(err)
	}
	last := int32(n.W.Len() - 1)
	next := append([]int(nil), config...)
	next[last] = 1
	child := n.NewSnapshot()
	dk, err := plannedDelta(n, next, base, []int32{last}, parent, child)
	if err != nil || dk == nil {
		t.Fatalf("delta kernel: %v (nil=%v)", err, dk == nil)
	}
	if _, err := RunKernel(dk); err != nil {
		t.Fatal(err)
	}
	n.ReleaseSnapshot(parent)
	for i := 0; i < 4; i++ {
		if s := n.NewSnapshot(); s == parent {
			t.Fatal("a pinned parent was recycled before its child materialized")
		}
	}
	// Parenting a kernel materializes the child, which lets the parent go.
	next2 := append([]int(nil), next...)
	next2[last] = 2
	if _, err := plannedDelta(n, next2, base, []int32{last}, child, n.NewSnapshot()); err != nil {
		t.Fatal(err)
	}
	if parent.pins != 0 || parent.freed || child.from != nil {
		t.Fatalf("after materializing: parent pins %d freed %v, child still linked %v", parent.pins, parent.freed, child.from != nil)
	}
	ref := n.NewSnapshot()
	rk, err := n.CRNKernelSnap(context.Background(), next, base, ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunKernel(rk); err != nil {
		t.Fatal(err)
	}
	for i := range ref.finish {
		if child.finish[i] != ref.finish[i] {
			t.Fatalf("materialized finish[%d] %v != full capture %v", i, child.finish[i], ref.finish[i])
		}
	}
}

// TestDeltaNaNDurationMoved pins the delta makespan against a NaN duration:
// a dirty NaN task counts as moved in every world, yet, as in the full
// fold, its finish never becomes a world's makespan, so a later task that
// overtakes the parent's makespan must still take it. Here the NaN task
// leads the cone and the overtaking task is not the parent's argmax.
func TestDeltaNaNDurationMoved(t *testing.T) {
	w := dag.New("nan-lead")
	for _, tk := range []struct {
		id  string
		cpu float64
	}{{"nan", math.NaN()}, {"long", 1000}, {"grow", 2000}} {
		if err := w.AddTask(&dag.Task{ID: tk.id, CPUSeconds: tk.cpu}); err != nil {
			t.Fatal(err)
		}
	}
	cat := cloud.DefaultCatalog()
	md, err := cloud.MetadataFromTruth(cat, 15, 2000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := estimate.New(cat, md).BuildTable(w)
	if err != nil {
		t.Fatal(err)
	}
	slow, fast := 0, 0
	for j, name := range tbl.Types {
		it, err := cat.Type(name)
		if err != nil {
			t.Fatal(err)
		}
		if s, _ := cat.Type(tbl.Types[slow]); it.ECU < s.ECU {
			slow = j
		}
		if f, _ := cat.Type(tbl.Types[fast]); it.ECU > f.ECU {
			fast = j
		}
	}
	n, err := NewNative(w, tbl, make([]float64, len(tbl.Types)), GoalMakespan, []wlog.Constraint{{Kind: "deadline", Percentile: 0.9, Bound: 1500}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	const base = int64(4)
	// Parent: "long" (1000 s on the slow type) attains the makespan over
	// "grow" on the fast type; the child moves "grow" to the slow type
	// (2000 s) and "nan" to another type.
	parentCfg := []int{slow, slow, fast}
	childCfg := []int{fast, slow, slow}
	parent := n.NewSnapshot()
	k, err := n.CRNKernelSnap(context.Background(), parentCfg, base, parent)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunKernel(k); err != nil {
		t.Fatal(err)
	}
	dk, err := plannedDelta(n, childCfg, base, []int32{0, 2}, parent, n.NewSnapshot())
	if err != nil || dk == nil {
		t.Fatalf("delta kernel: %v (nil=%v)", err, dk == nil)
	}
	got, err := RunKernel(dk)
	if err != nil {
		t.Fatal(err)
	}
	want, err := n.EvaluateCRN(childCfg, base)
	if err != nil {
		t.Fatal(err)
	}
	sameEval(t, 0, got, want)
}
