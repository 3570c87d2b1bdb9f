package opt

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"deco/internal/device"
	"deco/internal/probir"
)

// evalKernel is a world-free kernel whose evaluation happens at reduction:
// test spaces with a plain per-state evaluation run the solver's one path
// through it.
type evalKernel func() (*probir.Evaluation, error)

func (evalKernel) Worlds() int                                    { return 0 }
func (evalKernel) Width() int                                     { return 0 }
func (evalKernel) Sample(int, int, []float64) error               { return nil }
func (k evalKernel) Reduce([]float64) (*probir.Evaluation, error) { return k() }

// fakeKernel is a one-figure kernel whose reduced value is the state
// component it was built for.
type fakeKernel struct {
	worlds, width int
	val           float64
}

func (k *fakeKernel) Worlds() int { return k.worlds }
func (k *fakeKernel) Width() int  { return k.width }
func (k *fakeKernel) Sample(lo, hi int, out []float64) error {
	for r := range hi - lo {
		out[r] = k.val
	}
	return nil
}
func (k *fakeKernel) Reduce(sums []float64) (*probir.Evaluation, error) {
	return &probir.Evaluation{Value: sums[0] / float64(k.worlds), Feasible: true}, nil
}

// fakeSpace drives the per-state kernel error handling: a state's first
// component selects its kernel-construction behavior — 0 mod 3 builds a
// normal kernel, 1 mod 3 fails construction, 2 mod 3 drifts from the
// compiled shape.
type fakeSpace struct{}

var errFakeBuild = errors.New("fake kernel construction failure")

func (fakeSpace) Starts() []State               { return []State{{0}} }
func (fakeSpace) Neighbors(s State) []Transform { return nil }
func (fakeSpace) Describe(context.Context, int64) Descriptor {
	return Descriptor{Kernel: func(s State) (probir.WorldKernel, error) {
		switch s[0] % 3 {
		case 1:
			return nil, fmt.Errorf("state %d: %w", s[0], errFakeBuild)
		case 2:
			return &fakeKernel{worlds: 7, width: 1, val: float64(s[0])}, nil // drifted shape
		}
		return &fakeKernel{worlds: 4, width: 1, val: float64(s[0])}, nil
	}}
}

// TestKernelConstructionErrorSurfaces pins the clean-batch contract: a state
// whose kernel fails to build reports that error even though every other
// state in the batch evaluates fine.
func TestKernelConstructionErrorSurfaces(t *testing.T) {
	p, err := Compile(fakeSpace{}, Options{Device: device.Sequential{}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cands := []candidate{
		{state: State{0}, key: State{0}.Key()},
		{state: State{3}, key: State{3}.Key()},
		{state: State{1}, key: State{1}.Key()},
	}
	out := p.evaluateCandidates(cands)
	if out[0].err != nil || out[0].eval.Value != 0 {
		t.Fatalf("state 0: want kernel value 0, got %+v (err %v)", out[0].eval, out[0].err)
	}
	if out[1].err != nil || out[1].eval.Value != 3 {
		t.Fatalf("state 3: want kernel value 3, got %+v (err %v)", out[1].eval, out[1].err)
	}
	if !errors.Is(out[2].err, errFakeBuild) {
		t.Fatalf("state 1: want construction error, got eval %+v err %v", out[2].eval, out[2].err)
	}
}

// TestKernelDriftFallbackPreservesErrors pins the per-state error contract on
// every device: a kernel whose shape drifts from the compiled probe is an
// error for that state only, the other states of the batch evaluate on
// their kernels, and a state whose kernel construction failed keeps its
// construction error.
func TestKernelDriftFallbackPreservesErrors(t *testing.T) {
	for _, dev := range testDevices {
		p, err := Compile(fakeSpace{}, Options{Device: dev, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		cands := []candidate{
			{state: State{0}, key: State{0}.Key()}, // normal kernel
			{state: State{1}, key: State{1}.Key()}, // construction error
			{state: State{2}, key: State{2}.Key()}, // drifted shape
			{state: State{6}, key: State{6}.Key()}, // normal kernel, after the drift
		}
		out := p.evaluateCandidates(cands)
		for _, i := range []int{0, 3} {
			want := float64(cands[i].state[0])
			if out[i].err != nil || out[i].eval == nil || out[i].eval.Value != want {
				t.Fatalf("%s: state %v: want kernel value %v, got %+v (err %v)",
					dev.Name(), cands[i].state, want, out[i].eval, out[i].err)
			}
		}
		if !errors.Is(out[1].err, errFakeBuild) || out[1].eval != nil {
			t.Fatalf("%s: errored state lost its construction error: eval %+v err %v", dev.Name(), out[1].eval, out[1].err)
		}
		if out[2].err == nil || !strings.Contains(out[2].err.Error(), "differs from the compiled") || out[2].eval != nil {
			t.Fatalf("%s: drifted state: want shape error, got eval %+v err %v", dev.Name(), out[2].eval, out[2].err)
		}
		// The search surface rejects the batch with the first state's error.
		if _, err := p.EvaluateStates([]State{{0}, {1}, {2}}); !errors.Is(err, errFakeBuild) {
			t.Fatalf("%s: EvaluateStates: want construction error, got %v", dev.Name(), err)
		}
	}
}

// deltaProblem compiles the chain scheduling space twice: once with delta
// evaluation (given budget) and once with it disabled, sharing one
// evaluator so both see identical CRN realizations.
func deltaProblem(t *testing.T, budget int64) (*Problem, *Problem, *ScheduleSpace) {
	t.Helper()
	w := cpuChain(t, 6, 300)
	ne, _ := buildEval(t, w, 1300, 0.9, 20)
	space := NewScheduleSpace(w, ne)
	on, err := Compile(space, Options{Device: device.Sequential{}, Seed: 5, SnapshotBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Compile(space, Options{Device: device.Sequential{}, Seed: 5, SnapshotBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	return on, off, space
}

// TestEvaluateExpansionDeltaMatchesFull drives the frontier-expansion hot
// path: children of an evaluated parent take the delta route and must score
// bit-identically to the delta-disabled problem.
func TestEvaluateExpansionDeltaMatchesFull(t *testing.T) {
	on, off, _ := deltaProblem(t, 0)
	if on.delta == nil {
		t.Fatal("problem did not compile with delta evaluation")
	}
	if off.delta != nil {
		t.Fatal("SnapshotBudget -1 did not disable delta")
	}

	parent := on.Starts()[0]
	pe, children, evs, err := on.EvaluateExpansion(parent)
	if err != nil {
		t.Fatal(err)
	}
	peOff, childrenOff, evsOff, err := off.EvaluateExpansion(parent)
	if err != nil {
		t.Fatal(err)
	}
	if pe.Value != peOff.Value || pe.Feasible != peOff.Feasible || pe.Violation != peOff.Violation {
		t.Fatalf("parent eval differs: delta %+v full %+v", pe, peOff)
	}
	if len(children) != len(childrenOff) {
		t.Fatalf("child counts differ: %d vs %d", len(children), len(childrenOff))
	}
	for i := range children {
		if children[i].Key() != childrenOff[i].Key() {
			t.Fatalf("child %d differs: %v vs %v", i, children[i], childrenOff[i])
		}
		if evs[i].Value != evsOff[i].Value || evs[i].Feasible != evsOff[i].Feasible ||
			evs[i].Violation != evsOff[i].Violation {
			t.Fatalf("child %d eval differs: delta %+v full %+v", i, evs[i], evsOff[i])
		}
	}

	st := on.DeltaStats()
	if st.DeltaEvals == 0 {
		t.Fatalf("no child took the delta path: %+v", st)
	}
	if st.Snapshots == 0 || st.SnapshotBytes == 0 {
		t.Fatalf("no snapshots retained: %+v", st)
	}
	if off.DeltaStats() != (DeltaStats{}) {
		t.Fatalf("delta-disabled problem recorded stats: %+v", off.DeltaStats())
	}
}

// TestSnapshotBudgetEvicts forces the snapshot store under a budget that
// holds only a couple of snapshots: older generations must be evicted (and
// recycled), later children fall back to full evaluation, and results stay
// identical throughout.
func TestSnapshotBudgetEvicts(t *testing.T) {
	// A chain of 6 tasks at 20 worlds retains 6*20*8 + 20*12 = 1200 bytes
	// per snapshot; 3000 holds two.
	on, off, _ := deltaProblem(t, 3000)
	parent := on.Starts()[0]
	for round := 0; round < 3; round++ {
		_, _, evs, err := on.EvaluateExpansion(parent)
		if err != nil {
			t.Fatal(err)
		}
		_, _, evsOff, err := off.EvaluateExpansion(parent)
		if err != nil {
			t.Fatal(err)
		}
		for i := range evs {
			if evs[i].Value != evsOff[i].Value || evs[i].Feasible != evsOff[i].Feasible {
				t.Fatalf("round %d child %d: delta %+v full %+v", round, i, evs[i], evsOff[i])
			}
		}
	}
	st := on.DeltaStats()
	if st.Evictions == 0 {
		t.Fatalf("tight budget evicted nothing: %+v", st)
	}
	if st.SnapshotBytes > 3000 {
		t.Fatalf("retained bytes %d exceed budget: %+v", st.SnapshotBytes, st)
	}
	if st.DeltaEvals == 0 {
		t.Fatalf("no delta evaluations under eviction pressure: %+v", st)
	}
}

// TestSearchDeltaInvariance runs the full search with and without delta
// evaluation: identical trajectories, identical results — delta is a
// wall-clock optimization, never a semantics change.
func TestSearchDeltaInvariance(t *testing.T) {
	for _, astar := range []bool{false, true} {
		on, off, _ := deltaProblem(t, 0)
		on.opts.AStar, off.opts.AStar = astar, astar
		ron, err := on.Search()
		if err != nil {
			t.Fatal(err)
		}
		roff, err := off.Search()
		if err != nil {
			t.Fatal(err)
		}
		if ron.Best.Key() != roff.Best.Key() || ron.Evaluated != roff.Evaluated ||
			ron.BestEval.Value != roff.BestEval.Value || ron.Feasible != roff.Feasible {
			t.Fatalf("astar=%v: delta search diverged:\n delta: %+v %v\n full:  %+v %v",
				astar, ron, ron.Best, roff, roff.Best)
		}
		if st := on.DeltaStats(); st.DeltaEvals == 0 {
			t.Fatalf("astar=%v: search never took the delta path: %+v", astar, st)
		}
	}
}

// TestTransformNeighborsMatchesNeighbors pins the scheduling space's
// Transform contract: Tasks lists exactly the changed indices, and every
// transition is a Promote or Demote.
func TestTransformNeighborsMatchesNeighbors(t *testing.T) {
	w := cpuChain(t, 5, 100)
	ne, _ := buildEval(t, w, 0, 0, 10)
	space := NewScheduleSpace(w, ne)
	st := State{0, 1, 2, 0, 3}
	trs := space.Neighbors(st)
	if len(trs) == 0 {
		t.Fatal("no neighbors")
	}
	for i := range trs {
		changed := map[int32]bool{}
		for j := range st {
			if trs[i].Child[j] != st[j] {
				changed[int32(j)] = true
			}
		}
		if len(changed) != len(trs[i].Tasks) {
			t.Fatalf("child %d: Tasks %v but changed %v", i, trs[i].Tasks, changed)
		}
		for _, ti := range trs[i].Tasks {
			if !changed[ti] {
				t.Fatalf("child %d: task %d in Tasks but unchanged", i, ti)
			}
		}
		if trs[i].Op != OpPromote && trs[i].Op != OpDemote {
			t.Fatalf("child %d: unexpected op %v", i, trs[i].Op)
		}
	}
	if !strings.Contains(fmt.Sprint(trs[0].Op), "mote") {
		t.Fatalf("op %v should be Promote/Demote", trs[0].Op)
	}
}
