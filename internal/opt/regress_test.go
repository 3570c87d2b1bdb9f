package opt

import (
	"context"
	"fmt"
	"testing"

	"deco/internal/device"
	"deco/internal/probir"
)

// graphSpace is a synthetic single-component search space: states are
// one-element vectors, transitions and evaluations come from explicit maps,
// evaluated as world-free kernels.
type graphSpace struct {
	values    map[int]float64
	violation map[int]float64 // >0 marks the state infeasible
	neighbors map[int][]int
	start     int
}

func (g *graphSpace) Starts() []State { return []State{{g.start}} }

func (g *graphSpace) Neighbors(s State) []Transform {
	var out []Transform
	for _, n := range g.neighbors[s[0]] {
		out = append(out, Transform{Tasks: Indices(1), Step: n - s[0]})
	}
	return out
}

func (g *graphSpace) Describe(context.Context, int64) Descriptor {
	return Descriptor{Kernel: func(s State) (probir.WorldKernel, error) {
		return evalKernel(func() (*probir.Evaluation, error) { return g.evaluate(s) }), nil
	}}
}

func (g *graphSpace) evaluate(s State) (*probir.Evaluation, error) {
	x := s[0]
	v, ok := g.values[x]
	if !ok {
		return nil, fmt.Errorf("unknown state %d", x)
	}
	ev := &probir.Evaluation{Value: v, Feasible: true}
	if viol := g.violation[x]; viol > 0 {
		ev.Feasible = false
		ev.Violation = viol
	}
	return ev, nil
}

// multiGraphSpace adds explicit start states.
type multiGraphSpace struct {
	graphSpace
	starts []int
}

func (g *multiGraphSpace) Starts() []State {
	out := make([]State, len(g.starts))
	for i, s := range g.starts {
		out[i] = State{s}
	}
	return out
}

// A state trimmed from a level by the exploration budget must stay
// evaluable: here the budget boundary bisects level 1 ({1}, {2}), dropping
// {2} — the optimum. The exploitation phase re-generates it from its pooled
// parent {0}; before visited marking was deferred to evaluation time, the
// frontier build had already marked {2} and the search could never reach it
// (it returned {3} at 8.0 instead).
func TestGenericSearchEvaluatesBudgetTrimmedOptimum(t *testing.T) {
	g := &graphSpace{
		values:    map[int]float64{0: 10, 1: 9, 2: 1, 3: 8},
		neighbors: map[int][]int{0: {1, 2}, 1: {3}},
		start:     0,
	}
	res, err := Search(g, Options{
		Device:    device.Sequential{},
		MaxStates: 5, // explore budget 2: level 1 is trimmed to one state
		BeamWidth: 8,
		Patience:  12,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best[0] != 2 || res.BestEval.Value != 1 {
		t.Errorf("best = state %d (value %v), want state 2 (value 1): budget-trimmed optimum lost",
			res.Best[0], res.BestEval.Value)
	}
	if res.Evaluated > 5 {
		t.Errorf("evaluated %d states, budget 5", res.Evaluated)
	}
}

// When the budget does not outlast the start states and none is feasible,
// A* must still return the least-violating state it evaluated — the
// documented contract of Result.Best — not "no states evaluated".
func TestAStarReturnsLeastViolatingWhenBudgetCoversOnlyStarts(t *testing.T) {
	g := &multiGraphSpace{
		graphSpace: graphSpace{
			values:    map[int]float64{0: 1, 1: 1, 2: 1},
			violation: map[int]float64{0: 5, 1: 2, 2: 9},
			neighbors: map[int][]int{},
			start:     0,
		},
		starts: []int{0, 1, 2},
	}
	for _, maxStates := range []int{2, 3} {
		res, err := Search(g, Options{
			Device:    device.Sequential{},
			MaxStates: maxStates,
			AStar:     true,
			Seed:      1,
		})
		if err != nil {
			t.Fatalf("MaxStates=%d: %v", maxStates, err)
		}
		if res.Feasible {
			t.Fatalf("MaxStates=%d: no state is feasible", maxStates)
		}
		// {1} (violation 2) is within the first two starts either way.
		if res.Best[0] != 1 {
			t.Errorf("MaxStates=%d: best = state %d (violation %v), want state 1 (violation 2)",
				maxStates, res.Best[0], res.BestEval.Violation)
		}
	}
}

// Negative components must round-trip through Key: the raw-varint encoding
// let the continuation bit of a negative byte merge with the next component,
// colliding e.g. {255} with {-1, 1}.
func TestStateKeyZigzagNegativeComponents(t *testing.T) {
	if (State{255}).Key() == (State{-1, 1}).Key() {
		t.Error("{255} collides with {-1, 1}")
	}
	boundary := []int{0, 1, -1, 2, -2, 63, -63, 64, -64, 127, -127, 128, -128, 255, -255, 256, -256, 16383, -16384}
	seen := map[string][]int{}
	for _, a := range boundary {
		for _, b := range boundary {
			s := State{a, b}
			k := s.Key()
			if prev, ok := seen[k]; ok && (prev[0] != a || prev[1] != b) {
				t.Fatalf("%v collides with %v", s, prev)
			}
			seen[k] = []int{a, b}
		}
	}
	for _, v := range boundary {
		if k := (State{v}).Key(); seen[k] != nil {
			t.Fatalf("{%d} collides with a pair", v)
		}
		if (State{v}).Key() != (State{v}).Key() {
			t.Fatalf("{%d}: key not stable", v)
		}
	}
}
