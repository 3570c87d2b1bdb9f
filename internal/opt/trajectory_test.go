package opt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"deco/internal/dag"
	"deco/internal/device"
	"deco/internal/wfgen"
)

// searchTrajectoriesSHA is the digest of every line TestSearchTrajectoriesPinned
// produces. A change of search order, pruning, patience, budget trimming or
// snapshot retention shows up here even when the best plan stays the same.
const searchTrajectoriesSHA = "a1e9f5c237332ed24acff32d39b41b81381d400962b5ebedd4a11e4082e35e4e"

// TestSearchTrajectoriesPinned pins what each search does, not only what it
// returns: for generic and A* search, fixed and adaptive precision, the
// default, a tight and no snapshot budget, and several state budgets, one
// line per search records the best state, the evaluation count, the best
// evaluation's float bits and every DeltaStats and SampleStats counter. The
// workloads cover a feasible and an infeasible deadline, group cones
// (Montage-1 under GroupByExecutable), per-task moves (a pipeline) and a
// maximizing objective. On a mismatch the lines are logged, so a diff
// against a known-good run names the searches that moved.
func TestSearchTrajectoriesPinned(t *testing.T) {
	montage, err := wfgen.Montage(1, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := wfgen.Pipeline(10, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	type workload struct {
		name     string
		w        *dag.Workflow
		deadline float64
		groups   bool
		maximize bool
	}
	workloads := []workload{
		{name: "montage-feasible", w: montage, deadline: 1500, groups: true},
		{name: "montage-infeasible", w: montage, deadline: 200, groups: true},
		{name: "pipeline-feasible", w: pipe, deadline: 700},
		{name: "pipeline-infeasible", w: pipe, deadline: 60},
		{name: "pipeline-maximize", w: pipe, deadline: 700, maximize: true},
	}
	var lines []string
	for _, wl := range workloads {
		ne, _ := buildEval(t, wl.w, wl.deadline, 0.9, 48)
		space := NewScheduleSpace(wl.w, ne)
		if wl.groups {
			space.Groups = GroupByExecutable(wl.w)
		}
		for _, astar := range []bool{false, true} {
			for _, adaptive := range []bool{false, true} {
				for _, snaps := range []int64{0, 16 << 10, -1} {
					for _, budget := range []int{3, 40, 300} {
						o := Options{Device: device.TwoLevel{}, Seed: 11, MaxStates: budget, BeamWidth: 4, Patience: 5,
							AStar: astar, Adaptive: adaptive, MinWorlds: 8, SnapshotBudget: snaps, Maximize: wl.maximize}
						p, err := Compile(space, o)
						if err != nil {
							t.Fatal(err)
						}
						res, err := p.Search()
						if err != nil {
							t.Fatal(err)
						}
						ev := res.BestEval
						probs := make([]string, len(ev.ConsProb))
						for i, pr := range ev.ConsProb {
							probs[i] = fmt.Sprintf("%016x", math.Float64bits(pr))
						}
						lines = append(lines, fmt.Sprintf("%s astar=%v adaptive=%v snaps=%d budget=%d: best=%v evaluated=%d feasible=%v value=%016x violation=%016x consprob=%v delta=%+v sample=%+v",
							wl.name, astar, adaptive, snaps, budget, res.Best, res.Evaluated, res.Feasible,
							math.Float64bits(ev.Value), math.Float64bits(ev.Violation), probs, p.DeltaStats(), p.SampleStats()))
					}
				}
			}
		}
	}
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	if got := hex.EncodeToString(sum[:]); got != searchTrajectoriesSHA {
		for _, l := range lines {
			t.Log(l)
		}
		t.Fatalf("search trajectories digest %s, want %s", got, searchTrajectoriesSHA)
	}
}
