package opt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/device"
	"deco/internal/wfgen"
)

// searchTrajectoriesSHA is the digest of every line TestSearchTrajectoriesPinned
// produces. A change of search order, pruning, patience, budget trimming or
// stopping shows up here even when the best plan stays the same.
const searchTrajectoriesSHA = "5d9f71d3b0a9ed469beb2d0f124c2ad26dfeee3b47619bf396edfc7dc3297dae"

// packedTrajectoriesSHA is the digest of every line
// TestPackedSearchTrajectoriesPinned produces.
const packedTrajectoriesSHA = "b3645e311061eb35b6c62199cecfaba45b4772b3aec3e142cda4926015938486"

// trajectoryWorkload is one search problem of the pinned trajectories.
type trajectoryWorkload struct {
	name     string
	w        *dag.Workflow
	deadline float64
	groups   bool
	maximize bool
}

// trajectoryWorkflows returns the two workflows every pinned trajectory
// searches over: Montage-1 and a 10-task pipeline.
func trajectoryWorkflows(t *testing.T) (montage, pipe *dag.Workflow) {
	t.Helper()
	montage, err := wfgen.Montage(1, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	pipe, err = wfgen.Pipeline(10, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	return montage, pipe
}

// pinTrajectories runs one search per (workload, A*, adaptive, state budget)
// over the space space(wl) builds, records one line per search — the best
// state, the evaluation count, the best evaluation's float bits and every
// SampleStats counter — and fails unless
// the lines hash to want. On a mismatch the lines are logged, so a diff
// against a known-good run names the searches that moved.
func pinTrajectories(t *testing.T, want string, workloads []trajectoryWorkload, budgets []int, space func(trajectoryWorkload) *ScheduleSpace) {
	t.Helper()
	var lines []string
	for _, wl := range workloads {
		sp := space(wl)
		for _, astar := range []bool{false, true} {
			for _, adaptive := range []bool{false, true} {
				for _, budget := range budgets {
					o := Options{Device: device.TwoLevel{}, Seed: 11, MaxStates: budget, BeamWidth: 4, Patience: 5,
						AStar: astar, Adaptive: adaptive, MinWorlds: 8, Maximize: wl.maximize}
					p, err := Compile(sp, o)
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
					lines = append(lines, fmt.Sprintf("%s astar=%v adaptive=%v budget=%d: best=%v evaluated=%d feasible=%v value=%016x violation=%016x consprob=%v sample=%+v",
						wl.name, astar, adaptive, budget, res.Best, res.Evaluated, res.Feasible,
						math.Float64bits(ev.Value), math.Float64bits(ev.Violation), probs, p.SampleStats()))
				}
			}
		}
	}
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	if got := hex.EncodeToString(sum[:]); got != want {
		for _, l := range lines {
			t.Log(l)
		}
		t.Fatalf("search trajectories digest %s, want %s", got, want)
	}
}

// TestSearchTrajectoriesPinned pins what each search does, not only what it
// returns: for generic and A* search, fixed and adaptive precision, and
// several state budgets. The workloads cover a feasible and an infeasible
// deadline, group moves (Montage-1 under GroupByExecutable), per-task moves
// (a pipeline) and a maximizing objective.
func TestSearchTrajectoriesPinned(t *testing.T) {
	montage, pipe := trajectoryWorkflows(t)
	workloads := []trajectoryWorkload{
		{name: "montage-feasible", w: montage, deadline: 1500, groups: true},
		{name: "montage-infeasible", w: montage, deadline: 200, groups: true},
		{name: "pipeline-feasible", w: pipe, deadline: 700},
		{name: "pipeline-infeasible", w: pipe, deadline: 60},
		{name: "pipeline-maximize", w: pipe, deadline: 700, maximize: true},
	}
	pinTrajectories(t, searchTrajectoriesSHA, workloads, []int{3, 40, 300}, func(wl trajectoryWorkload) *ScheduleSpace {
		ne, _ := buildEval(t, wl.w, wl.deadline, 0.9, 48)
		sp := NewScheduleSpace(wl.w, ne)
		if wl.groups {
			sp.Groups = GroupByExecutable(wl.w)
		}
		return sp
	})
}

// TestPackedSearchTrajectoriesPinned pins the same searches under the
// packed plan-cost objective the engine minimizes by default: the objective
// replaces the reduced goal value after a full reduction, after a partial
// one, and as racing's optimistic value, so a change to any of the three
// moves a line here. Montage-1 under per-task moves is where racing
// eliminates states.
func TestPackedSearchTrajectoriesPinned(t *testing.T) {
	montage, pipe := trajectoryWorkflows(t)
	workloads := []trajectoryWorkload{
		{name: "montage-feasible", w: montage, deadline: 1500, groups: true},
		{name: "montage-infeasible", w: montage, deadline: 200, groups: true},
		{name: "pipeline-feasible", w: pipe, deadline: 700},
		{name: "montage-pertask", w: montage, deadline: 900},
	}
	us, _ := cloud.DefaultCatalog().Region(cloud.USEast)
	pinTrajectories(t, packedTrajectoriesSHA, workloads, []int{40, 300}, func(wl trajectoryWorkload) *ScheduleSpace {
		ne, tbl := buildEval(t, wl.w, wl.deadline, 0.9, 48)
		prices := make([]float64, len(tbl.Types))
		for j, n := range tbl.Types {
			prices[j] = us.PricePerHour[n]
		}
		sp := NewPackedScheduleSpace(wl.w, ne, tbl, prices, cloud.USEast)
		sp.Groups = GroupPerTask(wl.w)
		if wl.groups {
			sp.Groups = GroupByExecutable(wl.w)
		}
		return sp
	})
}
