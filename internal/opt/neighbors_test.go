package opt

import (
	"math/rand"
	"slices"
	"testing"

	"deco/internal/wfgen"
)

// refShift is the clone-based scheduling neighbor generator the moves
// replaced, kept as the reference: it moves the tasks of group g (every
// task when all is set) one type step by delta within [0, k), returning the
// cloned child and the tasks that changed, or false when none can move.
func refShift(st State, g []int32, all bool, delta, k int) (State, []int32, bool) {
	var child State
	var tasks []int32
	move := func(i int) {
		nv := st[i] + delta
		if nv < 0 || nv >= k {
			return
		}
		if child == nil {
			child = st.Clone()
		}
		child[i] = nv
		tasks = append(tasks, int32(i))
	}
	if all {
		for i := range st {
			move(i)
		}
	} else {
		for _, i := range g {
			move(int(i))
		}
	}
	return child, tasks, child != nil
}

// refScheduleNeighbors is the reference neighbor sequence: Promote then
// Demote, each over every group and then the whole workflow.
func refScheduleNeighbors(st State, groups [][]int32, k int) (children []State, tasks [][]int32) {
	for _, delta := range []int{1, -1} {
		for _, g := range groups {
			if c, ts, ok := refShift(st, g, false, delta, k); ok {
				children, tasks = append(children, c), append(tasks, ts)
			}
		}
		if c, ts, ok := refShift(st, nil, true, delta, k); ok {
			children, tasks = append(children, c), append(tasks, ts)
		}
	}
	return children, tasks
}

// TestScheduleMovesMatchReference holds ScheduleSpace's moves to the
// clone-based generator they replaced, under per-task and per-executable
// groups, at the all-cheapest and all-fastest boundaries and at mixed
// states: the children the moves produce match in order and content, each
// move's Tasks is the reference's changed-task list in its order, and it
// lists exactly the components that differ.
func TestScheduleMovesMatchReference(t *testing.T) {
	w, err := wfgen.Montage(1, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	ne, _ := buildEval(t, w, 0, 0, 8)
	k := ne.NumTypes()
	rng := rand.New(rand.NewSource(3))
	var states []State
	for _, j := range []int{0, k - 1} {
		st := make(State, w.Len())
		for i := range st {
			st[i] = j
		}
		states = append(states, st)
	}
	for n := 0; n < 6; n++ {
		st := make(State, w.Len())
		for i := range st {
			st[i] = rng.Intn(k)
		}
		states = append(states, st)
	}
	for name, groups := range map[string][][]int32{"per-task": GroupPerTask(w), "per-executable": GroupByExecutable(w)} {
		sp := NewScheduleSpace(w, ne)
		sp.Groups = groups
		for _, st := range states {
			parent := st.Clone()
			moves := sp.Neighbors(st)
			wantChildren, wantTasks := refScheduleNeighbors(st, groups, k)
			checkMoves(t, name, st, moves, wantChildren)
			for i, mv := range moves {
				if !slices.Equal(mv.Tasks, wantTasks[i]) {
					t.Fatalf("%s %v: move %d lists %v, reference changed %v", name, st, i, mv.Tasks, wantTasks[i])
				}
			}
			if !slices.Equal(st, parent) {
				t.Fatalf("%s: Neighbors modified its parent", name)
			}
		}
	}
}

// checkMoves holds a space's moves out of parent to the reference children:
// same count and order, every child equal, and every move's Tasks exactly
// the set of components the move changes.
func checkMoves(t *testing.T, name string, parent State, moves []Transform, want []State) {
	t.Helper()
	if len(moves) != len(want) {
		t.Fatalf("%s %v: %d moves, reference %d children", name, parent, len(moves), len(want))
	}
	for i, mv := range moves {
		child := mv.Apply(nil, parent)
		if !slices.Equal(child, want[i]) {
			t.Fatalf("%s %v: move %d gives %v, reference %v", name, parent, i, child, want[i])
		}
		var changed []int32
		for j := range parent {
			if child[j] != parent[j] {
				changed = append(changed, int32(j))
			}
		}
		tasks := slices.Clone(mv.Tasks)
		slices.Sort(tasks)
		if !slices.Equal(tasks, changed) {
			t.Fatalf("%s %v: move %d lists %v, changes %v", name, parent, i, mv.Tasks, changed)
		}
	}
}

// TestDedupedChildrenAllocateNothing pins the lazy child construction:
// expanding a parent whose children are all visited, or all already in the
// level's seen set, allocates no State and no key — nothing beyond the
// space's own move list, which takes at most two allocations (the moves and
// one backing slice for every filtered task list) even though this
// heterogeneous parent's global shifts both filter.
func TestDedupedChildrenAllocateNothing(t *testing.T) {
	w, err := wfgen.Montage(1, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	ne, _ := buildEval(t, w, 0, 0, 8)
	sp := NewScheduleSpace(w, ne)
	sp.Groups = GroupPerTask(w)
	p, err := Compile(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	parent := make(State, w.Len())
	for i := range parent {
		parent[i] = i % ne.NumTypes()
	}
	all := p.children(nil, parent, nil, nil)
	if len(all) == 0 {
		t.Fatal("parent has no children")
	}
	visited, seen := map[string]bool{}, map[string]bool{}
	for _, c := range all {
		visited[c.key] = true
		seen[c.key] = true
	}
	moves := testing.AllocsPerRun(50, func() { sp.Neighbors(parent) })
	if moves > 2 {
		t.Errorf("the parent's move list allocates %v times, want at most 2", moves)
	}
	buf := make([]candidate, 0, len(all))
	for name, sets := range map[string][2]map[string]bool{"visited": {visited, nil}, "seen": {nil, seen}} {
		var out []candidate
		allocs := testing.AllocsPerRun(50, func() { out = p.children(buf[:0], parent, sets[0], sets[1]) })
		if len(out) != 0 {
			t.Fatalf("%s: %d children survived dedup", name, len(out))
		}
		if allocs != moves {
			t.Errorf("%s: expanding an all-duplicate parent allocates %v times, its move list %v", name, allocs, moves)
		}
	}
}
