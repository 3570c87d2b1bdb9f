package opt

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"deco/internal/dag"
	"deco/internal/estimate"
	"deco/internal/probir"
	"deco/internal/sim"
)

// The solver's state transitions are the workflow transformation operations
// of §5.3 (citing the authors' ToC work). Promote and Demote change instance
// configurations, and with them the probabilistic goal and constraints: they
// are the moves ScheduleSpace.Neighbors lists (Step +1 and -1 over a task
// group). Move, Merge and Co-Scheduling rearrange tasks on instances to
// exploit partial hours; they are Consolidate's packing, applied when a
// configuration is materialized into an executable plan. Split (suspend a
// running task, resume it later) is not materialized: the simulator has no
// preemption.

// ScheduleSpace is the search space of the workflow scheduling problem
// (§3.1): states assign an instance-type index to every task; neighbors
// Promote/Demote one task group at a time.
type ScheduleSpace struct {
	W    *dag.Workflow
	Eval probir.Evaluator
	// Groups partitions task indices; a move applies to a whole group (see
	// GroupPerTask / GroupByExecutable). Moves share these lists, so they
	// must not change while a search runs.
	Groups [][]int32
	// Init is the initial configuration; nil means all tasks on type 0
	// (the cheapest — Figure 5b's initial state).
	Init State
	// CostFn, when set, replaces the evaluator's goal value (typically
	// the fractional Eq. 1 cost) with a plan-level cost such as
	// PackedMeanCost; feasibility still comes from the evaluator's
	// Monte-Carlo constraint inference.
	CostFn func(State) (float64, error)
	// CostTag identifies the CostFn for the evaluation cache: two spaces
	// with equal evaluator fingerprints and equal tags must apply the same
	// objective. A set CostFn with an empty tag disables caching (the
	// closure cannot be hashed, so a hit could carry the wrong objective).
	CostTag string
}

// GroupPerTask puts every task in its own group: the exact space of the
// paper's formulation, used for small workflows.
func GroupPerTask(w *dag.Workflow) [][]int32 {
	all := Indices(w.Len())
	groups := make([][]int32, len(all))
	for i := range groups {
		groups[i] = all[i : i+1]
	}
	return groups
}

// GroupByExecutable groups tasks sharing an executable: Montage's thousands
// of mProjectPP tasks promote together. This collapses the optimization
// space the way the Autoscaling baseline's per-level typing does and keeps
// the branching factor independent of workflow size.
func GroupByExecutable(w *dag.Workflow) [][]int32 {
	byExec := map[string][]int32{}
	var names []string
	for i, t := range w.Tasks {
		if _, ok := byExec[t.Executable]; !ok {
			names = append(names, t.Executable)
		}
		byExec[t.Executable] = append(byExec[t.Executable], int32(i))
	}
	sort.Strings(names)
	groups := make([][]int32, 0, len(names))
	for _, n := range names {
		groups = append(groups, byExec[n])
	}
	return groups
}

// NewScheduleSpace builds the scheduling search space with sensible
// defaults: per-task groups up to 30 tasks (the exact formulation),
// per-executable beyond (keeping the branching factor workable);
// all-cheapest initial state.
func NewScheduleSpace(w *dag.Workflow, eval probir.Evaluator) *ScheduleSpace {
	var groups [][]int32
	if w.Len() <= 30 {
		groups = GroupPerTask(w)
	} else {
		groups = GroupByExecutable(w)
	}
	return &ScheduleSpace{W: w, Eval: eval, Groups: groups}
}

// Initial implements Space.
func (s *ScheduleSpace) Initial() State {
	if s.Init != nil {
		return s.Init.Clone()
	}
	return make(State, s.W.Len())
}

// Starts implements Space: one homogeneous configuration per instance type,
// from the all-cheapest state of Figure 5b to the all-fastest one, so every
// deadline regime has a nearby start and the packing-friendly homogeneous
// plans are all reachable. An explicit Init suppresses multi-start.
func (s *ScheduleSpace) Starts() []State {
	if s.Init != nil {
		return []State{s.Init.Clone()}
	}
	k := s.Eval.NumTypes()
	starts := make([]State, k)
	for j := 0; j < k; j++ {
		st := make(State, s.W.Len())
		for i := range st {
			st[i] = j
		}
		starts[j] = st
	}
	return starts
}

// Neighbors implements Space: Promote (Step +1) then Demote (Step -1), each
// as one move per group, as in Figure 5b where each child promotes one task,
// plus one whole-workflow shift. A move lists the tasks that can take its
// step (Movable); the filtered lists of one call share one backing slice,
// sized by a counting pass. The global shift preserves type homogeneity,
// which the Merge/Co-Scheduling packing rewards (heterogeneous plans cannot
// share instances across types), so it lets the search cross the homogeneity
// ridge single-group moves cannot.
func (s *ScheduleSpace) Neighbors(st State) []Transform {
	k := s.Eval.NumTypes()
	all := Indices(len(st))
	need := 0
	for _, step := range [2]int{1, -1} {
		for _, g := range s.Groups {
			need += filteredLen(st, g, step, k)
		}
		need += filteredLen(st, all, step, k)
	}
	buf := make([]int32, 0, need)
	out := make([]Transform, 0, 2*len(s.Groups)+2)
	move := func(g []int32, step int) {
		var tasks []int32
		if tasks, buf = Movable(buf, st, g, step, k); len(tasks) > 0 {
			out = append(out, Transform{Tasks: tasks, Step: step})
		}
	}
	for _, step := range [2]int{1, -1} {
		for _, g := range s.Groups {
			move(g, step)
		}
		move(all, step)
	}
	return out
}

// movableLen counts the tasks of g whose type index stays within [0, k)
// after adding step.
func movableLen(st State, g []int32, step, k int) int {
	n := 0
	for _, i := range g {
		if v := st[i] + step; v >= 0 && v < k {
			n++
		}
	}
	return n
}

// filteredLen is the length of the list Movable appends for g: its movable
// count when some but not all of its tasks can move, else 0.
func filteredLen(st State, g []int32, step, k int) int {
	if n := movableLen(st, g, step, k); n < len(g) {
		return n
	}
	return 0
}

// Movable returns the tasks of g whose type index stays within [0, k) after
// adding step, in g's order: g itself when every task can move, so the common
// move shares the caller's list, and empty when none can. Otherwise it
// appends the list to buf and returns it with the grown buf, so the filtered
// lists of several calls can share one backing slice.
func Movable(buf []int32, st State, g []int32, step, k int) (tasks, grown []int32) {
	n := movableLen(st, g, step, k)
	if n == len(g) || n == 0 {
		return g[:n], buf
	}
	lo := len(buf)
	for _, i := range g {
		if v := st[i] + step; v >= 0 && v < k {
			buf = append(buf, i)
		}
	}
	return buf[lo:len(buf):len(buf)], buf
}

// Evaluate scores one state — the test oracle the solver's evaluation of the
// space must reproduce: the evaluator's reference evaluation over the CRN
// worlds of base (probir.Evaluate), with any CostFn replacing the goal
// value.
func (s *ScheduleSpace) Evaluate(st State, base int64) (*probir.Evaluation, error) {
	ev, err := probir.Evaluate(context.Background(), s.Eval, st, base)
	if err != nil || s.CostFn == nil {
		return ev, err
	}
	v, err := s.CostFn(st)
	if err != nil {
		return nil, err
	}
	ev.Value = v
	return ev, nil
}

// Describe implements Space: it binds the evaluator to the seed once, so
// every state of the search reads the same CRN worlds, numbered
// decisive-world-first; a failed binding (a cancelled build) is the error of
// every kernel. Any CostFn is the objective. The fingerprint — and with it
// the evaluation cache — is the evaluator's, composed with the CostTag; it
// is empty for Prolog and for a CostFn without a tag.
func (s *ScheduleSpace) Describe(ctx context.Context, seed int64) Descriptor {
	d := Descriptor{Objective: s.CostFn, Fingerprint: s.Eval.Fingerprint()}
	kernels, err := s.Eval.Bind(ctx, seed)
	if err != nil {
		kernels = func([]int) (probir.WorldKernel, error) { return nil, err }
	}
	d.Kernel = func(st State) (probir.WorldKernel, error) { return kernels(st) }
	if s.CostFn != nil {
		// The closure cannot be hashed: without a tag a hit could carry the
		// wrong objective.
		if s.CostTag == "" {
			d.Fingerprint = ""
		} else if d.Fingerprint != "" {
			d.Fingerprint += "|cost=" + s.CostTag
		}
	}
	return d
}

// NewPackedScheduleSpace builds the scheduling space with the hour-billed
// packed cost objective — the full transformation-aware optimization the
// engine uses by default.
func NewPackedScheduleSpace(w *dag.Workflow, eval probir.Evaluator, tbl *estimate.Table, prices []float64, region string) *ScheduleSpace {
	sp := NewScheduleSpace(w, eval)
	sp.CostFn = func(st State) (float64, error) {
		return PackedMeanCost(w, st, tbl, prices, region)
	}
	sp.CostTag = "packed:" + region
	return sp
}

// packedSlot is one instance of a packed mean schedule: its type index into
// the table and the span from its first task's mean start to its last
// task's mean finish.
type packedSlot struct {
	typ        int
	start, end float64
}

// packKey orders one task in the packing: its mean start, then its rank in
// the topological order (dag.Flat.Order), which makes the order total.
type packKey struct {
	start float64
	rank  int32
}

// comparePackKeys orders packKeys by start, then rank.
func comparePackKeys(a, b packKey) int {
	switch {
	case a.start < b.start:
		return -1
	case b.start < a.start:
		return 1
	}
	return cmp.Compare(a.rank, b.rank)
}

// packing is the pooled scratch and result of packMean. Per-task slices are
// indexed like dag.Flat.IDs; byStart holds the tasks' keys in packing order.
type packing struct {
	dur, finish []float64
	byStart     []packKey
	slotOf      []int32
	slots       []packedSlot
}

var packPool = sync.Pool{New: func() any { return new(packing) }}

// packMean packs a configuration's mean schedule onto shared instances: the
// Merge and Co-Scheduling transformations reuse an instance of the same type
// that is idle by a task's start when the gap stays within an
// already-billed hour; Move is implicit in the serial order. Tasks are
// visited by mean start, ties in topological order, and each takes the
// first fitting slot in creation order. Mean durations come from the
// table's dense per-(task, type) means (estimate.Table.Means). The result
// lives in pooled scratch: the caller returns it with packPool.Put once
// done reading.
func packMean(w *dag.Workflow, config State, tbl *estimate.Table) (*dag.Flat, *packing, error) {
	if len(config) != w.Len() {
		return nil, nil, fmt.Errorf("opt: config length %d, want %d", len(config), w.Len())
	}
	f, err := w.Flatten()
	if err != nil {
		return nil, nil, err
	}
	means, err := tbl.Means(f)
	if err != nil {
		return nil, nil, err
	}
	n, k := f.Len(), means.NumTypes
	p := packPool.Get().(*packing)
	if cap(p.dur) < n {
		p.dur = make([]float64, n)
		p.finish = make([]float64, n)
		p.byStart = make([]packKey, n)
		p.slotOf = make([]int32, n)
	}
	p.dur, p.finish = p.dur[:n], p.finish[:n]
	p.byStart, p.slotOf, p.slots = p.byStart[:n], p.slotOf[:n], p.slots[:0]
	for i, j := range config {
		if j < 0 || j >= k {
			packPool.Put(p)
			return nil, nil, fmt.Errorf("opt: type index %d out of range", j)
		}
		p.dur[i] = means.Means[i*k+j]
	}
	// Mean schedule: start/finish under infinite instances.
	f.Makespan(p.dur, p.finish)
	for rank, ti := range f.Order {
		p.byStart[rank] = packKey{start: p.finish[ti] - p.dur[ti], rank: int32(rank)}
	}
	slices.SortFunc(p.byStart, comparePackKeys)

	const hour = 3600.0
	for _, key := range p.byStart {
		ti := f.Order[key.rank]
		j, st := config[ti], key.start
		best := -1
		for si := range p.slots {
			if p.slots[si].typ != j || p.slots[si].end > st {
				continue
			}
			if st-p.slots[si].end <= hour {
				best = si
				break
			}
		}
		if best < 0 {
			p.slots = append(p.slots, packedSlot{typ: j, start: st})
			best = len(p.slots) - 1
		}
		p.slots[best].end = p.finish[ti]
		p.slotOf[ti] = int32(best)
	}
	return f, p, nil
}

// Consolidate materializes a configuration into an executable plan, applying
// the plan-level transformations (Merge, Co-Scheduling, Move). Returns a
// sim.Plan ready for execution.
func Consolidate(w *dag.Workflow, config State, tbl *estimate.Table, region string) (*sim.Plan, error) {
	f, p, err := packMean(w, config, tbl)
	if err != nil {
		return nil, err
	}
	defer packPool.Put(p)
	plan := &sim.Plan{Place: make(map[string]sim.Placement, f.Len())}
	for i, id := range f.IDs {
		plan.Place[id] = sim.Placement{Slot: int(p.slotOf[i]), Type: tbl.Types[config[i]], Region: region}
	}
	return plan, nil
}

// PackedMeanCost is the hour-billed cost of a configuration's consolidated
// mean schedule: what the provisioning plan is expected to cost once the
// Merge/Co-Scheduling transformations have packed tasks onto instances and
// EC2 bills whole instance-hours. The scheduling search minimizes this (the
// transformations exist exactly to exploit partial hours); the fractional
// Eq. 1 cost is available from the evaluator for reporting. The prices are
// per type index of tbl; region does not enter the cost.
func PackedMeanCost(w *dag.Workflow, config State, tbl *estimate.Table, prices []float64, region string) (float64, error) {
	if len(prices) != len(tbl.Types) {
		return 0, fmt.Errorf("opt: %d prices for %d types", len(prices), len(tbl.Types))
	}
	_, p, err := packMean(w, config, tbl)
	if err != nil {
		return 0, err
	}
	defer packPool.Put(p)
	total := 0.0
	for _, s := range p.slots {
		hours := (s.end - s.start) / 3600
		if hours <= 0 {
			hours = 0
		}
		billed := float64(int(hours) + 1)
		if hours == float64(int(hours)) && hours > 0 {
			billed = hours
		}
		total += billed * prices[s.typ]
	}
	return total, nil
}
