package opt

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"deco/internal/dag"
	"deco/internal/estimate"
	"deco/internal/probir"
	"deco/internal/sim"
)

// Op identifies one of the six workflow transformation operations the
// solver's state transitions are driven by (§5.3, citing the authors' ToC
// work). Promote and Demote change instance configurations and therefore the
// value of the probabilistic goal/constraints; Move, Merge, Split and
// Co-Scheduling rearrange tasks on instances to exploit partial hours and
// are applied when a configuration is materialized into an executable plan
// (Consolidate).
type Op int

// The six transformation operations.
const (
	// OpMove delays a task's execution to a later time (materialized by the
	// serial ordering of merged instances).
	OpMove Op = iota
	// OpMerge merges two tasks with the same configuration onto the same
	// instance to fully utilize the instance partial hour.
	OpMerge
	// OpPromote changes a task's configuration to a more powerful type.
	OpPromote
	// OpDemote changes a task's configuration to a less powerful type.
	OpDemote
	// OpSplit suspends a running task and resumes it later. Our simulator
	// has no preemption, so Split never materializes; it is accepted in
	// operation sets for API completeness.
	OpSplit
	// OpCoSchedule assigns multiple same-configuration tasks to the same
	// instance.
	OpCoSchedule
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpMove:
		return "Move"
	case OpMerge:
		return "Merge"
	case OpPromote:
		return "Promote"
	case OpDemote:
		return "Demote"
	case OpSplit:
		return "Split"
	case OpCoSchedule:
		return "Co-Scheduling"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// ScheduleSpace is the search space of the workflow scheduling problem
// (§3.1): states assign an instance-type index to every task; neighbors
// Promote/Demote one task group at a time.
type ScheduleSpace struct {
	W    *dag.Workflow
	Eval probir.Evaluator
	// Groups partitions task indices; a transformation applies to a whole
	// group (see GroupPerTask / GroupByExecutable).
	Groups [][]int
	// Ops enables Promote and/or Demote transitions.
	Ops []Op
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
func GroupPerTask(w *dag.Workflow) [][]int {
	groups := make([][]int, w.Len())
	for i := range groups {
		groups[i] = []int{i}
	}
	return groups
}

// GroupByExecutable groups tasks sharing an executable: Montage's thousands
// of mProjectPP tasks promote together. This collapses the optimization
// space the way the Autoscaling baseline's per-level typing does and keeps
// the branching factor independent of workflow size.
func GroupByExecutable(w *dag.Workflow) [][]int {
	byExec := map[string][]int{}
	var names []string
	for i, t := range w.Tasks {
		if _, ok := byExec[t.Executable]; !ok {
			names = append(names, t.Executable)
		}
		byExec[t.Executable] = append(byExec[t.Executable], i)
	}
	sort.Strings(names)
	groups := make([][]int, 0, len(names))
	for _, n := range names {
		groups = append(groups, byExec[n])
	}
	return groups
}

// NewScheduleSpace builds the scheduling search space with sensible
// defaults: per-task groups up to 30 tasks (the exact formulation),
// per-executable beyond (keeping the branching factor workable); Promote
// and Demote enabled; all-cheapest initial state.
func NewScheduleSpace(w *dag.Workflow, eval probir.Evaluator) *ScheduleSpace {
	var groups [][]int
	if w.Len() <= 30 {
		groups = GroupPerTask(w)
	} else {
		groups = GroupByExecutable(w)
	}
	return &ScheduleSpace{
		W: w, Eval: eval, Groups: groups,
		Ops: []Op{OpPromote, OpDemote},
	}
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

// Neighbors implements Space: one child per (group, enabled direction), as
// in Figure 5b where each child promotes one task, plus one whole-workflow
// shift per direction, each annotated with the operation and the exact task
// indices whose type changed. The global shift
// preserves type homogeneity, which the Merge/Co-Scheduling packing rewards
// (heterogeneous plans cannot share instances across types), so it lets the
// search cross the homogeneity ridge single-group moves cannot.
func (s *ScheduleSpace) Neighbors(st State) []Transform {
	k := s.Eval.NumTypes()
	var out []Transform
	for _, op := range s.Ops {
		var delta int
		switch op {
		case OpPromote:
			delta = 1
		case OpDemote:
			delta = -1
		default:
			continue // Move/Merge/Split/Co-Scheduling act at plan level
		}
		for _, g := range s.Groups {
			child := st.Clone()
			var tasks []int32
			for _, i := range g {
				nv := child[i] + delta
				if nv >= 0 && nv < k {
					child[i] = nv
					tasks = append(tasks, int32(i))
				}
			}
			if len(tasks) > 0 {
				out = append(out, Transform{Op: op, Tasks: tasks, Child: child})
			}
		}
		// Global shift: every task moves one step in this direction.
		child := st.Clone()
		var tasks []int32
		for i := range child {
			nv := child[i] + delta
			if nv >= 0 && nv < k {
				child[i] = nv
				tasks = append(tasks, int32(i))
			}
		}
		if len(tasks) > 0 {
			out = append(out, Transform{Op: op, Tasks: tasks, Child: child})
		}
	}
	return out
}

// Evaluate scores one state with a state-keyed rng — the test oracle the
// solver's evaluation of the space must reproduce: Native evaluates under
// the CRN base rng.Int63(), Prolog over the world substream rng.Int63(),
// and any CostFn replaces the goal value.
func (s *ScheduleSpace) Evaluate(st State, rng *rand.Rand) (*probir.Evaluation, error) {
	ev, err := s.Eval.Evaluate(st, rng)
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

// Describe implements Space. A Native evaluator runs under the
// common-random-number contract with the seed as its CRN base: shared world
// realizations, delta evaluation over dirty-cone plans, and the
// decisive-world-first order. A Prolog evaluator interprets each world over
// a state-keyed substream (StateBase). The fingerprint — and with it the
// evaluation cache — is the Native program's, composed with the CostTag;
// it is empty for Prolog and for a CostFn without a tag.
func (s *ScheduleSpace) Describe(seed int64) Descriptor {
	var d Descriptor
	switch e := s.Eval.(type) {
	case *probir.Native:
		d.Kernel = func(st State) (probir.WorldKernel, error) { return s.objective(st)(e.CRNKernel(st, seed)) }
		d.Fingerprint = e.Fingerprint()
		d.WorldOrder = func() []int32 { return e.WorldOrder(seed) }
		d.Delta = &DeltaHooks{
			NewSnapshot:     e.NewSnapshot,
			ReleaseSnapshot: e.ReleaseSnapshot,
			PlanCone:        e.PlanCone,
			Capture: func(st State, snap *probir.Snapshot) (probir.WorldKernel, error) {
				return s.objective(st)(e.CRNKernelSnap(st, seed, snap))
			},
			Planned: func(st State, plan *probir.ConePlan, parent, snap *probir.Snapshot) (probir.WorldKernel, error) {
				return s.objective(st)(e.CRNDeltaKernelPlanned(st, seed, plan, parent, snap))
			},
		}
	case *probir.Prolog:
		d.Kernel = func(st State) (probir.WorldKernel, error) {
			return s.objective(st)(e.Kernel(st, StateBase(seed, st.Key())))
		}
	default:
		d.Kernel = func(State) (probir.WorldKernel, error) {
			return nil, fmt.Errorf("opt: evaluator %T has no world kernel", s.Eval)
		}
	}
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

// objective returns the kernel post-processor of state st: any CostFn
// objective applied at reduction time, exactly as Evaluate applies it after
// the Monte-Carlo loop. Capture happens inside the wrapped kernel's Sample,
// so the wrapper never affects a snapshot.
func (s *ScheduleSpace) objective(st State) func(probir.WorldKernel, error) (probir.WorldKernel, error) {
	return func(k probir.WorldKernel, err error) (probir.WorldKernel, error) {
		if err != nil || k == nil || s.CostFn == nil {
			return k, err
		}
		return &costFnKernel{WorldKernel: k, fn: s.CostFn, st: st.Clone()}, nil
	}
}

// costFnKernel replaces the reduced goal value with the plan-level cost,
// mirroring ScheduleSpace.Evaluate. The cost runs inside Reduce, which the
// solver schedules per-state on the device, so packing stays parallel.
type costFnKernel struct {
	probir.WorldKernel
	fn func(State) (float64, error)
	st State
}

func (k *costFnKernel) Reduce(sums []float64) (*probir.Evaluation, error) {
	ev, err := k.WorldKernel.Reduce(sums)
	if err != nil {
		return nil, err
	}
	v, err := k.fn(k.st)
	if err != nil {
		return nil, err
	}
	ev.Value = v
	return ev, nil
}

// Indicators forwards the inner kernel's partial-evaluation capability: the
// CostFn changes the goal value only, never the constraint indicators.
func (k *costFnKernel) Indicators() (idx []int, targets []float64, ok bool) {
	if pk, isPartial := k.WorldKernel.(probir.PartialKernel); isPartial {
		return pk.Indicators()
	}
	return nil, nil, false
}

// ValueFigure reports a deterministic goal value: the CostFn replaces the
// reduced value with a world-free plan cost, exact under any world prefix.
func (k *costFnKernel) ValueFigure() int { return -1 }

// ReducePartial applies the CostFn over the inner partial reduction, exactly
// as Reduce applies it over the full one.
func (k *costFnKernel) ReducePartial(sums []float64, seen int) (*probir.Evaluation, error) {
	pk, isPartial := k.WorldKernel.(probir.PartialKernel)
	if !isPartial {
		return nil, fmt.Errorf("opt: inner kernel does not support partial reduction")
	}
	ev, err := pk.ReducePartial(sums, seen)
	if err != nil {
		return nil, err
	}
	v, err := k.fn(k.st)
	if err != nil {
		return nil, err
	}
	ev.Value = v
	return ev, nil
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

// packing is the pooled scratch and result of packMean. Per-task slices are
// indexed like dag.Flat.IDs; byStart holds task indices and, sorted, orders
// the tasks by mean start (sort.Interface below).
type packing struct {
	dur, start, finish []float64
	byStart            []int32
	slotOf             []int32
	slots              []packedSlot
}

var packPool = sync.Pool{New: func() any { return new(packing) }}

func (p *packing) Len() int           { return len(p.byStart) }
func (p *packing) Less(a, b int) bool { return p.start[p.byStart[a]] < p.start[p.byStart[b]] }
func (p *packing) Swap(a, b int)      { p.byStart[a], p.byStart[b] = p.byStart[b], p.byStart[a] }

// packMean packs a configuration's mean schedule onto shared instances: the
// Merge and Co-Scheduling transformations reuse an instance of the same type
// that is idle by a task's start when the gap stays within an
// already-billed hour; Move is implicit in the serial order. Tasks are
// visited by mean start, stably over the topological order, and each takes
// the first fitting slot in creation order. The result lives in pooled
// scratch: the caller returns it with packPool.Put once done reading.
func packMean(w *dag.Workflow, config State, tbl *estimate.Table) (*dag.Flat, *packing, error) {
	if len(config) != w.Len() {
		return nil, nil, fmt.Errorf("opt: config length %d, want %d", len(config), w.Len())
	}
	f, err := w.Flatten()
	if err != nil {
		return nil, nil, err
	}
	n := f.Len()
	p := packPool.Get().(*packing)
	if cap(p.dur) < n {
		p.dur = make([]float64, n)
		p.start = make([]float64, n)
		p.finish = make([]float64, n)
		p.byStart = make([]int32, n)
		p.slotOf = make([]int32, n)
	}
	p.dur, p.start, p.finish = p.dur[:n], p.start[:n], p.finish[:n]
	p.byStart, p.slotOf, p.slots = p.byStart[:n], p.slotOf[:n], p.slots[:0]
	for i, id := range f.IDs {
		td, err := tbl.Dist(id, config[i])
		if err != nil {
			packPool.Put(p)
			return nil, nil, err
		}
		p.dur[i] = td.Mean()
	}
	// Mean schedule: start/finish under infinite instances.
	f.Makespan(p.dur, p.finish)
	for i := range p.start {
		p.start[i] = p.finish[i] - p.dur[i]
	}
	copy(p.byStart, f.Order)
	sort.Stable(p)

	const hour = 3600.0
	for _, ti := range p.byStart {
		j := config[ti]
		st := p.start[ti]
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
