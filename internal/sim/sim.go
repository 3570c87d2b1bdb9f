// Package sim is the CloudSim-like simulator the paper's evaluation runs on
// (§6.1, "Implementation details"). It has the three components the paper
// describes: a Cloud maintaining a pool of resources with acquisition and
// release of Instances, Instances whose I/O and network performance vary
// per-second according to the calibrated distributions, and a Workflow
// executor that schedules tasks onto the simulated instances and reports
// realized makespan and monetary cost (instance-hours plus cross-region
// networking).
package sim

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"deco/internal/cloud"
	"deco/internal/dag"
)

// Placement assigns a task to a logical instance slot. Tasks sharing a Slot
// run serially on the same instance — this is how the Merge and
// Co-Scheduling transformations materialize. Type selects the instance type
// and Region the data center.
type Placement struct {
	Slot   int
	Type   string
	Region string
}

// Plan maps every task of a workflow to its placement.
type Plan struct {
	Place map[string]Placement
}

// UniformPlan places every task on its own instance of the given type.
func UniformPlan(w *dag.Workflow, typ, region string) *Plan {
	p := &Plan{Place: make(map[string]Placement, w.Len())}
	for i, t := range w.Tasks {
		p.Place[t.ID] = Placement{Slot: i, Type: typ, Region: region}
	}
	return p
}

// RandomPlan places each task on its own instance of a uniformly random type
// (the paper's "randomly chosen instance types" scenario and Pegasus's
// default Random scheduler).
func RandomPlan(w *dag.Workflow, cat *cloud.Catalog, region string, rng *rand.Rand) *Plan {
	names := cat.TypeNames()
	p := &Plan{Place: make(map[string]Placement, w.Len())}
	for i, t := range w.Tasks {
		p.Place[t.ID] = Placement{Slot: i, Type: names[rng.Intn(len(names))], Region: region}
	}
	return p
}

// Validate checks the plan covers the workflow and references known types,
// regions, and consistent slot typing. Spot placements ("<type>:spot") must
// name a type with a spot market in their region.
func (p *Plan) Validate(w *dag.Workflow, cat *cloud.Catalog) error {
	slotType := map[int]Placement{}
	for _, t := range w.Tasks {
		pl, ok := p.Place[t.ID]
		if !ok {
			return fmt.Errorf("sim: plan missing task %q", t.ID)
		}
		if _, err := cat.Type(cloud.BaseType(pl.Type)); err != nil {
			return err
		}
		if _, err := cat.Region(pl.Region); err != nil {
			return err
		}
		if cloud.IsSpotName(pl.Type) {
			if _, err := cat.Spot(pl.Region, pl.Type); err != nil {
				return err
			}
		}
		if prev, seen := slotType[pl.Slot]; seen {
			if prev.Type != pl.Type || prev.Region != pl.Region {
				return fmt.Errorf("sim: slot %d used with conflicting type/region", pl.Slot)
			}
		} else {
			slotType[pl.Slot] = pl
		}
	}
	return nil
}

// Options configures a simulation run.
type Options struct {
	Cat *cloud.Catalog
	Rng *rand.Rand
	// ProvisionDelaySec is the lag between requesting an instance and it
	// becoming usable.
	ProvisionDelaySec float64
	// BillingQuantumSec is the billing granularity (3600 = instance hours,
	// the EC2 model of the paper).
	BillingQuantumSec float64
	// DynamicsPeriodSec is how long one drawn I/O or network rate persists
	// before the simulator redraws it. Cloud interference is temporally
	// correlated — the calibration measures once a minute (§6.1) — so the
	// default is 60s; i.i.d. per-second draws would average the variance
	// away and hide the Figure 2 dynamics.
	DynamicsPeriodSec float64
}

// DefaultOptions returns EC2-like settings with the given catalog and rng.
func DefaultOptions(cat *cloud.Catalog, rng *rand.Rand) Options {
	return Options{Cat: cat, Rng: rng, BillingQuantumSec: 3600, DynamicsPeriodSec: 60}
}

// TaskRecord reports one task's realized execution.
type TaskRecord struct {
	Start, Finish float64
	Instance      int
	TransferMB    float64 // bytes fetched over the network
}

// InstanceRecord reports one simulated instance's lifetime and cost.
type InstanceRecord struct {
	Slot         int
	Type, Region string
	AcquiredAt   float64
	ReleasedAt   float64
	Cost         float64
}

// Result is the outcome of simulating one workflow execution.
type Result struct {
	Makespan      float64
	InstanceCost  float64
	NetworkCost   float64 // cross-region transfer charges
	TotalCost     float64
	Tasks         map[string]*TaskRecord
	Instances     []InstanceRecord
	InstanceHours float64
	// Revocations counts spot instances reclaimed by the market during the
	// run (whether or not a task was killed by the reclaim).
	Revocations int
	// SpotSavingsUSD is the instance cost avoided by running spot slots at
	// their drawn clearing price instead of the on-demand rate — negative
	// when a market draw cleared above on-demand. It does not net out the
	// rework billed after revocations; TotalCost already carries that.
	SpotSavingsUSD float64
	// Plan holds the placements actually executed — identical to the input
	// plan unless a Controller revised them mid-run.
	Plan *Plan
}

// transferSpec describes where a task's input bytes come from.
type transferSpec struct {
	localMB  float64 // produced on the same instance
	sameMB   float64 // same region, different instance
	crossMB  float64 // another region
	sourceMB float64 // initial inputs from storage (same region)
}

// Sim executes workflows on the simulated cloud.
type Sim struct {
	opt Options
}

// New returns a simulator. Options must carry a catalog and rng.
func New(opt Options) (*Sim, error) {
	if opt.Cat == nil {
		return nil, fmt.Errorf("sim: catalog required")
	}
	if opt.Rng == nil {
		return nil, fmt.Errorf("sim: rng required")
	}
	if opt.BillingQuantumSec <= 0 {
		opt.BillingQuantumSec = 3600
	}
	return &Sim{opt: opt}, nil
}

// integrate simulates moving mb megabytes at a rate drawn from d and held
// for period seconds before redrawing — the temporally-correlated cloud
// dynamics the calibration observes (one probe a minute for 7 days). The
// final partial period is fractional. To bound the cost of pathological
// inputs, after 100k periods the remaining volume moves at the mean rate.
func integrate(mb float64, d interface {
	Sample(*rand.Rand) float64
	Mean() float64
}, rng *rand.Rand, period float64) float64 {
	if mb <= 0 {
		return 0
	}
	if period <= 0 {
		period = 60
	}
	t := 0.0
	const maxSteps = 100000
	for i := 0; i < maxSteps && mb > 0; i++ {
		rate := d.Sample(rng)
		if rate < 1e-6 {
			rate = 1e-6
		}
		chunk := rate * period
		if chunk >= mb {
			t += mb / rate
			return t
		}
		mb -= chunk
		t += period
	}
	if mb > 0 {
		mean := d.Mean()
		if mean < 1e-6 {
			mean = 1e-6
		}
		t += mb / mean
	}
	return t
}

// realizedDuration simulates one task's execution time on an instance type:
// deterministic CPU time plus per-second-dynamic disk I/O and network
// transfer phases.
func (s *Sim) realizedDuration(t *dag.Task, typ string, xfer transferSpec) (float64, error) {
	// A spot instance is hardware-identical to its on-demand base type; only
	// billing and lifecycle differ.
	typ = cloud.BaseType(typ)
	it, err := s.opt.Cat.Type(typ)
	if err != nil {
		return 0, err
	}
	perf := s.opt.Cat.Perf
	d := t.CPUSeconds / it.ECU
	// Disk: all inputs and outputs pass through the local disk.
	ioMB := t.InputMB() + t.OutputMB()
	d += integrate(ioMB, perf.SeqIO[typ], s.opt.Rng, s.opt.DynamicsPeriodSec)
	// Network: bytes not already on this instance.
	netMB := xfer.sameMB + xfer.sourceMB
	d += integrate(netMB, perf.Net[typ], s.opt.Rng, s.opt.DynamicsPeriodSec)
	d += integrate(xfer.crossMB, perf.CrossRegionNet, s.opt.Rng, s.opt.DynamicsPeriodSec)
	return d, nil
}

// classifyTransfers splits task id's input bytes by origin relative to its
// placement.
func classifyTransfers(w *dag.Workflow, plan *Plan, id string) transferSpec {
	t := w.Task(id)
	pl := plan.Place[id]
	producers := map[string]string{} // file -> producing parent
	for _, p := range w.Parents(id) {
		for _, f := range w.Task(p).Outputs {
			producers[f.Name] = p
		}
	}
	var spec transferSpec
	for _, f := range t.Inputs {
		p, produced := producers[f.Name]
		switch {
		case !produced:
			spec.sourceMB += f.SizeMB
		case plan.Place[p].Slot == pl.Slot:
			spec.localMB += f.SizeMB
		case plan.Place[p].Region == pl.Region:
			spec.sameMB += f.SizeMB
		default:
			spec.crossMB += f.SizeMB
		}
	}
	return spec
}

// Run simulates one execution of w under plan and returns the realized
// makespan and costs. The context cancels long simulations (checked once per
// scheduled task).
func (s *Sim) Run(ctx context.Context, w *dag.Workflow, plan *Plan) (*Result, error) {
	return s.RunControlled(ctx, w, plan, nil)
}

// slotState tracks one logical instance slot during a run.
type slotState struct {
	freeAt     float64
	acquiredAt float64
	lastFinish float64
	used       bool
	price      float64 // per-hour price, resolved at acquisition
	place      Placement
	// notBefore is the earliest instant anything may be scheduled on the
	// slot — set on replacement slots so work displaced by a revocation (or
	// moved by a revision) cannot start before the event that displaced it.
	notBefore float64
	// Spot lifecycle: a spot slot draws its clearing price and revocation
	// time at acquisition; once the clock passes revokeAt the instance is
	// reclaimed and the slot is dead.
	spot     bool
	odPrice  float64 // on-demand rate of the base type, for savings
	revokeAt float64 // +Inf for on-demand slots
	dead     bool
}

// finishEvent is a buffered task completion awaiting causal delivery.
type finishEvent struct {
	time float64
	ev   Event
}

// finishQueue is a min-heap of pending completions ordered by time (ties by
// task ID for determinism).
type finishQueue []finishEvent

func (q finishQueue) Len() int { return len(q) }
func (q finishQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].ev.Task < q[j].ev.Task
}
func (q finishQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *finishQueue) Push(x any)   { *q = append(*q, x.(finishEvent)) }
func (q *finishQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// RunControlled simulates one execution of w under plan, reporting typed
// execution events to ctrl and applying any placement revisions it returns.
// A nil ctrl behaves exactly like Run. The plan is not mutated; the
// placements actually executed (after revisions) are returned in
// Result.Plan.
//
// Event causality: task durations are realized when a task starts (so a run
// with a passive controller is bit-identical to the uncontrolled run), but
// a completion is revealed to the controller only once no task could start
// before it — finishes are buffered and flushed in time order before each
// later start, with ctrl.Revise consulted after each one.
func (s *Sim) RunControlled(ctx context.Context, w *dag.Workflow, plan *Plan, ctrl Controller) (*Result, error) {
	if err := plan.Validate(w, s.opt.Cat); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	// Work on a copy: the controller may revise placements mid-run.
	cur := &Plan{Place: make(map[string]Placement, len(plan.Place))}
	for id, pl := range plan.Place {
		cur.Place[id] = pl
	}
	res := &Result{Tasks: make(map[string]*TaskRecord, w.Len()), Plan: cur}

	slots := map[int]*slotState{}
	for _, t := range w.Tasks {
		pl := cur.Place[t.ID]
		if _, ok := slots[pl.Slot]; !ok {
			slots[pl.Slot] = &slotState{place: pl}
		}
	}

	remainingParents := map[string]int{}
	readyAt := map[string]float64{} // max parent finish
	for _, t := range w.Tasks {
		remainingParents[t.ID] = len(w.Parents(t.ID))
	}
	done := map[string]bool{}
	pending := w.Len()

	// committedCost is the money already locked in by scheduling decisions:
	// whole billing quanta covering every started task's finish, plus
	// network charges accrued so far.
	committedCost := func() float64 {
		c := res.NetworkCost
		for _, st := range slots {
			if !st.used {
				continue
			}
			up := st.lastFinish - st.acquiredAt + s.opt.ProvisionDelaySec
			quanta := math.Ceil(up / s.opt.BillingQuantumSec)
			if quanta < 1 {
				quanta = 1
			}
			c += quanta * st.price * (s.opt.BillingQuantumSec / 3600)
		}
		return c
	}

	// applyRevision installs a controller revision observed at time `at`:
	// slots it introduces cannot be scheduled before the event that carried
	// the revision.
	applyRevision := func(upd map[string]Placement, at float64) error {
		for id, pl := range upd {
			if done[id] {
				continue // already started; revision ignored by contract
			}
			if w.Task(id) == nil {
				return fmt.Errorf("sim: revision references unknown task %q", id)
			}
			if _, err := s.opt.Cat.Type(cloud.BaseType(pl.Type)); err != nil {
				return err
			}
			if _, err := s.opt.Cat.Region(pl.Region); err != nil {
				return err
			}
			if cloud.IsSpotName(pl.Type) {
				if _, err := s.opt.Cat.Spot(pl.Region, pl.Type); err != nil {
					return err
				}
			}
			if st, ok := slots[pl.Slot]; ok {
				if st.dead {
					return fmt.Errorf("sim: revision of %q reuses revoked slot %d", id, pl.Slot)
				}
				if st.used && (st.place.Type != pl.Type || st.place.Region != pl.Region) {
					return fmt.Errorf("sim: revision of %q reuses acquired slot %d with conflicting type/region", id, pl.Slot)
				}
			} else {
				slots[pl.Slot] = &slotState{place: pl, notBefore: at}
			}
			cur.Place[id] = pl
		}
		return nil
	}

	var fin finishQueue
	// flushOne delivers the earliest buffered completion and consults the
	// controller for a revision.
	flushOne := func() error {
		it := heap.Pop(&fin).(finishEvent)
		ev := it.ev
		ev.AccruedCost = committedCost()
		ctrl.OnEvent(ev)
		if upd := ctrl.Revise(); upd != nil {
			if err := applyRevision(upd, it.time); err != nil {
				return err
			}
		}
		return nil
	}

	// retireSpot reclaims a spot slot at time `at`, killing `killed` (empty
	// when the instance was idle) and moving every unstarted task mapped to
	// the slot onto a fresh replacement. Replacement slots carry negative
	// IDs so they can never collide with slots a controller revision names.
	// Open-loop the replacement retries the same spot market; after
	// maxSpotRetries kills of one task it falls back to the on-demand base
	// type, which bounds the retry chain. A controller observes the
	// revocation causally (through the finish queue) and may re-place the
	// displaced tasks itself via Revise.
	const maxSpotRetries = 8
	killCount := map[string]int{}
	nextReplacement := -1
	retireSpot := func(st *slotState, killed string, at float64) {
		st.dead = true
		st.freeAt = at
		st.lastFinish = at // the market bills the instance until reclaim
		res.Revocations++
		typ := st.place.Type
		if killed != "" {
			killCount[killed]++
			if killCount[killed] >= maxSpotRetries {
				typ = cloud.BaseType(typ)
			}
		}
		fresh := nextReplacement
		nextReplacement--
		slots[fresh] = &slotState{
			place:     Placement{Slot: fresh, Type: typ, Region: st.place.Region},
			notBefore: at,
		}
		for _, tt := range w.Tasks {
			if done[tt.ID] || cur.Place[tt.ID].Slot != st.place.Slot {
				continue
			}
			cur.Place[tt.ID] = Placement{Slot: fresh, Type: typ, Region: st.place.Region}
		}
		if ctrl != nil {
			heap.Push(&fin, finishEvent{time: at, ev: Event{
				Kind: EvInstanceRevoked, Time: at, Task: killed,
				Slot: st.place.Slot, Type: st.place.Type, Region: st.place.Region,
			}})
		}
	}

	for pending > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sim: run cancelled: %w", err)
		}
		// Pick the ready task with the earliest feasible start (breaking ties
		// by task order for determinism).
		bestID := ""
		bestStart := math.Inf(1)
		for _, t := range w.Tasks {
			if done[t.ID] || remainingParents[t.ID] > 0 {
				continue
			}
			st := slots[cur.Place[t.ID].Slot]
			start := readyAt[t.ID]
			if st.used && st.freeAt > start {
				start = st.freeAt
			}
			if start < st.notBefore {
				start = st.notBefore
			}
			if !st.used {
				start += s.opt.ProvisionDelaySec
			}
			if start < bestStart {
				bestStart = start
				bestID = t.ID
			}
		}
		if bestID == "" {
			return nil, fmt.Errorf("sim: no ready task but %d pending (cycle?)", pending)
		}
		// Reveal every completion observable before this start, one at a
		// time (each may revise the plan, which can change the pick).
		if ctrl != nil && len(fin) > 0 && fin[0].time <= bestStart {
			if err := flushOne(); err != nil {
				return nil, err
			}
			continue
		}
		t := w.Task(bestID)
		pl := cur.Place[bestID]
		st := slots[pl.Slot]
		if st.used && st.spot && bestStart >= st.revokeAt {
			// The market reclaimed the instance while it sat idle; retire it
			// and re-pick — the displaced tasks now map to the replacement.
			retireSpot(st, "", st.revokeAt)
			continue
		}
		if !st.used {
			price, err := s.opt.Cat.Price(pl.Region, cloud.BaseType(pl.Type))
			if err != nil {
				return nil, err
			}
			st.used = true
			st.acquiredAt = bestStart // provision delay already folded in
			st.price = price
			st.place = pl
			st.revokeAt = math.Inf(1)
			if cloud.IsSpotName(pl.Type) {
				sm, err := s.opt.Cat.Spot(pl.Region, pl.Type)
				if err != nil {
					return nil, err
				}
				// Clearing price: floored normal around the market mean.
				// Revocation: Exponential(λ) hours from acquisition.
				st.spot = true
				st.odPrice = price
				p := sm.PricePerHourMean * (1 + sm.PriceSigma*s.opt.Rng.NormFloat64())
				if floor := sm.PricePerHourMean * cloud.SpotPriceFloorFrac; p < floor {
					p = floor
				}
				st.price = p
				if sm.RevocationsPerHour > 0 {
					u := s.opt.Rng.Float64()
					st.revokeAt = bestStart - math.Log(1-u)*3600/sm.RevocationsPerHour
				}
			}
			if ctrl != nil {
				ctrl.OnEvent(Event{Kind: EvInstanceAcquired, Time: bestStart,
					Slot: pl.Slot, Type: pl.Type, Region: pl.Region})
			}
		}
		xfer := classifyTransfers(w, cur, bestID)
		dur, err := s.realizedDuration(t, pl.Type, xfer)
		if err != nil {
			return nil, err
		}
		finish := bestStart + dur
		if st.spot && finish > st.revokeAt {
			// The instance is reclaimed mid-run: the attempt's work is lost,
			// the task goes back to pending on the replacement slot. The
			// controller sees the doomed start, then the revocation.
			if ctrl != nil {
				ctrl.OnEvent(Event{Kind: EvTaskStart, Time: bestStart, Task: bestID,
					Slot: pl.Slot, Type: pl.Type, Region: pl.Region})
			}
			retireSpot(st, bestID, st.revokeAt)
			continue
		}
		st.freeAt = finish
		st.lastFinish = finish
		res.Tasks[bestID] = &TaskRecord{
			Start: bestStart, Finish: finish, Instance: pl.Slot,
			TransferMB: xfer.sameMB + xfer.crossMB + xfer.sourceMB,
		}
		if finish > res.Makespan {
			res.Makespan = finish
		}
		// Cross-region networking charges accrue per transferred GB.
		if xfer.crossMB > 0 {
			// Price charged by the sending region; take the max over parents'
			// regions for a conservative single-rate model.
			rate := 0.0
			for _, p := range w.Parents(bestID) {
				srcRegion := cur.Place[p].Region
				if srcRegion == pl.Region {
					continue
				}
				r, err := s.opt.Cat.Region(srcRegion)
				if err != nil {
					return nil, err
				}
				if pr := r.NetPricePerGB[pl.Region]; pr > rate {
					rate = pr
				}
			}
			res.NetworkCost += xfer.crossMB / 1024 * rate
		}
		if ctrl != nil {
			ctrl.OnEvent(Event{Kind: EvTaskStart, Time: bestStart, Task: bestID,
				Slot: pl.Slot, Type: pl.Type, Region: pl.Region})
			heap.Push(&fin, finishEvent{time: finish, ev: Event{
				Kind: EvTaskFinish, Time: finish, Task: bestID,
				Slot: pl.Slot, Type: pl.Type, Region: pl.Region, Duration: dur,
			}})
		}
		done[bestID] = true
		pending--
		for _, c := range w.Children(bestID) {
			remainingParents[c]--
			if finish > readyAt[c] {
				readyAt[c] = finish
			}
		}
	}
	// Drain remaining completions in time order.
	for ctrl != nil && len(fin) > 0 {
		if err := flushOne(); err != nil {
			return nil, err
		}
	}

	// Billing: each used slot is one instance billed in whole quanta.
	var slotIDs []int
	for id := range slots {
		slotIDs = append(slotIDs, id)
	}
	sort.Ints(slotIDs)
	for _, id := range slotIDs {
		st := slots[id]
		if !st.used {
			continue
		}
		up := st.lastFinish - st.acquiredAt + s.opt.ProvisionDelaySec
		quanta := math.Ceil(up / s.opt.BillingQuantumSec)
		if quanta < 1 {
			quanta = 1
		}
		cost := quanta * st.price * (s.opt.BillingQuantumSec / 3600)
		res.InstanceCost += cost
		res.InstanceHours += quanta * s.opt.BillingQuantumSec / 3600
		if st.spot {
			res.SpotSavingsUSD += quanta * (st.odPrice - st.price) * (s.opt.BillingQuantumSec / 3600)
		}
		res.Instances = append(res.Instances, InstanceRecord{
			Slot: id, Type: st.place.Type, Region: st.place.Region,
			AcquiredAt: st.acquiredAt - s.opt.ProvisionDelaySec,
			ReleasedAt: st.lastFinish, Cost: cost,
		})
	}
	res.TotalCost = res.InstanceCost + res.NetworkCost
	return res, nil
}

// RunMany simulates n independent executions and returns all results.
func (s *Sim) RunMany(ctx context.Context, w *dag.Workflow, plan *Plan, n int) ([]*Result, error) {
	out := make([]*Result, n)
	for i := range out {
		r, err := s.Run(ctx, w, plan)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// Makespans extracts the makespans from a result list.
func Makespans(rs []*Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Makespan
	}
	return out
}

// Costs extracts the total costs from a result list.
func Costs(rs []*Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.TotalCost
	}
	return out
}
