// Package wms is the workflow-management-system integration surface of §2:
// a compact Pegasus-like WMS with a mapper that turns DAX documents into
// executable workflows, a pluggable scheduler interface (the "user-defined
// callouts inside the WMS" Deco replaces), and an execution engine that
// distributes the executable workflow onto cloud resources — here the
// simulator. Schedulers include Pegasus's default Random scheduler,
// fixed-type schedulers (Figure 1's m1.* scenarios), the Autoscaling
// baseline, and Deco itself.
package wms

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"deco/internal/baseline"
	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/dax"
	"deco/internal/device"
	"deco/internal/estimate"
	"deco/internal/opt"
	"deco/internal/probir"
	"deco/internal/runtime"
	"deco/internal/sim"
	"deco/internal/wlog"
)

// Scheduler decides which instance runs each task — the resource
// orchestration component of §1.
type Scheduler interface {
	Name() string
	Schedule(w *dag.Workflow) (*sim.Plan, error)
}

// Random is Pegasus's default scheduler: a uniformly random type per task.
type Random struct {
	Cat    *cloud.Catalog
	Region string
	Rng    *rand.Rand
}

// Name implements Scheduler.
func (r *Random) Name() string { return "random" }

// Schedule implements Scheduler.
func (r *Random) Schedule(w *dag.Workflow) (*sim.Plan, error) {
	return sim.RandomPlan(w, r.Cat, r.Region, r.Rng), nil
}

// Fixed places every task on one instance type (the single-type scenarios
// of Figure 1).
type Fixed struct {
	Type   string
	Region string
}

// Name implements Scheduler.
func (f *Fixed) Name() string { return f.Type }

// Schedule implements Scheduler.
func (f *Fixed) Schedule(w *dag.Workflow) (*sim.Plan, error) {
	return sim.UniformPlan(w, f.Type, f.Region), nil
}

// Autoscaling wraps the Mao & Humphrey baseline as a WMS scheduler. The
// deadline comes from the workflow's DeadlineSeconds field.
type Autoscaling struct {
	Est    *estimate.Estimator
	Prices []float64
	Region string
}

// Name implements Scheduler.
func (a *Autoscaling) Name() string { return "autoscaling" }

// Schedule implements Scheduler.
func (a *Autoscaling) Schedule(w *dag.Workflow) (*sim.Plan, error) {
	if w.DeadlineSeconds <= 0 {
		return nil, fmt.Errorf("wms: autoscaling needs a workflow deadline")
	}
	tbl, err := a.Est.BuildTable(w)
	if err != nil {
		return nil, err
	}
	config, err := baseline.Autoscaling(w, tbl, a.Prices, w.DeadlineSeconds)
	if err != nil {
		return nil, err
	}
	// Autoscaling consolidates instances too (its "instance consolidation"
	// step), so materialize through the same packing.
	return opt.Consolidate(w, config, tbl, a.Region)
}

// Deco runs the declarative engine's scheduling search: minimize monetary
// cost under the workflow's probabilistic deadline, then materialize the
// configuration with the plan-level transformations.
type Deco struct {
	Est    *estimate.Estimator
	Prices []float64
	Region string
	// Iters is the Monte-Carlo budget per state evaluation.
	Iters int
	// Search configures the solver (device, beam, budget).
	Search opt.Options
}

// Name implements Scheduler.
func (d *Deco) Name() string { return "deco" }

// Schedule implements Scheduler.
func (d *Deco) Schedule(w *dag.Workflow) (*sim.Plan, error) {
	if w.DeadlineSeconds <= 0 {
		return nil, fmt.Errorf("wms: deco needs a workflow deadline")
	}
	tbl, err := d.Est.BuildTable(w)
	if err != nil {
		return nil, err
	}
	iters := d.Iters
	if iters <= 0 {
		iters = 100
	}
	pct := w.DeadlinePercentile
	if pct == 0 {
		pct = 0.96 // the paper's default probabilistic requirement
	}
	cons := []wlog.Constraint{{Kind: "deadline", Percentile: pct, Bound: w.DeadlineSeconds}}
	eval, err := probir.NewNative(w, tbl, d.Prices, probir.GoalCost, cons, iters)
	if err != nil {
		return nil, err
	}
	space := opt.NewPackedScheduleSpace(w, eval, tbl, d.Prices, d.Region)
	search := d.Search
	if search.Device == nil {
		search.Device = device.TwoLevel{}
	}
	res, err := opt.Search(space, search)
	if err != nil {
		return nil, err
	}
	return opt.Consolidate(w, res.Best, tbl, d.Region)
}

// WMS glues the mapper, scheduler and execution engine together.
type WMS struct {
	Cat *cloud.Catalog
	// SimRng seeds the execution engine's dynamics.
	SimRng *rand.Rand
}

// New returns a WMS over the catalog.
func New(cat *cloud.Catalog, rng *rand.Rand) *WMS {
	return &WMS{Cat: cat, SimRng: rng}
}

// Run is the outcome of one workflow submission.
type Run struct {
	Scheduler string
	Plan      *sim.Plan
	Exec      *sim.Result
	// Adapt reports the runtime monitor's view of the execution when the
	// scheduler was wrapped in Adaptive (nil for open-loop runs).
	Adapt *runtime.Report
}

// ControllerFactory is implemented by schedulers that want to observe (and
// possibly revise) the execution of the plan they produced — wms.Adaptive
// implements it to plug the runtime monitor into the simulator.
type ControllerFactory interface {
	Controller(w *dag.Workflow, plan *sim.Plan) (sim.Controller, error)
}

// Submit maps the DAX document into an executable workflow, asks the
// scheduler for a provisioning plan, and executes it on the cloud
// (simulator). Deadline fields are applied to the parsed workflow before
// scheduling.
func (m *WMS) Submit(ctx context.Context, daxSrc io.Reader, sched Scheduler, deadlineSec, percentile float64) (*Run, error) {
	w, err := dax.Parse(daxSrc)
	if err != nil {
		return nil, err
	}
	w.DeadlineSeconds = deadlineSec
	w.DeadlinePercentile = percentile
	return m.Execute(ctx, w, sched)
}

// Execute schedules and runs an already-mapped workflow. When the scheduler
// implements ControllerFactory, execution runs under its controller —
// closed-loop monitoring and replanning instead of open-loop.
func (m *WMS) Execute(ctx context.Context, w *dag.Workflow, sched Scheduler) (*Run, error) {
	plan, err := sched.Schedule(w)
	if err != nil {
		return nil, fmt.Errorf("wms: scheduler %s: %w", sched.Name(), err)
	}
	s, err := sim.New(sim.DefaultOptions(m.Cat, m.SimRng))
	if err != nil {
		return nil, err
	}
	var ctrl sim.Controller
	if cf, ok := sched.(ControllerFactory); ok {
		if ctrl, err = cf.Controller(w, plan); err != nil {
			return nil, fmt.Errorf("wms: scheduler %s: %w", sched.Name(), err)
		}
	}
	res, err := s.RunControlled(ctx, w, plan, ctrl)
	if err != nil {
		return nil, err
	}
	run := &Run{Scheduler: sched.Name(), Plan: plan, Exec: res}
	if mon, ok := ctrl.(*runtime.Monitor); ok {
		mon.Finish(res)
		run.Adapt = mon.Report()
	}
	return run, nil
}

// ExecuteMany runs the same plan n times to observe the execution-time
// distribution (Figure 2's methodology).
func (m *WMS) ExecuteMany(ctx context.Context, w *dag.Workflow, sched Scheduler, n int) ([]*sim.Result, error) {
	plan, err := sched.Schedule(w)
	if err != nil {
		return nil, fmt.Errorf("wms: scheduler %s: %w", sched.Name(), err)
	}
	s, err := sim.New(sim.DefaultOptions(m.Cat, m.SimRng))
	if err != nil {
		return nil, err
	}
	return s.RunMany(ctx, w, plan, n)
}
