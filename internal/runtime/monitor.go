package runtime

import (
	"fmt"

	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/device"
	"deco/internal/estimate"
	"deco/internal/probir"
	"deco/internal/sim"
	"deco/internal/wlog"
)

// Monitor is a sim.Controller that watches an execution and adapts it. It
// keeps a progress snapshot (observed starts, finishes, committed cost, a
// learned drift factor), re-estimates the violation probability of the
// remaining DAG after every task completion, and replans when the risk
// crosses Options.Risk. All methods are called from the simulator's
// goroutine; Report may be called after the run completes.
type Monitor struct {
	opt    Options
	w      *dag.Workflow
	tbl    *estimate.Table
	prices []float64
	region string
	cons   []wlog.Constraint
	index  map[string]int // task ID -> index in w.Tasks
	types  map[string]int // type name -> index in tbl.Types

	config   []int // current type index per task, w.Tasks order
	plan     map[string]sim.Placement
	nextSlot int

	res *residual

	sumObs, sumForecast float64
	decisions           int
	sinceReplan         int
	replans             int
	revocations         int
	recoveries          int
	revokedSlots        []int // slots reclaimed since the last Revise
	riskMax             float64
	riskWorldsRun       int64
	events              []StreamEvent
	err                 error
	done                bool
	final               *StreamEvent
}

// NewMonitor builds a monitor for executing plan on w. tbl holds the
// calibrated per-task forecasts the plan was made with, prices the hourly
// price per type index (tbl.Types order), and cons the plan's probabilistic
// constraints (absolute bounds: wall-clock deadline seconds, total budget
// dollars).
func NewMonitor(w *dag.Workflow, plan *sim.Plan, tbl *estimate.Table, prices []float64, region string, cons []wlog.Constraint, o Options) (*Monitor, error) {
	o.fillDefaults()
	if len(prices) != len(tbl.Types) {
		return nil, fmt.Errorf("runtime: %d prices for %d types", len(prices), len(tbl.Types))
	}
	n := w.Len()
	m := &Monitor{
		opt: o, w: w, tbl: tbl, prices: prices, region: region, cons: cons,
		index:       make(map[string]int, n),
		types:       make(map[string]int, len(tbl.Types)),
		config:      make([]int, n),
		plan:        make(map[string]sim.Placement, n),
		sinceReplan: o.Cooldown,
	}
	for j, name := range tbl.Types {
		m.types[name] = j
	}
	for i, t := range w.Tasks {
		m.index[t.ID] = i
		pl, ok := plan.Place[t.ID]
		if !ok {
			return nil, fmt.Errorf("runtime: plan missing task %q", t.ID)
		}
		j, ok := m.types[pl.Type]
		if !ok {
			return nil, fmt.Errorf("runtime: plan type %q not in calibrated table", pl.Type)
		}
		m.config[i] = j
		m.plan[t.ID] = pl
		if pl.Slot >= m.nextSlot {
			m.nextSlot = pl.Slot + 1
		}
	}
	flat, err := w.Flatten()
	if err != nil {
		return nil, err
	}
	ftab, err := tbl.Flatten(flat.IDs)
	if err != nil {
		return nil, err
	}
	m.res = &residual{
		flat:    flat,
		ftab:    ftab,
		state:   make([]int, n),
		startAt: make([]float64, n),
		elapsed: make([]float64, n),
		finish:  make([]float64, n),
		drift:   1,
		tbl:     tbl,
		prices:  prices,
		cons:    cons,
		iters:   o.Iters,
	}
	return m, nil
}

// emit appends an event to the log and forwards it to the sink.
func (m *Monitor) emit(ev StreamEvent) {
	ev.Seq = len(m.events)
	m.events = append(m.events, ev)
	if m.opt.Sink != nil {
		m.opt.Sink(ev)
	}
}

// OnEvent implements sim.Controller: fold one execution event into the
// progress snapshot.
func (m *Monitor) OnEvent(ev sim.Event) {
	switch ev.Kind {
	case sim.EvInstanceAcquired:
		m.emit(StreamEvent{Time: ev.Time, Kind: ev.Kind.String(), Slot: ev.Slot, Type: ev.Type})
	case sim.EvTaskStart:
		i, ok := m.index[ev.Task]
		if !ok {
			return
		}
		m.res.state[i] = stRunning
		m.res.startAt[i] = ev.Time
		if ev.Time > m.res.now {
			m.res.now = ev.Time
		}
		m.emit(StreamEvent{Time: ev.Time, Kind: ev.Kind.String(), Task: ev.Task,
			Slot: ev.Slot, Type: ev.Type})
	case sim.EvTaskFinish:
		i, ok := m.index[ev.Task]
		if !ok {
			return
		}
		m.res.state[i] = stFinished
		m.res.finish[i] = ev.Time
		if ev.Time > m.res.now {
			m.res.now = ev.Time
		}
		m.res.accrued = ev.AccruedCost
		var forecast float64
		if j, ok := m.types[ev.Type]; ok {
			if td, err := m.tbl.Dist(ev.Task, j); err == nil {
				forecast = td.Mean()
				m.sumObs += ev.Duration
				m.sumForecast += forecast
			}
		}
		// Drift: the realized/forecast duration ratio over everything
		// observed so far, clamped to keep one outlier from dominating.
		if m.sumForecast > 0 {
			d := m.sumObs / m.sumForecast
			if d < 0.25 {
				d = 0.25
			}
			if d > 4 {
				d = 4
			}
			m.res.drift = d
		}
		for k, st := range m.res.state {
			if st == stRunning {
				m.res.elapsed[k] = m.res.now - m.res.startAt[k]
			}
		}
		m.sinceReplan++
		m.emit(StreamEvent{Time: ev.Time, Kind: ev.Kind.String(), Task: ev.Task,
			Slot: ev.Slot, Type: ev.Type, Duration: ev.Duration,
			Forecast: forecast, AccruedCost: ev.AccruedCost})
	case sim.EvInstanceRevoked:
		// A spot market reclaimed an instance: the killed task (if any) goes
		// back to unstarted and the slot is queued for forced recovery on the
		// next Revise — revocation is the most aggressive drift there is.
		if ev.Time > m.res.now {
			m.res.now = ev.Time
		}
		m.res.accrued = ev.AccruedCost
		if i, ok := m.index[ev.Task]; ok && ev.Task != "" {
			m.res.state[i] = stUnstarted
			m.res.startAt[i] = 0
			m.res.elapsed[i] = 0
		}
		m.revocations++
		m.revokedSlots = append(m.revokedSlots, ev.Slot)
		m.emit(StreamEvent{Time: ev.Time, Kind: ev.Kind.String(), Task: ev.Task,
			Slot: ev.Slot, Type: ev.Type, AccruedCost: ev.AccruedCost})
	}
}

// recoverRevoked is the forced replan after a spot revocation: every
// unstarted task still planned onto a reclaimed slot moves to the on-demand
// base of its current type, one fresh slot each. It bypasses the risk
// threshold, cooldown, and MaxReplans — leaving the orphaned sub-DAG on the
// simulator's default same-market retry would re-expose it to the very
// hazard that just fired.
func (m *Monitor) recoverRevoked() map[string]sim.Placement {
	if len(m.revokedSlots) == 0 {
		return nil
	}
	dead := make(map[int]bool, len(m.revokedSlots))
	for _, sl := range m.revokedSlots {
		dead[sl] = true
	}
	m.revokedSlots = nil
	newCfg := append([]int(nil), m.config...)
	changed := map[string]string{}
	for i, t := range m.w.Tasks {
		if m.res.state[i] != stUnstarted || !dead[m.plan[t.ID].Slot] {
			continue
		}
		base := cloud.BaseType(m.tbl.Types[m.config[i]])
		j, ok := m.types[base]
		if !ok || j == m.config[i] {
			continue // no on-demand column, or already on one
		}
		newCfg[i] = j
		changed[t.ID] = base
	}
	if len(changed) == 0 {
		return nil
	}
	// Re-consolidate the whole unstarted sub-DAG (hour-packed, like any
	// replan) so the recovered tasks share on-demand capacity instead of
	// fanning out one instance each.
	upd, err := m.replanPlacements(newCfg)
	if err != nil {
		m.fail(err)
		return nil
	}
	m.config = newCfg
	for id, pl := range upd {
		m.plan[id] = pl
	}
	m.recoveries++
	m.emit(StreamEvent{Time: m.res.now, Kind: "replan",
		Replan: &ReplanEvent{Changed: len(changed), Assignments: changed}})
	return upd
}

// Revise implements sim.Controller: after each completion, re-estimate the
// violation probability of the remaining DAG; above the risk threshold, run
// the incremental replan and return the revised placements. Pending
// revocations short-circuit into a forced recovery replan first.
func (m *Monitor) Revise() map[string]sim.Placement {
	if upd := m.recoverRevoked(); upd != nil {
		return upd
	}
	if m.err != nil || len(m.cons) == 0 {
		return nil
	}
	base := probir.MixSeed(m.opt.Seed, m.decisions)
	m.decisions++
	ev, err := m.assess(base)
	if err != nil {
		m.fail(err)
		return nil
	}
	risk := violationProb(ev)
	if risk > m.riskMax {
		m.riskMax = risk
	}
	m.emit(StreamEvent{Time: m.res.now, Kind: "risk", Risk: risk, Drift: m.res.drift})
	if risk <= m.opt.Risk || m.replans >= m.opt.MaxReplans || m.sinceReplan < m.opt.Cooldown {
		return nil
	}
	upd, rev, err := m.replan(base)
	if err != nil {
		m.fail(err)
		return nil
	}
	// Cooldown applies to attempts, not just accepted replans, so a risk
	// stuck above threshold with no better plan available does not re-run
	// the search after every completion.
	m.sinceReplan = 0
	if upd == nil {
		return nil
	}
	m.replans++
	rev.RiskBefore = risk
	m.emit(StreamEvent{Time: m.res.now, Kind: "replan", Risk: risk, Replan: rev})
	return upd
}

// assess is the risk evaluation of the current plan over the worlds of
// base: the residual kernel's worlds on the device (one block), reduced
// bit-identically to probir.RunKernel on any device, because ReduceBlocks
// folds thread slots in canonical order.
func (m *Monitor) assess(base int64) (*probir.Evaluation, error) {
	k, err := m.res.buildKernel(m.config, base)
	if err != nil {
		return nil, err
	}
	m.riskWorldsRun += int64(k.Worlds())
	sums, errs := device.ReduceBlocks(m.opt.Device, 1, k.Worlds(), k.Width(), func(_, lo, hi int, out []float64) error {
		return k.Sample(lo, hi, out)
	})
	if errs[0] != nil {
		return nil, errs[0]
	}
	return k.Reduce(sums, k.Worlds())
}

// fail records a monitoring error and stops further adaptation; the
// execution itself continues open-loop.
func (m *Monitor) fail(err error) {
	m.err = err
	m.emit(StreamEvent{Time: m.res.now, Kind: "error"})
}

// deadline returns the first deadline constraint's bound (0 if none).
func (m *Monitor) deadline() float64 {
	for _, c := range m.cons {
		if c.Kind == "deadline" {
			return c.Bound
		}
	}
	return 0
}

// Finish folds the completed run's outcome into the log. Call it once after
// RunControlled returns.
func (m *Monitor) Finish(res *sim.Result) {
	if m.done || res == nil {
		return
	}
	m.done = true
	se := StreamEvent{Time: res.Makespan, Kind: "done",
		Makespan: res.Makespan, TotalCost: res.TotalCost}
	if d := m.deadline(); d > 0 {
		met := res.Makespan <= d
		se.DeadlineMet = &met
	}
	m.emit(se)
	m.final = &m.events[len(m.events)-1]
}

// Err returns the first monitoring error, if any (the run itself is not
// affected; adaptation just stops).
func (m *Monitor) Err() error { return m.err }

// Report summarizes the monitored execution.
func (m *Monitor) Report() *Report {
	rep := &Report{
		Replans:         m.replans,
		Revocations:     m.revocations,
		Recoveries:      m.recoveries,
		RiskMax:         m.riskMax,
		Drift:           m.res.drift,
		FinalConfig:     make(map[string]string, len(m.config)),
		Events:          m.events,
		DeadlineSeconds: m.deadline(),
		RiskWorldsRun:   m.riskWorldsRun,
	}
	for i, t := range m.w.Tasks {
		rep.FinalConfig[t.ID] = m.tbl.Types[m.config[i]]
	}
	if m.final != nil {
		rep.Makespan = m.final.Makespan
		rep.TotalCost = m.final.TotalCost
		rep.DeadlineMet = m.final.DeadlineMet
	}
	if m.err != nil {
		rep.Error = m.err.Error()
	}
	return rep
}
