package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"deco"
	"deco/internal/cloud"
	"deco/internal/runtime"
)

// RunRequest is the body of POST /v1/runs: a managed run plans the request
// like POST /v1/jobs and then executes the plan once on the cloud simulator
// under the runtime monitor, streaming execution events as they happen.
type RunRequest struct {
	SubmitRequest

	// Adapt enables closed-loop replanning; without it the monitor still
	// observes, streams events, and reports risk, but never intervenes.
	Adapt bool `json:"adapt,omitempty"`
	// Risk is the violation-probability threshold that triggers a replan
	// (0 takes the server default).
	Risk float64 `json:"risk,omitempty"`
	// Perturb scales the simulator's ground-truth performance away from the
	// calibrated histograms (0.5 = half speed; 0 or 1 = none) to model
	// calibration drift.
	Perturb float64 `json:"perturb,omitempty"`
	// SpotHazard scales the simulator's ground-truth spot revocation hazard
	// away from the catalog's market model (0 or 1 = none): spot instances
	// are reclaimed more often than the plan priced in, and each revocation
	// forces a monitor recovery replan onto on-demand capacity.
	SpotHazard float64 `json:"spot_hazard,omitempty"`
}

// runState is the managed-run extension of a job: the live event log the
// events endpoint streams from. events is appended under Manager.mu; once the
// job reaches a terminal state the log is complete.
type runState struct {
	req    RunRequest
	events []runtime.StreamEvent
}

// RunResult is the result document of a finished managed run.
type RunResult struct {
	Plan      PlanResult `json:"plan"`
	Makespan  float64    `json:"makespan"`
	TotalCost float64    `json:"total_cost"`
	// DeadlineMet reports the realized outcome against the plan's deadline
	// constraint (absent when the plan has none).
	DeadlineMet *bool   `json:"deadline_met,omitempty"`
	Replans     int     `json:"replans"`
	RiskMax     float64 `json:"risk_max"`
	Drift       float64 `json:"drift"`
	Perturb     float64 `json:"perturb,omitempty"`
	SpotHazard  float64 `json:"spot_hazard,omitempty"`
	// Spot-market outcome of this run: market reclaims, the monitor's
	// forced recovery replans (not counted in Replans), and the realized
	// spot-vs-on-demand billing delta.
	Revocations    int     `json:"revocations,omitempty"`
	Recoveries     int     `json:"recoveries,omitempty"`
	SpotSavingsUSD float64 `json:"spot_savings_usd,omitempty"`
	// FinalAssignments is the placement actually executed, sorted by task —
	// it differs from Plan.Assignments exactly when replans fired.
	FinalAssignments []Assignment `json:"final_assignments"`
	Events           int          `json:"events"`
}

// SubmitRun validates and enqueues a managed run. Runs never touch the plan
// cache (the execution is stochastic state, not a memoizable answer) and are
// never forwarded to peers — the event stream lives on the node the client
// submitted to — but they share the tenant admission quota and fair queue
// with planning jobs.
func (m *Manager) SubmitRun(req RunRequest) (JobView, error) {
	w, kind, err := m.normalize(&req.SubmitRequest)
	if err != nil {
		return JobView{}, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	if kind == KindEnsemble {
		return JobView{}, fmt.Errorf("%w: ensemble programs have no executable plan; submit them as a planning job", errBadRequest)
	}
	if req.Risk == 0 {
		req.Risk = m.cfg.DefaultRisk
	}
	if req.Risk <= 0 || req.Risk >= 1 {
		return JobView{}, fmt.Errorf("%w: risk must be in (0, 1), got %v", errBadRequest, req.Risk)
	}
	if req.Perturb == 0 {
		req.Perturb = 1
	}
	if req.Perturb <= 0 {
		return JobView{}, fmt.Errorf("%w: perturb must be positive, got %v", errBadRequest, req.Perturb)
	}
	if req.SpotHazard == 0 {
		req.SpotHazard = 1
	}
	if req.SpotHazard < 0 {
		return JobView{}, fmt.Errorf("%w: spot_hazard must be non-negative, got %v", errBadRequest, req.SpotHazard)
	}
	if req.RequestID == "" {
		req.RequestID = genRequestID()
	}
	j := &job{req: req.SubmitRequest, requestID: req.RequestID, wf: w, kind: KindRun, run: &runState{req: req}}
	return m.enqueue(j, "r", nil)
}

// runManaged plans and then executes a managed run, appending every monitor
// event to the job's log as it happens. Called from a worker goroutine that
// does not hold m.mu.
func (m *Manager) runManaged(j *job, eng *deco.Engine) (json.RawMessage, error) {
	plan, err := solve(j.ctx, eng, j)
	if err != nil {
		return nil, err
	}
	// Ground truth starts from the plan's catalog, not the worker engine's:
	// a program-mode job may have derived its engine from a custom-cloud
	// import, and the drift knobs must perturb that cloud.
	execCat := plan.Catalog()
	if p := j.run.req.Perturb; p != 1 {
		if execCat, err = cloud.ScalePerf(execCat, p); err != nil {
			return nil, err
		}
	}
	if h := j.run.req.SpotHazard; h != 1 {
		if execCat, err = cloud.ScaleHazard(execCat, h); err != nil {
			return nil, err
		}
	}
	o := runtime.Options{
		Risk: j.run.req.Risk,
		Seed: j.req.Seed,
		Ctx:  j.ctx,
		Sink: func(ev runtime.StreamEvent) {
			m.mu.Lock()
			j.run.events = append(j.run.events, ev)
			m.runCond.Broadcast()
			m.mu.Unlock()
		},
	}
	if !j.run.req.Adapt {
		o.MaxReplans = -1 // observe and stream, never intervene
	}
	res, rep, err := plan.ExecuteAdaptive(j.ctx, j.req.Seed, execCat, o)
	if err != nil {
		return nil, err
	}
	m.metrics.RunsDone.Add(1)
	m.metrics.ReplansTotal.Add(int64(rep.Replans))
	m.metrics.RevocationsTotal.Add(int64(rep.Revocations))
	m.metrics.RecoveriesTotal.Add(int64(rep.Recoveries))
	m.metrics.SpotSavingsMicroUSD.Add(int64(math.Round(res.SpotSavingsUSD * 1e6)))

	final := make([]Assignment, 0, len(rep.FinalConfig))
	pr := PlanResultOf(plan)
	for _, a := range pr.Assignments { // reuse the sorted task order
		final = append(final, Assignment{Task: a.Task, Type: rep.FinalConfig[a.Task]})
	}
	doc := RunResult{
		Plan:             pr,
		Makespan:         res.Makespan,
		TotalCost:        res.TotalCost,
		DeadlineMet:      rep.DeadlineMet,
		Replans:          rep.Replans,
		RiskMax:          rep.RiskMax,
		Drift:            rep.Drift,
		FinalAssignments: final,
		Events:           len(rep.Events),
	}
	if j.run.req.Perturb != 1 {
		doc.Perturb = j.run.req.Perturb
	}
	if j.run.req.SpotHazard != 1 {
		doc.SpotHazard = j.run.req.SpotHazard
	}
	doc.Revocations = rep.Revocations
	doc.Recoveries = rep.Recoveries
	doc.SpotSavingsUSD = res.SpotSavingsUSD
	return json.Marshal(doc)
}

// StreamEvents writes the run's event log to w as NDJSON, one StreamEvent per
// line, blocking until the run reaches a terminal state (the log is then
// complete) or ctx is cancelled. flush, when non-nil, is called after every
// batch so HTTP clients see events as they happen.
func (m *Manager) StreamEvents(ctx context.Context, id string, w io.Writer, flush func()) error {
	// A cancelled client must not stay parked on the cond.
	stop := context.AfterFunc(ctx, func() {
		m.mu.Lock()
		m.runCond.Broadcast()
		m.mu.Unlock()
	})
	defer stop()

	next := 0
	for {
		m.mu.Lock()
		j, ok := m.jobs[id]
		if !ok || j.run == nil {
			m.mu.Unlock()
			if next == 0 {
				return ErrNotFound
			}
			return nil // pruned mid-stream: the log is gone, end cleanly
		}
		for next >= len(j.run.events) && !j.state.terminal() && ctx.Err() == nil {
			m.runCond.Wait()
		}
		batch := append([]runtime.StreamEvent(nil), j.run.events[next:]...)
		done := j.state.terminal()
		m.mu.Unlock()

		enc := json.NewEncoder(w)
		for _, ev := range batch {
			if err := enc.Encode(ev); err != nil {
				return err
			}
		}
		if len(batch) > 0 && flush != nil {
			flush()
		}
		next += len(batch)
		if done {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
}

// terminal reports whether the state is final — for a managed run this also
// means its event log is complete, because the worker appends every event
// before marking the job finished.
func (s JobState) terminal() bool {
	switch s {
	case JobDone, JobFailed, JobCancelled:
		return true
	}
	return false
}
